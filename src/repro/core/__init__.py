"""Core of the reproduction: the functional performance model and the
geometric set-partitioning algorithms of Lastovetsky & Reddy (IPPS 2004).
"""

from .band import SpeedBand
from .bisection import partition_bisection, partition_bisection_many
from .bounded import partition_bounded
from .combined import partition_combined
from .comm_aware import CommAwareSpeedFunction
from .constant_model import (
    partition_constant,
    partition_constant_naive,
    partition_even,
    single_number_speeds,
)
from .exact import partition_exact
from .geometry import SlopeRegion, ensure_bracket, initial_bracket
from .hierarchical import HierarchicalResult, group_speed_function, partition_hierarchical
from .modified import partition_modified
from .multidim import SpeedSurface, partition_2d_fixed
from .options import PartitionOptions
from .partition import ALGORITHMS, SUPPORTED_OPTIONS, partition
from .rectangles import Rectangle, RectanglePartition, partition_rectangles
from .refine import makespan, refine_greedy, refine_paper
from .result import PartitionResult
from .step_model import StepSpeedFunction
from .speed_function import (
    AnalyticSpeedFunction,
    ConstantSpeedFunction,
    KnotRow,
    PiecewiseLinearSpeedFunction,
    SpeedFunction,
    validate_speed_functions,
)
from .vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from .weighted import WeightedPartitionResult, partition_weighted

__all__ = [
    "ALGORITHMS",
    "SUPPORTED_OPTIONS",
    "AnalyticSpeedFunction",
    "CommAwareSpeedFunction",
    "HierarchicalResult",
    "ConstantSpeedFunction",
    "KnotRow",
    "ObjectSet",
    "PartitionOptions",
    "PartitionResult",
    "PiecewiseLinearSet",
    "PiecewiseLinearSpeedFunction",
    "Rectangle",
    "RectanglePartition",
    "SlopeRegion",
    "SpeedBand",
    "SpeedFunction",
    "SpeedSurface",
    "StepSpeedFunction",
    "WeightedPartitionResult",
    "ensure_bracket",
    "group_speed_function",
    "initial_bracket",
    "makespan",
    "pack_speed_functions",
    "partition",
    "partition_2d_fixed",
    "partition_bisection",
    "partition_bisection_many",
    "partition_bounded",
    "partition_combined",
    "partition_constant",
    "partition_constant_naive",
    "partition_even",
    "partition_exact",
    "partition_hierarchical",
    "partition_modified",
    "partition_rectangles",
    "partition_weighted",
    "refine_greedy",
    "refine_paper",
    "single_number_speeds",
    "validate_speed_functions",
]
