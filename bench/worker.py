"""One workload in a fresh Python process: set up, time, check, trace.

``run.py`` starts this file once per set-up; it is not meant to be run by
hand.  It prints one JSON document as its last line of standard output.

    python bench/worker.py --workload W --seed S --seconds T \
        --launched MONOTONIC [--setup-only] [--trace] [--smoke]

``--launched`` is the parent's ``time.monotonic()`` just before the
launch, so ``setup_s`` covers interpreter start and imports too.
"""

from __future__ import annotations

import argparse
import json
import time

from common import WORKLOADS, use_checkout_src


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    use_checkout_src()
    from workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args.seed, smoke=args.smoke)
    out: dict = {}
    try:
        workload.setup()
        out["setup_s"] = time.monotonic() - args.launched
        if not args.setup_only:
            out.update(workload.run(args.seconds))
            out["metrics"]["rss_peak_mb"] = workload.rss_peak_mb()
            workload.check()
            checker = workload.checker
            out.update(
                checked=checker.checked,
                wrong=checker.wrong,
                reasons=checker.reasons,
                errors=dict(workload.errors),
            )
            if args.trace:
                import layers

                out["layers"], out["layer_samples"] = layers.layer_pass(workload)
    finally:
        workload.teardown()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
