"""Process-mode member nodes: start-up, a served plan, start-up errors, kill.

A node child runs a process-mode shard pool of its own (worker processes
plus the ``WarmStoreManager`` process hosting the warm tier), so its start-up
must work from inside a node process, a failure there must reach the
caller as a readable :class:`RuntimeError` rather than a bare pipe EOF,
and a SIGKILL of the node must not leave those processes behind.
"""

from __future__ import annotations

import os
import socket
from pathlib import Path

import pytest

from repro.cluster import start_process_node
from repro.core.bisection import partition_bisection
from repro.serve.client import ServeClient
from tests.cluster.conftest import cluster_poll_until


def _live_group_members(pgid: int) -> set[int]:
    """Pids of the non-zombie processes in process group ``pgid``."""
    members = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # exited while we were scanning
        # Fields after the parenthesised command: state ppid pgrp ...
        state, _ppid, pgrp = text.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.add(int(stat.parent.name))
    return members


def test_process_mode_node_serves_a_cold_plan_bit_identically(trio_sfs):
    node = start_process_node("pm", worker_mode="process", shards=1)
    try:
        assert node.alive
        with ServeClient(node.host, node.port, timeout=30.0) as client:
            fp = client.register_fleet(trio_sfs, name="trio")["fingerprint"]
            item = client.plan(fp, 1_234_567)
    finally:
        node.stop()
    want = partition_bisection(1_234_567, trio_sfs)
    assert item["allocation"] == [int(x) for x in want.allocation]
    assert item["makespan"] == float(want.makespan)
    assert not node.alive


def test_start_up_failure_reaches_the_parent_with_the_child_message():
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        with pytest.raises(RuntimeError, match="failed to start: .*Error"):
            start_process_node("clash", port=port, timeout=30.0)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
def test_kill_takes_down_the_node_workers_and_manager():
    node = start_process_node("doomed", worker_mode="process", shards=1)
    try:
        children = _live_group_members(node.pid) - {node.pid}
        assert children, "a process-mode node should run worker processes"
        assert os.getpgid(node.pid) == node.pid
    finally:
        node.kill()
    assert not node.alive
    cluster_poll_until(
        lambda: not _live_group_members(node.pid),
        message="processes started by a killed node outlived it",
    )
