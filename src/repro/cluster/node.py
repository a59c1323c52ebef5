"""Member-node lifecycles: planner servers as processes or threads.

A cluster node is just an ordinary :class:`~repro.serve.server.PlanServer`
booted with a ``node_id``; this module owns the two ways to run one:

* :class:`ProcessNode` — a real child process (fork-preferred), the
  production-shaped topology.  It is independently killable with
  ``SIGKILL``, which is exactly what the chaos verification needs: a
  node that vanishes mid-request without flushing so much as a socket
  buffer.  The node leads a process group of its own, so the kill also
  takes down the processes it started (process-mode shard workers and
  the warm tier's ``multiprocessing.Manager``).
* :class:`ThreadNode` — the same server on a daemon thread in this
  process, for tests that want cluster semantics without fork overhead.

Both expose the same surface (``info`` / ``alive`` / ``stop`` /
``kill``), so the router, the chaos harness and the test-suite fixtures
are topology-agnostic.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Any

from ..serve.server import ServerHandle, start_in_thread
from ..serve.service import ServeConfig
from .membership import NodeInfo

__all__ = [
    "ProcessNode",
    "ThreadNode",
    "start_process_node",
    "start_thread_node",
    "start_nodes",
]


def _node_config(node_id: str, **overrides: Any) -> ServeConfig:
    """A node's ServeConfig: ephemeral ports, HTTP on, id stamped."""
    defaults: dict[str, Any] = {
        "host": "127.0.0.1",
        "port": 0,
        "http_port": 0,
        "node_id": node_id,
        "shards": 1,
        "worker_mode": "thread",
    }
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _child_main(conn, config: ServeConfig) -> None:  # pragma: no cover - child
    """Child-process body: boot the server, report ports, await stop.

    Any start-up failure is reported to the parent as ``{"error": ...}``
    instead of a silently closed pipe.
    """
    # The child must not inherit the parent's signal-driven test harness
    # behaviour; default handlers make SIGTERM a clean exit path.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Lead a process group: everything the node starts joins it, which is
    # what lets ProcessNode.kill() SIGKILL the node with its descendants.
    if hasattr(os, "setpgrp"):
        os.setpgrp()
    try:
        # The node is started as a daemon (reaped if its parent exits), but
        # a process-mode shard pool forks workers and a Manager, which a
        # daemonic process may not do; the node reaps those itself on a
        # graceful stop, and kill() signals its whole process group.
        multiprocessing.current_process().daemon = False
        handle = start_in_thread(config)
    except Exception as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        raise SystemExit(1) from None
    conn.send({"port": handle.port, "http_port": handle.http_port})
    try:
        conn.recv()  # blocks until the parent asks for a graceful stop
    except EOFError:
        pass  # parent vanished; fall through to a drain anyway
    handle.stop()
    conn.close()


class ProcessNode:
    """One member node running as a SIGKILL-able child process."""

    def __init__(self, node_id: str, process, conn, host: str, port: int,
                 http_port: int | None):
        self.node_id = node_id
        self._process = process
        self._conn = conn
        self.host = host
        self.port = port
        self.http_port = http_port

    @property
    def info(self) -> NodeInfo:
        return NodeInfo(host=self.host, port=self.port, http_port=self.http_port)

    @property
    def pid(self) -> int:
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def kill(self) -> None:
        """SIGKILL the node — no drain, no goodbye (chaos path).

        The signal goes to the node's process group, so its shard workers
        and Manager die with it instead of outliving it as orphans.
        """
        _kill_group(self._process)
        self._process.join(timeout=10.0)

    def stop(self, *, timeout: float = 30.0) -> None:
        """Graceful stop: ask the child to drain, then join it."""
        if self._process.is_alive():
            try:
                self._conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=timeout)
        if self._process.is_alive():  # pragma: no cover - drain hang
            self.kill()
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessNode({self.node_id!r}, pid={self.pid}, alive={self.alive})"


class ThreadNode:
    """One member node running in-process (a wrapped :class:`ServerHandle`)."""

    def __init__(self, node_id: str, handle: ServerHandle):
        self.node_id = node_id
        self._handle = handle
        self.host = handle.host
        self.port = handle.port
        self.http_port = handle.http_port
        self._alive = True

    @property
    def info(self) -> NodeInfo:
        return NodeInfo(host=self.host, port=self.port, http_port=self.http_port)

    @property
    def handle(self) -> ServerHandle:
        return self._handle

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Closest thread-mode analogue of a crash: abrupt stop, no drain."""
        self._alive = False
        self._handle.stop(drain=False)

    def stop(self, *, timeout: float = 30.0) -> None:
        self._alive = False
        self._handle.stop(drain=True, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadNode({self.node_id!r}, alive={self.alive})"


def start_process_node(
    name: str = "", *, timeout: float = 60.0, **overrides: Any
) -> ProcessNode:
    """Fork a member node; blocks until its listeners are bound.

    ``overrides`` are :class:`~repro.serve.ServeConfig` fields (shards,
    worker_mode, tracing, ...).  The returned node's ``node_id`` is its
    final ``host:port``, matching what the router derives from the
    address — ``name`` only labels the child process.
    """
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe()
    config = _node_config(name or "node", **overrides)
    process = ctx.Process(
        target=_child_main,
        args=(child_conn, config),
        name=f"repro-node-{name or 'member'}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    deadline = time.monotonic() + timeout
    if not parent_conn.poll(max(0.0, deadline - time.monotonic())):
        _kill_group(process)
        raise RuntimeError(f"cluster node {name!r} did not start in time")
    try:
        ports = parent_conn.recv()
    except EOFError:
        ports = {"error": "child exited without reporting its listeners"}
    if "error" in ports:
        process.join(timeout=10.0)
        parent_conn.close()
        raise RuntimeError(
            f"cluster node {name!r} failed to start: {ports['error']}"
        )
    info = NodeInfo(host=config.host, port=ports["port"], http_port=ports["http_port"])
    return ProcessNode(
        info.node_id, process, parent_conn, info.host, info.port, info.http_port
    )


def start_thread_node(
    name: str = "", *, timeout: float = 60.0, **overrides: Any
) -> ThreadNode:
    """Boot a member node on a daemon thread in this process."""
    config = _node_config(name or "node", **overrides)
    handle = start_in_thread(config, timeout=timeout)
    return ThreadNode(f"{handle.host}:{handle.port}", handle)


def start_nodes(
    count: int, *, mode: str = "process", timeout: float = 60.0, **overrides: Any
) -> list[ProcessNode | ThreadNode]:
    """Boot ``count`` member nodes of the requested mode."""
    if mode not in ("process", "thread"):
        raise ValueError(f"unknown node mode {mode!r}")
    starter = start_process_node if mode == "process" else start_thread_node
    nodes: list[ProcessNode | ThreadNode] = []
    try:
        for i in range(count):
            nodes.append(starter(f"n{i}", timeout=timeout, **overrides))
    except BaseException:
        for node in nodes:
            try:
                node.kill()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass
        raise
    return nodes


def _kill_group(process) -> None:
    """SIGKILL a node child together with its process group.

    The group outlives its leader while members remain, so this also
    reaches the workers of a node that has already exited.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (AttributeError, ProcessLookupError):
        # No such group: everything is gone already, the child has not
        # reached os.setpgrp() yet, or the platform has no process groups.
        if process.is_alive():
            process.kill()


def _mp_context():
    """Fork when the platform has it (fast, no re-import); spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")
