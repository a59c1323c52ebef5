"""Bulkhead-isolated connection pools: one bounded link per node.

A :class:`NodeLink` owns everything the router holds against one member
node: a small pool of pipelined :class:`~repro.serve.client.AsyncServeClient`
connections, a bulkhead bound on concurrent in-flight requests, a
bounded waiting room in front of it (queue-based load leveling), and the
node's :class:`~repro.cluster.breaker.CircuitBreaker`.

The bulkhead is the isolation boundary: a slow node can hold at most
``max_concurrency`` router requests plus ``max_waiting`` queued ones —
after that the link *sheds locally* by raising :class:`NodeBusy`, and
the router walks to the next replica instead of letting every event-loop
task pile up behind one wedged socket.  Transport failures (connect
refused, reset, per-attempt timeout) raise :class:`NodeUnavailable`;
the router records them on the breaker.

Why a waiting room at all, instead of shedding straight at the
concurrency bound?  Micro-bursts.  The node batches a burst into few
shard jobs only if its requests *reach* it; a short queue in the router
absorbs a burst a few milliseconds long without either shedding or
unbounded buildup — the queue-based load-leveling pattern with a hard
cap.
"""

from __future__ import annotations

import asyncio
import itertools

from ..exceptions import ReproError
from ..serve.client import AsyncServeClient

__all__ = ["NodeBusy", "NodeUnavailable", "NodeLink"]


class NodeBusy(ReproError):
    """The link's bulkhead and waiting room are both full (local shed)."""


class NodeUnavailable(ReproError):
    """The node could not be reached or did not answer within the timeout."""


class NodeLink:
    """The router's bounded channel to one member node.

    Parameters
    ----------
    host / port:
        The node's NDJSON/TCP listener address.
    connections:
        Pipelined connections to multiplex requests over (created
        lazily, replaced on transport failure).
    max_concurrency:
        Bulkhead: requests in flight to this node at once.
    max_waiting:
        Waiting-room bound; beyond it :meth:`request` sheds immediately.
    attempt_timeout:
        Seconds one forwarded request may take end to end before the
        link declares the node unavailable and resets the connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connections: int = 2,
        max_concurrency: int = 32,
        max_waiting: int = 64,
        attempt_timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self._connections = max(1, int(connections))
        self._clients: list[AsyncServeClient | None] = [None] * self._connections
        self._rr = itertools.count()
        self._sem = asyncio.Semaphore(max_concurrency)
        self._max_waiting = max(0, int(max_waiting))
        self._waiting = 0
        self._in_flight = 0
        self._attempt_timeout = attempt_timeout
        self._closed = False

    # -- introspection ---------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests currently inside the bulkhead (probes included)."""
        return self._in_flight

    @property
    def waiting(self) -> int:
        return self._waiting

    @property
    def closed(self) -> bool:
        return self._closed

    # -- request path ----------------------------------------------------
    async def request(
        self, op: str, fields: dict, *, timeout: float | None = None
    ) -> dict:
        """Forward one protocol request; return the node's full response.

        Raises :class:`NodeBusy` on a full bulkhead+queue and
        :class:`NodeUnavailable` on any transport failure or timeout.
        Never raises the node's *protocol* errors — those come back as
        ordinary ``{"ok": false, ...}`` response dicts for the router's
        fallback logic to interpret.
        """
        if self._closed:
            raise NodeUnavailable(f"link to {self.host}:{self.port} is closed")
        if self._sem.locked() and self._waiting >= self._max_waiting:
            raise NodeBusy(
                f"node {self.host}:{self.port} bulkhead is full "
                f"({self._waiting} already waiting)"
            )
        self._waiting += 1
        try:
            await self._sem.acquire()
        finally:
            self._waiting -= 1
        self._in_flight += 1
        try:
            idx = next(self._rr) % self._connections
            client = self._clients[idx]
            if client is not None and not client.connected:
                # The node hung up since the last request on this slot;
                # redial now so failover costs a refused connect, not a
                # parked future.
                self._clients[idx] = None
                await _close_quietly(client)
                client = None
            try:
                if client is None:
                    client = await asyncio.wait_for(
                        AsyncServeClient.connect(self.host, self.port),
                        timeout=self._attempt_timeout,
                    )
                    self._clients[idx] = client
                return await asyncio.wait_for(
                    client.call(op, **fields),
                    timeout=timeout if timeout is not None else self._attempt_timeout,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError, EOFError) as exc:
                # The connection's state is unknown (or the node is gone):
                # drop it so the next request dials fresh.
                if self._clients[idx] is not None:
                    stale, self._clients[idx] = self._clients[idx], None
                    await _close_quietly(stale)
                kind = "timed out" if isinstance(exc, asyncio.TimeoutError) else str(exc)
                raise NodeUnavailable(
                    f"node {self.host}:{self.port} {op} failed: {kind}"
                ) from exc
        finally:
            self._in_flight -= 1
            self._sem.release()

    async def drain(self, *, timeout: float = 30.0, interval: float = 0.01) -> bool:
        """Wait for in-flight requests to finish (used by graceful leave)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._in_flight > 0:
            if loop.time() > deadline:
                return False
            await asyncio.sleep(interval)
        return True

    async def close(self) -> None:
        """Shut every pooled connection; further requests fail fast."""
        self._closed = True
        clients, self._clients = self._clients, [None] * self._connections
        for client in clients:
            if client is not None:
                await _close_quietly(client)


async def _close_quietly(client: AsyncServeClient) -> None:
    try:
        await client.close()
    except Exception:  # noqa: BLE001 - teardown must not mask the real error
        pass
