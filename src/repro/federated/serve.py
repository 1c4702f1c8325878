"""Asyncio round server: federated rounds over real wire-protocol sockets.

A served round runs the attempt lifecycle of the in-process
:class:`~repro.federated.server.FederatedMeanQuery`: one
:class:`~repro.federated.server.RoundLifecycle` per round owns quorum,
degradation, retry with simulated backoff, the per-round metrics and the
estimate's metadata.  This module adds only the transport -- registration,
cohort announcement, report collection under a deadline, wire rejects and
telemetry -- against a TCP client fleet speaking :mod:`repro.federated.wire`
frames inside length-prefixed control messages.

Protocol, per connection::

    client  -> HELLO    {"client_id": i, "clock_s": t}
    server  -> ANNOUNCE {"attempt", "bit_index", "n_bits", "scale", "offset",
                         "epsilon", "deadline_s", "trace"}  (seq = attempt)
    client  -> REPORTS  <one 16-byte report frame>          (seq = attempt)
    server  -> RESULT   {"estimate", "attempt", "survivors"}  | ABORT
    client  -> TELEMETRY {"v", "client_id", "spans", "metrics"}   (best effort)

Transport: each connection is one :class:`asyncio.Protocol` (``_Session``)
driven by the event loop's callbacks.  A
:class:`~repro.federated.wire.MessageFramer` turns whatever bytes arrive into
whole messages; REPORTS and TELEMETRY go straight into the server's inboxes
and wake the one waiting collector, so a report costs no task, queue hop or
``drain()``.  ANNOUNCE is encoded once per bit index per attempt and the same
bytes are written to every client holding that bit.  A registered client that
hangs up, or whose stream breaks at the message layer, can never report
again: it becomes a dropout at once instead of holding collection to the
deadline.

Every malformed or late uplink is rejected *at the uplink* with
:class:`~repro.exceptions.ProtocolError` accounting (``wire_rejects_total``,
``uplink.reject``/``uplink.late`` spans, each carrying the peer address and
session id) and never folded into the per-bit counters.  Accepted frames are
decoded in bulk through the vectorized
:func:`~repro.federated.wire.decode_batch_array` machinery.

Distributed tracing: each ANNOUNCE carries the round's trace context (a
seed-derived ``trace_id`` plus the attempt's ``serve.round`` span id), the
fleet records ``fleet.*`` child spans against it, and after RESULT/ABORT each
client ships them back in one TELEMETRY message.  The server remaps the span
ids, aligns client clocks using the HELLO handshake offset, stamps the spans
``remote``, and exports them through its own tracer -- one merged, causally
linked timeline per round.  Telemetry is not free: on a 1,024-client loopback
round it is the largest share of the round after registration (the
``perfbench`` ``serve.telemetry_cost_frac`` layer, ~0.3 on a 2-vCPU Xeon;
ROADMAP item 5 tracks its encoding cost).

Determinism: the server consumes its seeded generator exactly as the
in-process basic-mode round does -- one :func:`central_assignment` draw per
attempt and nothing else -- so a lossless served round is bit-identical to
``FederatedMeanQuery(mode="basic").run(population, rng=seed)`` on the same
values, and :func:`in_process_estimate` replays lossy/LDP rounds exactly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.core.results import MeanEstimate
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.exceptions import ConfigurationError, ProtocolError, RoundFailedError
from repro.federated.fleet import ClientFleet, EmulationProfile, FleetResult
from repro.federated.retry import RetryPolicy
from repro.federated.server import RoundLifecycle, RoundOutcome, round_estimate
from repro.federated.wire import (
    FLAG_RANDOMIZED_RESPONSE,
    MSG_ABORT,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    MSG_TELEMETRY,
    REPORT_SIZE,
    MessageFramer,
    TraceContext,
    _frame_fields,
    _frame_validity,
    decode_report,
    decode_telemetry,
    encode_announcements,
    encode_message,
)
from repro.observability import NULL_METRICS, NULL_TRACER, NullSpan, get_metrics, get_tracer
from repro.observability.tracing import SpanRecord
from repro.privacy.randomized_response import RandomizedResponse
from repro.rng import ensure_rng

__all__ = [
    "RoundServer",
    "ServeConfig",
    "ServeResult",
    "in_process_estimate",
    "round_trace_id",
    "run_loopback",
]


def round_trace_id(seed: int) -> str:
    """The round's deterministic trace id: a pure function of the seed.

    Sixteen hex characters derived from the server seed, so a re-run of the
    same configuration produces the same merged-trace identity (and sim-clock
    artifacts stay reproducible).  Every span on both sides of the wire for
    one served round shares this id.
    """
    return hashlib.sha256(f"bitpush-round-{int(seed)}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ServeConfig:
    """Everything one served round needs, JSON-able for manifests/announcements.

    Parameters
    ----------
    n_clients:
        Planned cohort size; wire client ids must fall in ``[0, n_clients)``.
    n_bits, scale, offset:
        The fixed-point encoding, shipped to clients in every ANNOUNCE so the
        fleet self-configures.
    epsilon:
        Client-side randomized response (``None`` disables; the server then
        rejects frames carrying the RR flag, and vice versa).
    seed:
        Server RNG seed (bit-assignment draws only).
    deadline_s:
        Wall-clock collection deadline per attempt; ``None`` waits until
        every registered client reported (only safe with a lossless fleet).
    registration_timeout_s:
        How long to wait for the full fleet to register before planning the
        round anyway (unregistered clients become dropouts).
    min_quorum, degraded_fraction, retry:
        Round-failure semantics, exactly as on
        :class:`~repro.federated.server.FederatedMeanQuery`; retry backoff is
        simulated time (recorded, never slept).
    host, port:
        Bind address; port ``0`` picks an ephemeral port.
    telemetry:
        Ship trace context in every ANNOUNCE and ingest the fleet's
        TELEMETRY messages after RESULT/ABORT (default on).  It is not free:
        a 1,024-client loopback round runs ~30% faster with it off
        (``serve.telemetry_cost_frac`` ~0.3 in ``perfbench``'s traced pass on
        a 2-vCPU Xeon), mostly the fleet's span encoding and the server's
        decoding and ingestion (ROADMAP item 5).
    telemetry_timeout_s:
        How long to wait for the fleet's telemetry after broadcasting the
        round outcome before sealing the artifact without it.
    """

    n_clients: int
    n_bits: int = 10
    scale: float = 1.0
    offset: float = 0.0
    epsilon: float | None = None
    seed: int = 0
    deadline_s: float | None = 30.0
    registration_timeout_s: float = 30.0
    min_quorum: int = 1
    degraded_fraction: float = 0.5
    retry: RetryPolicy | None = None
    host: str = "127.0.0.1"
    port: int = 0
    telemetry: bool = True
    telemetry_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.min_quorum < 1:
            raise ConfigurationError(f"min_quorum must be >= 1, got {self.min_quorum}")
        if not 0.0 < self.degraded_fraction <= 1.0:
            raise ConfigurationError(
                f"degraded_fraction must be in (0, 1], got {self.degraded_fraction}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.registration_timeout_s <= 0:
            raise ConfigurationError(
                f"registration_timeout_s must be positive, got {self.registration_timeout_s}"
            )
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.telemetry_timeout_s <= 0:
            raise ConfigurationError(
                f"telemetry_timeout_s must be positive, got {self.telemetry_timeout_s}"
            )
        self.encoder  # noqa: B018 -- validates n_bits/scale/offset eagerly

    @property
    def encoder(self) -> FixedPointEncoder:
        """The round's fixed-point encoder."""
        return FixedPointEncoder(n_bits=self.n_bits, scale=self.scale, offset=self.offset)

    @property
    def schedule(self) -> BitSamplingSchedule:
        """The Eq. 7 weighted schedule, matching the in-process basic default."""
        return BitSamplingSchedule.weighted(self.n_bits, alpha=1.0)

    def to_manifest(self) -> dict:
        """JSON-ready projection for flight-recorder manifests."""
        return {
            "n_clients": self.n_clients,
            "n_bits": self.n_bits,
            "scale": self.scale,
            "offset": self.offset,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "deadline_s": self.deadline_s,
            "registration_timeout_s": self.registration_timeout_s,
            "min_quorum": self.min_quorum,
            "degraded_fraction": self.degraded_fraction,
            "max_attempts": self.retry.max_attempts if self.retry else 1,
            "host": self.host,
            "port": self.port,
            "telemetry": self.telemetry,
            "trace_id": round_trace_id(self.seed) if self.telemetry else None,
        }


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one served round (mirrors the in-process ``RoundOutcome``)."""

    estimate: MeanEstimate
    planned_clients: int
    surviving_clients: int
    registered_clients: int
    attempts: int
    degraded: bool
    backoff_s: float
    wire_rejects: int
    late_reports: int
    duration_s: float
    port: int
    telemetry_clients: int = 0
    remote_spans: int = 0

    @property
    def dropout_rate(self) -> float:
        if self.planned_clients == 0:
            return 0.0
        return 1.0 - self.surviving_clients / self.planned_clients


def _zero_clock() -> float:
    return 0.0


class RoundServer:
    """One asyncio TCP server running one federated round over the fleet.

    Lifecycle: :meth:`start` binds (returning the port for a ``--port-file``
    rendezvous), :meth:`serve_round` registers the fleet and drives the
    attempt loop to a :class:`ServeResult` (or raises
    :class:`RoundFailedError` past the retry budget, after broadcasting
    ABORT), :meth:`close` tears the listener down.  Instrumentation flows
    through the process-wide tracer/metrics pair, so wrapping the round in
    ``instrumented(...)`` (or the ``serve`` CLI's flight recorder) captures
    ``serve.*``/``uplink.*`` spans and the reject/report counters.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port: int | None = None
        self.trace_id = round_trace_id(config.seed)
        self._server: asyncio.AbstractServer | None = None
        #: Every open connection, registered or not (``close`` awaits each).
        self._connections: set[_Session] = set()
        #: client id -> its registered session.
        self._clients: dict[int, _Session] = {}
        #: Registered clients whose session stopped reading -- hung up, reset,
        #: or rejected at the message layer.  None of them can report again,
        #: so collection and the telemetry drain stop waiting for them.
        self._gone: set[int] = set()
        #: Inboxes the sessions append to; the waiting collector drains them.
        self._uplinks: list[tuple[int, int, bytes, float]] = []
        self._telemetry: deque[tuple[int, bytes]] = deque()
        self._waiter: asyncio.Future | None = None
        self._all_registered = asyncio.Event()
        self._rejects = 0
        self._late = 0
        self._telemetry_rejects = 0
        self._telemetry_clients = 0
        self._remote_spans = 0
        self._session_counter = 0
        #: client id -> server_wall_at_HELLO - client_clock_in_HELLO; added
        #: to every remote span start so fleet timelines align with ours.
        self._clock_offsets: dict[int, float] = {}
        #: attempt -> that attempt's ``serve.round`` span id (remote
        #: ``fleet.round`` roots re-parent here on ingestion).
        self._attempt_spans: dict[int, int] = {}
        self._session_span_id: int | None = None
        # Wall clock stamped on each queued uplink; a bound tracer clock when
        # tracing is live, else a constant -- the hot path never pays a
        # syscall for timing nobody will read.
        self._arrival_clock: Any = _zero_clock

    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind the listener; returns the (possibly ephemeral) port."""
        # Backlog must cover the whole cohort: fleets connect simultaneously,
        # and a dropped SYN costs a full TCP retransmission timeout (~1 s).
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Session(self, loop),
            self.config.host,
            self.config.port,
            backlog=max(128, self.config.n_clients),
        )
        self.port = int(self._server.sockets[0].getsockname()[1])
        return self.port

    async def close(self) -> None:
        """Close every client connection and the listener."""
        sessions = list(self._connections)
        for session in sessions:
            session.transport.close()
        for session in sessions:
            await session.lost
        self._clients.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    def _wall_now(self) -> float:
        """One wall-clock reading consistent with recorded span timestamps."""
        tracer = get_tracer()
        return tracer.wall_time() if tracer.enabled else time.time()

    def _attribution(self, client: int | None) -> dict[str, Any]:
        """Peer address + session id attributes for a registered client."""
        if client is None:
            return {}
        session = self._clients.get(client)
        if session is None:
            return {}
        return {"session": session.session, "peer": session.peer}

    def _reject(
        self,
        client: int | None,
        reason: str,
        attempt: int,
        detail: str = "",
        peer: str | None = None,
        session: int | None = None,
    ) -> None:
        """Account one rejected uplink: counter + an ``uplink.reject`` span.

        Rejected frames never touch the per-bit counters -- the accounting
        here is the only trace they leave, so the span carries the peer
        address and session id that make the reject attributable in merged
        traces even when the claimed client id is spoofed or absent.
        """
        self._rejects += 1
        get_metrics().counter("wire_rejects_total").inc()
        attributes: dict[str, Any] = {"reason": reason, "attempt": attempt}
        if client is not None:
            attributes["client"] = client
        if detail:
            attributes["detail"] = detail
        attributes.update(self._attribution(client))
        if peer is not None:
            attributes["peer"] = peer
        if session is not None:
            attributes["session"] = session
        with get_tracer().span("uplink.reject", attributes):
            pass

    def _late_report(self, client: int, seq: int, attempt: int) -> None:
        self._late += 1
        get_metrics().counter("serve_late_reports_total").inc()
        attributes: dict[str, Any] = {"client": client, "seq": seq, "attempt": attempt}
        attributes.update(self._attribution(client))
        with get_tracer().span("uplink.late", attributes):
            pass

    def _wake(self) -> None:
        """Resume the waiting collector or telemetry drain, if any."""
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _wait(self, deadline: float | None) -> None:
        """Sleep until a session routes a message or loses its client, or ``deadline``."""
        loop = asyncio.get_running_loop()
        self._waiter = waiter = loop.create_future()
        timer = None if deadline is None else loop.call_at(deadline, self._wake)
        try:
            await waiter
        finally:
            self._waiter = None
            if timer is not None:
                timer.cancel()

    # ------------------------------------------------------------------
    def _broadcast_announce(
        self, assignment: np.ndarray, attempt: int, parent_span_id: int = 0
    ) -> None:
        """Send each registered client its bit assignment for this attempt."""
        cfg = self.config
        base = {
            "attempt": attempt,
            "n_bits": cfg.n_bits,
            "scale": cfg.scale,
            "offset": cfg.offset,
            "epsilon": cfg.epsilon,
            "deadline_s": cfg.deadline_s,
        }
        context = None
        if cfg.telemetry:
            context = TraceContext(
                trace_id=self.trace_id,
                parent_span_id=parent_span_id,
                clock_s=self._wall_now(),
            )
        messages = encode_announcements(base, cfg.n_bits, context, seq=attempt)
        bits = assignment.tolist()
        for client_id, session in self._clients.items():
            session.send(messages[bits[client_id]])

    def _broadcast_control(self, kind: int, payload: dict, attempt: int) -> None:
        message = encode_message(kind, json.dumps(payload).encode(), seq=attempt)
        for session in self._clients.values():
            session.send(message)

    # ------------------------------------------------------------------
    def _process_uplinks(
        self,
        batch: Sequence[tuple[int, int, bytes, float]],
        attempt: int,
        assignment: np.ndarray,
        accepted: dict[int, tuple[int, int]],
        accept_log: list[tuple[int, float, float]],
    ) -> None:
        """Validate one drained batch of uplinks; fold survivors into ``accepted``.

        The frame layer is vectorized: every well-sized frame in the batch is
        decoded through one structured ``frombuffer`` plus one validity mask
        (the :func:`~repro.federated.wire.decode_batch_array` kernels), and
        only invalid frames pay a scalar :func:`decode_report` call to
        recover the exact :class:`ProtocolError` message for the reject span.

        ``accept_log`` collects ``(client, arrival_wall_s, drained_wall_s)``
        per accepted uplink when tracing is live -- plain appends here, one
        wall read per *batch*; the timing spans are emitted once per attempt,
        never per uplink.
        """
        current: list[tuple[int, bytes, float]] = []
        for client_id, seq, payload, arrival_s in batch:
            if seq != attempt:
                self._late_report(client_id, seq, attempt)
                continue
            if len(payload) != REPORT_SIZE:
                self._reject(
                    client_id,
                    "frame-size",
                    attempt,
                    f"uplink of {len(payload)} bytes is not one {REPORT_SIZE}-byte frame",
                )
                continue
            current.append((client_id, payload, arrival_s))
        if not current:
            return
        tracer = get_tracer()
        drained_s = tracer.wall_time() if tracer.enabled else 0.0
        with tracer.span("uplink.drain", {"uplinks": len(current), "attempt": attempt}):
            data = b"".join(frame for _owner, frame, _t in current)
            fields = _frame_fields(data)
            valid = _frame_validity(fields)
            rr_expected = self.config.epsilon is not None
            for i, (owner, frame, arrival_s) in enumerate(current):
                if not valid[i]:
                    try:
                        decode_report(frame)
                        detail = "invalid frame"  # pragma: no cover - decode raises
                    except ProtocolError as exc:
                        detail = str(exc)
                    self._reject(owner, "frame", attempt, detail)
                    continue
                if int(fields["client_id"][i]) != owner:
                    self._reject(
                        owner,
                        "spoofed-id",
                        attempt,
                        f"frame claims client {int(fields['client_id'][i])}",
                    )
                    continue
                bit_index = int(fields["bit_index"][i])
                if bit_index != int(assignment[owner]):
                    self._reject(
                        owner,
                        "assignment-mismatch",
                        attempt,
                        f"reported bit {bit_index}, assigned {int(assignment[owner])}",
                    )
                    continue
                randomized = bool(fields["flags"][i] & FLAG_RANDOMIZED_RESPONSE)
                if randomized != rr_expected:
                    self._reject(
                        owner,
                        "flag-mismatch",
                        attempt,
                        f"randomized_response={randomized}, expected {rr_expected}",
                    )
                    continue
                if owner in accepted:
                    self._reject(owner, "duplicate", attempt)
                    continue
                accepted[owner] = (bit_index, int(fields["bit"][i]))
                if tracer.enabled:
                    accept_log.append((owner, arrival_s, drained_s))

    async def _collect(
        self, attempt: int, assignment: np.ndarray
    ) -> tuple[dict[int, tuple[int, int]], float, list[tuple[int, float, float]]]:
        """Collect uplinks until each registered client reported or can no longer report.

        A client that hung up or broke its stream counts as a dropout at
        once; the deadline, if any, bounds the wait for the rest.
        """
        loop = asyncio.get_running_loop()
        accepted: dict[int, tuple[int, int]] = {}
        accept_log: list[tuple[int, float, float]] = []
        expected = len(self._clients)
        start = loop.time()
        deadline = None if self.config.deadline_s is None else start + self.config.deadline_s
        with get_tracer().span(
            "serve.collect",
            {"attempt": attempt, "expected": expected, "deadline_s": self.config.deadline_s},
        ) as span:
            while True:
                if self._uplinks:
                    batch, self._uplinks = self._uplinks, []
                    self._process_uplinks(batch, attempt, assignment, accepted, accept_log)
                unreachable = sum(1 for client in self._gone if client not in accepted)
                if len(accepted) + unreachable >= expected:
                    break
                if deadline is not None and loop.time() >= deadline:
                    break
                await self._wait(deadline)
            duration = loop.time() - start
            span.set_attribute("accepted", len(accepted))
            span.set_attribute("duration_s", duration)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("serve_reports_total").inc(len(accepted))
            metrics.histogram("serve_collect_duration_s").observe(duration)
            if duration > 0:
                metrics.gauge("serve_reports_per_s").set(len(accepted) / duration)
        return accepted, duration, accept_log

    # ------------------------------------------------------------------
    def _record_uplink_timings(
        self,
        attempt: int,
        announce_wall: float,
        accept_log: list[tuple[int, float, float]],
        round_span: Any,
    ) -> None:
        """One ``serve.uplink_timings`` span per attempt + straggler stats.

        The per-uplink arrival and queue-delay samples ride as index-aligned
        arrays on a single span (never a span per uplink), and the attempt's
        ``serve.round`` span gains the median / slowest-decile uplink latency
        attributes the ``straggler-skew`` health rule and the report's
        wire-latency section read.
        """
        tracer = get_tracer()
        if not tracer.enabled or not accept_log:
            return
        clients = [owner for owner, _a, _d in accept_log]
        arrival_s = [arrival for _o, arrival, _d in accept_log]
        queue_delay_s = [drained - arrival for _o, arrival, drained in accept_log]
        with tracer.span(
            "serve.uplink_timings",
            {
                "attempt": attempt,
                "announce_s": announce_wall,
                "clients": clients,
                "arrival_s": arrival_s,
                "queue_delay_s": queue_delay_s,
            },
        ):
            pass
        latencies = np.asarray(arrival_s, dtype=np.float64) - announce_wall
        latencies.sort()
        slowest = latencies[-max(1, latencies.size // 10):]
        round_span.set_attribute("uplink_median_s", float(np.median(latencies)))
        round_span.set_attribute("uplink_slow_decile_s", float(slowest.mean()))

    # ------------------------------------------------------------------
    async def _drain_telemetry(self, attempt: int) -> None:
        """Ingest the fleet's TELEMETRY messages after the round outcome.

        Strictly off the uplink hot path: runs once, after RESULT/ABORT has
        been broadcast.  Waits up to ``telemetry_timeout_s`` for one message
        per registered client, but gives up as soon as every registered
        connection has hung up -- an old (pre-tracing) fleet costs nothing,
        not the full timeout.
        """
        cfg = self.config
        if not cfg.telemetry:
            return
        expected = len(self._clients)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + cfg.telemetry_timeout_s
        with get_tracer().span(
            "serve.telemetry", {"attempt": attempt, "expected": expected}
        ) as span:
            received = 0
            while received < expected:
                if self._telemetry:
                    received += 1
                    self._ingest_telemetry(*self._telemetry.popleft())
                    continue
                if loop.time() >= deadline or len(self._gone) >= len(self._clients):
                    break  # timed out, or every client hung up: nothing more is coming
                await self._wait(deadline)
            span.set_attribute("received", received)
            span.set_attribute("ingested_clients", self._telemetry_clients)
            span.set_attribute("remote_spans", self._remote_spans)
            span.set_attribute("rejects", self._telemetry_rejects)

    def _reject_telemetry(self, client_id: int, detail: str) -> None:
        self._telemetry_rejects += 1
        get_metrics().counter("telemetry_rejects_total").inc()
        attributes: dict[str, Any] = {"client": client_id, "detail": detail}
        attributes.update(self._attribution(client_id))
        with get_tracer().span("telemetry.reject", attributes):
            pass

    def _ingest_telemetry(self, client_id: int, payload: bytes) -> None:
        """Fold one client's telemetry into the tracer and metrics registry.

        Remote spans are remapped into the server tracer's id space, clock-
        aligned with the client's HELLO-derived offset, re-parented under the
        attempt's ``serve.round`` span (roots) and stamped ``remote`` -- then
        exported through the normal fan-out, so the flight recorder captures
        the whole fleet.  Any defect rejects the payload without touching
        the round.
        """
        try:
            telemetry = decode_telemetry(payload)
        except ProtocolError as exc:
            self._reject_telemetry(client_id, str(exc))
            return
        if telemetry.client_id != client_id:
            self._reject_telemetry(
                client_id,
                f"telemetry claims client {telemetry.client_id}, sent by {client_id}",
            )
            return
        metrics = get_metrics()
        if telemetry.metrics and metrics.enabled:
            try:
                metrics.merge_snapshot(telemetry.metrics)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                self._reject_telemetry(client_id, f"unmergeable metrics: {exc}")
                return
        tracer = get_tracer()
        if tracer.enabled and telemetry.spans:
            offset = self._clock_offsets.get(client_id, 0.0)
            id_map = {
                span["span_id"]: tracer.next_span_id() for span in telemetry.spans
            }
            attribution = self._attribution(client_id)
            for span in telemetry.spans:
                local_parent = span.get("parent_id")
                if local_parent is None:
                    attempt = span.get("attributes", {}).get("attempt")
                    parent = self._attempt_spans.get(attempt, self._session_span_id)
                else:
                    parent = id_map.get(local_parent, self._session_span_id)
                attributes = dict(span.get("attributes", {}))
                attributes.update(attribution)
                attributes.update(
                    {"remote": True, "client": client_id, "trace_id": self.trace_id}
                )
                tracer.ingest(
                    SpanRecord(
                        name=str(span["name"]),
                        span_id=id_map[span["span_id"]],
                        parent_id=parent,
                        start_time_s=float(span["start_time_s"]) + offset,
                        duration_s=float(span["duration_s"]),
                        status=str(span.get("status", "ok")),
                        attributes=attributes,
                    )
                )
            self._remote_spans += len(telemetry.spans)
            if metrics.enabled:
                metrics.counter("serve_telemetry_spans_total").inc(len(telemetry.spans))
        self._telemetry_clients += 1
        if metrics.enabled:
            metrics.counter("serve_telemetry_clients_total").inc()

    # ------------------------------------------------------------------
    async def serve_round(self) -> ServeResult:
        """Run the full round state machine against the connected fleet."""
        cfg = self.config
        tracer = get_tracer()
        gen = ensure_rng(cfg.seed)
        n = cfg.n_clients
        if tracer.enabled:
            self._arrival_clock = tracer.wall_time
        with tracer.span(
            "serve.session",
            {
                "n_clients": n,
                "n_bits": cfg.n_bits,
                "epsilon": cfg.epsilon,
                "port": self.port,
                "trace_id": self.trace_id,
            },
        ) as session_span:
            self._session_span_id = getattr(session_span, "span_id", None)
            with tracer.span(
                "serve.registration",
                {"expected": n, "timeout_s": cfg.registration_timeout_s},
            ) as reg_span:
                try:
                    await asyncio.wait_for(
                        self._all_registered.wait(), cfg.registration_timeout_s
                    )
                except asyncio.TimeoutError:
                    pass
                registered = len(self._clients)
                reg_span.set_attribute("registered", registered)
            session_span.set_attribute("registered", registered)

            lifecycle = _lifecycle(cfg)
            while True:
                try:
                    outcome = lifecycle.finish(await self._run_attempt(gen, lifecycle))
                    break
                except RoundFailedError as exc:
                    if lifecycle.retry(exc):
                        continue
                    attempt = lifecycle.attempt
                    self._broadcast_control(
                        MSG_ABORT, {"reason": str(exc), "attempt": attempt}, attempt
                    )
                    # Best-effort: an aborted round's artifact still
                    # deserves the fleet's side of the story.
                    await self._drain_telemetry(attempt)
                    raise
            attempt = outcome.attempts
            estimate = _estimate(
                cfg,
                outcome,
                "federated-served",
                served=True,
                transport="tcp",
                port=self.port,
                wire_rejects=self._rejects,
                late_reports=self._late,
                telemetry=cfg.telemetry,
                trace_id=self.trace_id if cfg.telemetry else None,
            )
            self._broadcast_control(
                MSG_RESULT,
                {
                    "estimate": float(estimate.value),
                    "attempt": attempt,
                    "survivors": outcome.surviving_clients,
                },
                attempt,
            )
            await self._drain_telemetry(attempt)
            session_span.set_attribute("estimate", float(estimate.value))
            session_span.set_attribute("attempts", attempt)
            session_span.set_attribute("wire_rejects", self._rejects)
            session_span.set_attribute("telemetry_clients", self._telemetry_clients)
            session_span.set_attribute("remote_spans", self._remote_spans)
            return ServeResult(
                estimate=estimate,
                planned_clients=n,
                surviving_clients=outcome.surviving_clients,
                registered_clients=registered,
                attempts=attempt,
                degraded=outcome.degraded,
                backoff_s=outcome.backoff_s,
                wire_rejects=self._rejects,
                late_reports=self._late,
                duration_s=outcome.round_duration_s,
                port=self.port or 0,
                telemetry_clients=self._telemetry_clients,
                remote_spans=self._remote_spans,
            )

    async def _run_attempt(
        self, gen: np.random.Generator, lifecycle: RoundLifecycle
    ) -> RoundOutcome:
        """One attempt: assign, announce, collect, then the shared quorum and completion."""
        cfg = self.config
        tracer = get_tracer()
        n = cfg.n_clients
        attempt = lifecycle.attempt
        with tracer.span(
            "serve.round",
            {"round_index": 1, "planned_clients": n, "attempt": attempt},
        ) as round_span:
            round_span_id = getattr(round_span, "span_id", None)
            if round_span_id is not None:
                self._attempt_spans[attempt] = round_span_id
            lifecycle.metrics.counter("round_attempts_total").inc()
            with tracer.span("round.assign", {"n_bits": cfg.n_bits, "n_clients": n}):
                assignment = central_assignment(n, cfg.schedule, gen)
            with tracer.span(
                "serve.announce", {"clients": len(self._clients), "attempt": attempt}
            ):
                announce_wall = self._wall_now() if tracer.enabled else 0.0
                self._broadcast_announce(
                    assignment, attempt, parent_span_id=round_span_id or 0
                )
            accepted, duration, accept_log = await self._collect(attempt, assignment)
            self._record_uplink_timings(attempt, announce_wall, accept_log, round_span)
            return _complete(cfg, lifecycle, round_span, accepted, duration)


class _Session(asyncio.Protocol):
    """One client connection, driven by the event loop's callbacks.

    The first message must be a valid HELLO, which registers the client;
    every defect before that rejects the connection and closes it.  After
    registration each REPORTS or TELEMETRY message goes straight into the
    server's inbox and wakes the waiting collector -- no task, queue hop or
    drain per message.  A message-layer defect stops reading (the stream is
    desynchronized) but keeps the connection, so RESULT still reaches it.
    """

    def __init__(self, server: RoundServer, loop: asyncio.AbstractEventLoop) -> None:
        self.server = server
        self.framer = MessageFramer()
        self.transport: Any = None
        #: The wire id, set once a HELLO registers it.
        self.client_id: int | None = None
        self.session = 0
        self.peer = ""
        self.reading = True
        #: Resolved by ``connection_lost``; ``RoundServer.close`` awaits it.
        self.lost: asyncio.Future = loop.create_future()

    def connection_made(self, transport: Any) -> None:
        server = self.server
        self.transport = transport
        get_metrics().counter("serve_connections_total").inc()
        server._session_counter += 1
        self.session = server._session_counter
        peername = transport.get_extra_info("peername")
        self.peer = (
            f"{peername[0]}:{peername[1]}"
            if isinstance(peername, (tuple, list)) and len(peername) >= 2
            else str(peername)
        )
        server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.stop_reading()
        self.server._connections.discard(self)
        if not self.lost.done():  # cancelled if ``close`` was
            self.lost.set_result(None)

    def send(self, message: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(message)

    def stop_reading(self) -> None:
        """This client can never report again: tell the waiting collector."""
        if self.reading:
            self.reading = False
            if self.client_id is not None:
                self.server._gone.add(self.client_id)
                self.server._wake()

    def data_received(self, data: bytes) -> None:
        if not self.reading:
            return
        server = self.server
        for kind, seq, payload in self.framer.feed(data):
            client_id = self.client_id
            if client_id is None:
                if not self._register(kind, payload):
                    return
            elif kind == MSG_REPORTS:
                server._uplinks.append((client_id, seq, payload, server._arrival_clock()))
                server._wake()
            elif kind == MSG_TELEMETRY:
                server._telemetry.append((client_id, payload))
                server._wake()
            else:
                server._reject(client_id, "unexpected-kind", seq, f"kind {kind}")
        error = self.framer.error
        if error is None:
            return
        if self.client_id is None:
            self._refuse(None, "hello", str(error))
        else:
            # Garbage at the message layer desynchronizes the stream:
            # account it and stop reading.
            server._reject(self.client_id, "message", 0, str(error))
            self.transport.pause_reading()
            self.stop_reading()

    def _refuse(self, client_id: int | None, reason: str, detail: str = "") -> None:
        """Reject a connection before registration and close it."""
        self.server._reject(client_id, reason, 0, detail, peer=self.peer, session=self.session)
        self.stop_reading()
        self.transport.close()

    def _register(self, kind: int, payload: bytes) -> bool:
        """Admit one HELLO; returns whether the client registered."""
        server = self.server
        try:
            if kind != MSG_HELLO:
                raise ProtocolError(f"expected HELLO, got message kind {kind}")
            hello = json.loads(payload)
            client_id = int(hello["client_id"])
        except (ProtocolError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self._refuse(None, "hello", str(exc))
            return False
        if not 0 <= client_id < server.config.n_clients:
            self._refuse(client_id, "hello-id-range")
            return False
        if client_id in server._clients:
            self._refuse(client_id, "hello-duplicate")
            return False
        self.client_id = client_id
        server._clients[client_id] = self
        # Clock-skew anchor: the HELLO carries the client's wall clock;
        # paired with our receive time it aligns every remote span this
        # client later uplinks.  Only read the clock when someone will
        # consume the offset (a live tracer).
        tracer = get_tracer()
        if tracer.enabled:
            clock_s = hello.get("clock_s") if isinstance(hello, dict) else None
            if isinstance(clock_s, (int, float)) and not isinstance(clock_s, bool):
                server._clock_offsets[client_id] = tracer.wall_time() - float(clock_s)
        if len(server._clients) == server.config.n_clients:
            server._all_registered.set()
        return True


def _lifecycle(config: ServeConfig, **overrides: Any) -> RoundLifecycle:
    """The served round's shared attempt lifecycle (one basic round, no health hook)."""
    perturbation = (
        RandomizedResponse(epsilon=config.epsilon) if config.epsilon is not None else None
    )
    return RoundLifecycle(
        config.n_bits,
        perturbation,
        config.min_quorum,
        config.degraded_fraction,
        config.retry,
        **overrides,
    )


def _complete(
    config: ServeConfig,
    lifecycle: RoundLifecycle,
    round_span: Any,
    accepted: dict[int, tuple[int, int]],
    duration_s: float,
) -> RoundOutcome:
    """Quorum-check one attempt's accepted reports, then fold them into its outcome."""
    survived = len(accepted)
    lifecycle.check_quorum(round_span, config.n_clients, survived)
    with lifecycle.tracer.span(
        "serve.reconstruct", {"n_bits": config.n_bits, "reports": survived}
    ):
        indices = np.fromiter(
            (bi for bi, _bit in accepted.values()), dtype=np.int64, count=survived
        )
        bits = np.fromiter(
            (bit for _bi, bit in accepted.values()), dtype=np.float64, count=survived
        )
        counts = np.bincount(indices, minlength=config.n_bits).astype(np.int64)
        sums = np.bincount(indices, weights=bits, minlength=config.n_bits)
        return lifecycle.complete(
            round_span,
            config.schedule,
            sums,
            counts,
            config.n_clients,
            survived,
            duration_s,
            indices,
        )


def _estimate(
    config: ServeConfig, outcome: RoundOutcome, method: str, **transport: Any
) -> MeanEstimate:
    """A served round's estimate; ``transport`` adds the caller's own metadata keys."""
    return round_estimate(
        [outcome],
        config.encoder,
        outcome.summary.bit_means,
        outcome.summary.counts,
        config.n_clients,
        method,
        secure_aggregation=False,
        elicitation="single",
        ldp=config.epsilon is not None,
        **transport,
    )


# ----------------------------------------------------------------------
def in_process_estimate(
    values: Sequence[float],
    config: ServeConfig,
    profile: EmulationProfile | None = None,
    fleet_seed: int = 0,
    corrupted: Iterable[int] = (),
) -> MeanEstimate:
    """The served round's deterministic in-process twin.

    Replays exactly what :class:`RoundServer` + :class:`ClientFleet` compute
    for the same ``config``/``values``/``profile``/``fleet_seed``, without
    any sockets: the server generator draws one bit assignment per attempt,
    each client's spawned generator draws randomized response (if ``epsilon``)
    then the emulation profile's loss/latency, and the surviving reports fold
    through the server's own :class:`RoundLifecycle`.  ``corrupted`` names
    clients whose uplinks the server always rejects (the fuzzing twin: their
    client-side draws still advance, their reports never land).

    With no profile, no corruption, and no ``epsilon``, the result is also
    bit-identical to ``FederatedMeanQuery(encoder, mode="basic",
    schedule=config.schedule).run(population, rng=config.seed)`` over
    single-valued clients -- the acceptance-criterion equivalence.

    Raises :class:`RoundFailedError` when every attempt falls below quorum,
    exactly as the server does.  The replay records no spans or metrics.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size != config.n_clients:
        raise ConfigurationError(
            f"{vals.size} values for a {config.n_clients}-client round"
        )
    gen = ensure_rng(config.seed)
    client_gens = ClientFleet(vals, seed=fleet_seed).spawn_generators()
    lifecycle = _lifecycle(config, tracer=NULL_TRACER, metrics=NULL_METRICS)
    rr = lifecycle.perturbation
    encoded = config.encoder.encode(vals)
    excluded = frozenset(int(c) for c in corrupted)
    while True:
        assignment = central_assignment(config.n_clients, config.schedule, gen)
        accepted: dict[int, tuple[int, int]] = {}
        for i, client_gen in enumerate(client_gens):
            bit_index = int(assignment[i])
            bit = int((encoded[i] >> np.uint64(bit_index)) & np.uint64(1))
            if rr is not None:
                bit = int(rr.perturb_bits(np.asarray([bit], dtype=np.uint8), client_gen)[0])
            delivered = profile is None or profile.draw(client_gen)[0]
            if delivered and i not in excluded:
                accepted[i] = (bit_index, bit)
        try:
            outcome = lifecycle.finish(_complete(config, lifecycle, NullSpan(), accepted, 0.0))
        except RoundFailedError as exc:
            if lifecycle.retry(exc):
                continue
            raise
        return _estimate(config, outcome, "federated-served-twin", served=False)


# ----------------------------------------------------------------------
async def _loopback(
    config: ServeConfig,
    values: Sequence[float],
    profile: EmulationProfile | None,
    fleet_seed: int,
    mutate,
    clock_factory=None,
) -> tuple[ServeResult, FleetResult]:
    server = RoundServer(config)
    port = await server.start()
    fleet = ClientFleet(
        values,
        seed=fleet_seed,
        profile=profile,
        mutate=mutate,
        clock_factory=clock_factory,
    )
    fleet_task = asyncio.create_task(fleet.run(config.host, port))
    try:
        serve_result = await server.serve_round()
    except BaseException:
        fleet_task.cancel()
        try:
            await fleet_task
        except (asyncio.CancelledError, Exception):
            pass
        await server.close()
        raise
    fleet_result = await fleet_task
    await server.close()
    return serve_result, fleet_result


def run_loopback(
    config: ServeConfig,
    values: Sequence[float],
    profile: EmulationProfile | None = None,
    fleet_seed: int = 0,
    mutate=None,
    clock_factory=None,
) -> tuple[ServeResult, FleetResult]:
    """Run server + fleet in one event loop on the loopback interface.

    The workhorse for tests, the demo script, and the served-throughput
    benchmarks: every report still crosses a real TCP socket and the full
    wire protocol, but setup/teardown is a single call.  ``clock_factory``
    is forwarded to the fleet (deterministic client-side telemetry clocks).
    """
    return asyncio.run(
        _loopback(config, values, profile, fleet_seed, mutate, clock_factory)
    )
