"""Simulated client fleet: devices speaking the wire protocol over TCP.

Each device is one :class:`asyncio.Protocol` driven by the event loop's
callbacks.  It connects to a :class:`~repro.federated.serve.RoundServer`,
registers with a HELLO message, and then answers every cohort announcement the
way a real device would: take its fixed-point encoded value, extract the
assigned bit, optionally pass it through client-side randomized response, frame
it with :func:`~repro.federated.wire.encode_report`, and uplink it as one
REPORTS message.  The fleet encodes the whole population once per distinct
announcement, vectorized, and shares one randomized-response mechanism; only
the draws are per device.  A pluggable :class:`EmulationProfile` reuses
:class:`~repro.federated.network.NetworkModel`'s loss/latency distributions
per-connection, so the served path exercises the same failure statistics the
in-process simulator does -- a lost uplink is simply never sent, and latency
optionally maps to a real ``call_later`` delay via ``time_scale`` (messages
arriving meanwhile wait until the delayed uplink is out).  One fleet watchdog
enforces every device's read deadline.

Determinism: each client owns an independent generator spawned from the fleet
seed (``SeedSequence(seed).spawn(n)``), and per announcement draws in a fixed
order -- randomized response first, then the network emulation.  The fleet is
only the client half of a round: quorum, retry and reconstruction run in the
server's :class:`~repro.federated.server.RoundLifecycle`, which
:func:`repro.federated.serve.in_process_estimate` drives too while replaying
these per-client streams, so the twin and the served round stay bit-identical.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.encoding import FixedPointEncoder
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated.client import BitReport
from repro.federated.network import NetworkModel
from repro.federated.wire import (
    MESSAGE_HEADER_SIZE,
    MSG_ABORT,
    MSG_ANNOUNCE,
    MSG_HELLO,
    MSG_REPORTS,
    MSG_RESULT,
    MSG_TELEMETRY,
    MessageFramer,
    decode_announce,
    decode_message_header,
    encode_message,
    encode_report,
    encode_telemetry,
)
from repro.observability import get_tracer
from repro.observability.exporters import InMemoryExporter
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.privacy.randomized_response import RandomizedResponse

__all__ = [
    "EmulationProfile",
    "ClientFleet",
    "FleetResult",
    "fleet_values",
    "read_message",
]


def fleet_values(n_clients: int, seed: int = 0) -> np.ndarray:
    """The CLI fleet's deterministic value population (one value per client).

    Same distribution as the trace CLI's population (clipped
    ``Normal(600, 100)``), derived from ``seed`` alone -- so an in-process
    twin (e.g. the serve smoke check) can regenerate exactly what a
    ``repro.cli fleet --seed <seed>`` run reported on.
    """
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients}")
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(600.0, 100.0, n_clients), 0.0, None)

#: Mutator hook: ``(client_id, attempt, frame) -> frame | None``.  Returning
#: ``None`` drops the uplink (the device goes silent); returning different
#: bytes ships them verbatim -- the adversarial/fuzzing entry point.
FrameMutator = Callable[[int, int, bytes], Optional[bytes]]


async def read_message(reader: asyncio.StreamReader) -> tuple[int, int, bytes]:
    """Read one length-prefixed control message off a stream.

    The stream-side counterpart of :class:`~repro.federated.wire.MessageFramer`
    for hand-written clients (the raw-socket clients in the tests); the
    fleet and the server parse with the framer.  Returns ``(kind, seq,
    payload)``.  Raises :class:`~repro.exceptions.ProtocolError` on a
    malformed header (the caller decides whether that kills the connection)
    and lets ``asyncio.IncompleteReadError`` propagate on EOF.
    """
    header = await reader.readexactly(MESSAGE_HEADER_SIZE)
    kind, seq, length = decode_message_header(header)
    payload = await reader.readexactly(length) if length else b""
    return kind, seq, payload


@dataclass(frozen=True)
class EmulationProfile:
    """Per-connection network emulation reusing :class:`NetworkModel`'s draws.

    Parameters
    ----------
    loss_rate:
        Probability an uplink is silently dropped (never sent).
    latency_median_s, latency_sigma:
        Lognormal latency distribution, in *simulated* seconds (the same
        parameterization as :class:`NetworkModel`).
    time_scale:
        Real seconds slept per simulated latency second (``0.0``, the
        default, never sleeps -- loss statistics without wall-clock cost;
        ``0.001`` makes a 90 s median latency a 90 ms real delay).

    Parse a CLI spec with :meth:`parse`::

        EmulationProfile.parse("loss=0.2,latency=45,sigma=0.6,scale=0.001")
    """

    loss_rate: float = 0.0
    latency_median_s: float = 90.0
    latency_sigma: float = 0.6
    time_scale: float = 0.0

    def __post_init__(self) -> None:
        # NetworkModel validates loss/latency/sigma; do it eagerly.
        self.network  # noqa: B018 -- validation side effect
        if self.time_scale < 0:
            raise ConfigurationError(f"time_scale must be >= 0, got {self.time_scale}")

    @property
    def network(self) -> NetworkModel:
        """The equivalent :class:`NetworkModel` (no deadline: the server owns it)."""
        return NetworkModel(
            loss_rate=self.loss_rate,
            latency_median_s=self.latency_median_s,
            latency_sigma=self.latency_sigma,
        )

    @classmethod
    def parse(cls, spec: str) -> "EmulationProfile":
        """Build a profile from a compact ``key=value`` CLI spec.

        Keys: ``loss`` (loss_rate), ``latency`` (median seconds), ``sigma``
        (lognormal shape), ``scale`` (time_scale).  Unknown keys raise
        :class:`ConfigurationError`.
        """
        mapping = {
            "loss": "loss_rate",
            "latency": "latency_median_s",
            "sigma": "latency_sigma",
            "scale": "time_scale",
        }
        kwargs: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or key.strip() not in mapping:
                raise ConfigurationError(
                    f"bad emulation spec element {part!r}; expected "
                    f"one of {sorted(mapping)} as key=value"
                )
            try:
                kwargs[mapping[key.strip()]] = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"bad emulation value in {part!r}: not a number"
                ) from None
        return cls(**kwargs)

    def draw(self, rng: np.random.Generator) -> tuple[bool, float]:
        """Draw one uplink's fate: ``(delivered, latency_s)``.

        Consumes the generator exactly as ``NetworkModel.transmit(1, rng)``
        does (one lognormal draw, one uniform draw), so the in-process twin
        can replay the stream.
        """
        outcome = self.network.transmit(1, rng)
        return bool(outcome.delivered[0]), float(outcome.latencies_s[0])


@dataclass(frozen=True)
class FleetResult:
    """What the fleet saw: per-client outcomes of one served round."""

    n_clients: int
    uplinks_sent: int
    uplinks_dropped: int
    results: dict[int, float] = field(default_factory=dict)
    aborted: bool = False
    telemetry_sent: int = 0

    @property
    def estimate(self) -> float | None:
        """The server's announced estimate (``None`` if the round aborted)."""
        if not self.results:
            return None
        return next(iter(self.results.values()))


class ClientFleet:
    """A population of simulated devices served over real sockets.

    Parameters
    ----------
    values:
        One local value per client (client ``i`` reports on ``values[i]``).
    seed:
        Fleet seed; client ``i`` draws from the ``i``-th spawned child
        stream.
    profile:
        Optional :class:`EmulationProfile` applied per uplink.
    client_ids:
        Wire identities (default ``0..n-1``).
    mutate:
        Optional :data:`FrameMutator` applied to each encoded frame before
        emulation -- the hook adversarial and fuzzing tests use.
    read_timeout_s:
        How long a device waits for the server's next message before it
        hangs up, guarding tests against a hung server.  One fleet-wide
        watchdog checks every device's deadline about once a second.
    telemetry:
        When ``True`` (the default) each client records ``fleet.round`` /
        ``fleet.encode`` / ``fleet.uplink`` spans into a private tracer and,
        if the server's ANNOUNCE carried trace context, ships them (plus a
        per-client metrics snapshot) back in one TELEMETRY message after
        RESULT/ABORT.  Disable to emulate a pre-tracing fleet.
    clock_factory:
        Optional zero-argument callable returning a clock for each client's
        private tracer (both span and wall clock).  Pass
        ``lambda: SimClock(...)`` to make client-side telemetry timestamps
        deterministic; the default is real time.
    """

    def __init__(
        self,
        values: Sequence[float],
        seed: int = 0,
        profile: EmulationProfile | None = None,
        client_ids: Sequence[int] | None = None,
        mutate: FrameMutator | None = None,
        read_timeout_s: float = 60.0,
        telemetry: bool = True,
        clock_factory: Callable[[], Any] | None = None,
    ) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ConfigurationError("fleet needs a non-empty 1-D value array")
        n = int(self.values.size)
        self.client_ids = (
            list(range(n)) if client_ids is None else [int(c) for c in client_ids]
        )
        if len(self.client_ids) != n:
            raise ConfigurationError(
                f"{len(self.client_ids)} client ids for {n} values"
            )
        self.seed = int(seed)
        self.profile = profile
        self.mutate = mutate
        self.read_timeout_s = float(read_timeout_s)
        self.telemetry = bool(telemetry)
        self.clock_factory = clock_factory
        #: Announce parameters -> (encoded values, RR mechanism); see ``_plan``.
        self._plans: dict[tuple, tuple[list[int], RandomizedResponse | None]] = {}

    def spawn_generators(self) -> list[np.random.Generator]:
        """One independent child generator per client (replayable by the twin)."""
        return [
            np.random.default_rng(s)
            for s in np.random.SeedSequence(self.seed).spawn(len(self.client_ids))
        ]

    def _plan(self, announce: dict[str, Any]) -> tuple[list[int], RandomizedResponse | None]:
        """Every client's encoded value and the RR mechanism for one announcement.

        Built once per distinct parameter set and shared by every device:
        the whole population encodes in one vectorized call.
        """
        epsilon = announce.get("epsilon")
        key = (
            int(announce["n_bits"]),
            float(announce["scale"]),
            float(announce["offset"]),
            None if epsilon is None else float(epsilon),
        )
        plan = self._plans.get(key)
        if plan is None:
            n_bits, scale, offset, epsilon = key
            encoder = FixedPointEncoder(n_bits=n_bits, scale=scale, offset=offset)
            rr = None if epsilon is None else RandomizedResponse(epsilon=epsilon)
            plan = self._plans[key] = (encoder.encode(self.values).tolist(), rr)
        return plan

    async def run(self, host: str, port: int) -> FleetResult:
        """Connect every client and play rounds until RESULT/ABORT/EOF."""
        loop = asyncio.get_running_loop()
        finished = loop.create_future()
        remaining = len(self.client_ids)

        def device_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and not finished.done():  # done if ``run`` was cancelled
                finished.set_result(None)

        devices = [
            _Device(self, loop, index, client_id, gen, device_done)
            for index, (client_id, gen) in enumerate(
                zip(self.client_ids, self.spawn_generators())
            )
        ]
        watchdog = _Watchdog(loop, devices, min(self.read_timeout_s, 1.0))
        with get_tracer().span(
            "fleet.session", {"clients": len(self.client_ids), "host": host, "port": port}
        ):
            try:
                await asyncio.gather(
                    *(
                        loop.create_connection(lambda device=device: device, host, port)
                        for device in devices
                    )
                )
                await finished
            except BaseException:
                for device in devices:
                    if device.transport is not None:
                        device.transport.abort()
                raise
            finally:
                watchdog.handle.cancel()
        for device in devices:
            if device.error is not None:
                raise device.error
        return FleetResult(
            n_clients=len(devices),
            uplinks_sent=sum(device.sent for device in devices),
            uplinks_dropped=sum(device.dropped for device in devices),
            results={
                device.client_id: device.estimate
                for device in devices
                if device.estimate is not None
            },
            aborted=any(device.aborted for device in devices),
            telemetry_sent=sum(device.telemetry_shipped for device in devices),
        )


class _Watchdog:
    """Enforces every device's read deadline with one periodic timer.

    No timer per message, and a hung server still cannot hold the fleet
    forever.  Cancelling ``handle`` ends it.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, devices: list[_Device], interval: float
    ) -> None:
        self.loop = loop
        self.devices = devices
        self.interval = interval
        self.handle = loop.call_later(interval, self._check)

    def _check(self) -> None:
        now = self.loop.time()
        for device in self.devices:
            if device.deadline is not None and now >= device.deadline:
                device.finish()
        self.handle = self.loop.call_later(self.interval, self._check)


class _Device(asyncio.Protocol):
    """One device's life, driven by the event loop's callbacks.

    HELLO on connect, then answer every ANNOUNCE until RESULT, ABORT, EOF,
    a malformed message or the read deadline; after RESULT/ABORT ship the
    recorded spans in one TELEMETRY message and hang up.  An emulated
    latency delays the uplink with one ``call_later``; messages arriving
    meanwhile wait their turn, exactly as a device busy sending would
    leave them unread.
    """

    def __init__(
        self,
        fleet: ClientFleet,
        loop: asyncio.AbstractEventLoop,
        index: int,
        client_id: int,
        gen: np.random.Generator,
        on_done: Callable[[], None],
    ) -> None:
        self.fleet = fleet
        self.loop = loop
        self.index = index
        self.client_id = client_id
        self.gen = gen
        self.on_done = on_done
        self.framer = MessageFramer()
        self.transport: Any = None
        #: Loop time by which the next message must arrive (``None`` while
        #: not waiting on the server); the fleet watchdog enforces it.
        self.deadline: float | None = None
        self.sent = self.dropped = 0
        self.estimate: float | None = None
        self.aborted = False
        self.telemetry_shipped = False
        self.error: BaseException | None = None
        self.done = False
        self.saw_trace = False
        self.last_seq = 0
        #: Messages received while an emulated uplink delay is pending.
        self.held: list | None = None
        self.pending: asyncio.TimerHandle | None = None
        # Telemetry lives on a *private* per-client tracer, never the
        # process-wide one: a device's spans leave the device only through
        # the TELEMETRY message, exactly as they would across real machines.
        self.exporter: InMemoryExporter | None = None
        self.tracer: Any = NULL_TRACER
        if fleet.telemetry:
            self.exporter = InMemoryExporter()
            clock = fleet.clock_factory() if fleet.clock_factory is not None else None
            self.tracer = Tracer([self.exporter], clock=clock, wall_clock=clock)
        self.registry = MetricsRegistry()

    # -- protocol callbacks --------------------------------------------
    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        clock_s = self.tracer.wall_time() if self.fleet.telemetry else time.time()
        transport.write(
            encode_message(
                MSG_HELLO,
                json.dumps({"client_id": self.client_id, "clock_s": clock_s}).encode(),
            )
        )
        self.deadline = self.loop.time() + self.fleet.read_timeout_s

    def data_received(self, data: bytes) -> None:
        if self.done:
            return
        messages: list = self.framer.feed(data)
        if self.framer.error is not None:
            messages.append(None)  # the stream broke after these
        if not messages:
            return
        if self.held is not None:
            self.held.extend(messages)
            return
        self.deadline = self.loop.time() + self.fleet.read_timeout_s
        self._handle(messages)

    def connection_lost(self, exc: Exception | None) -> None:
        if self.pending is not None:
            self.pending.cancel()
            self.pending = None
        self.done = True
        self.deadline = None
        self.transport = None
        self.on_done()

    # -- the device's state machine ------------------------------------
    def _handle(self, messages: list) -> None:
        try:
            for position, message in enumerate(messages):
                if self.done:
                    return
                if message is None:
                    self.finish()
                    return
                kind, seq, payload = message
                self.last_seq = seq
                if kind == MSG_RESULT:
                    self.estimate = float(json.loads(payload)["estimate"])
                    self.finish()
                elif kind == MSG_ABORT:
                    self.aborted = True
                    self.finish()
                elif kind == MSG_ANNOUNCE:
                    try:
                        announce, context = decode_announce(payload)
                    except ProtocolError:
                        self.finish()
                        return
                    if self._answer(seq, announce, context):
                        self.held = messages[position + 1 :]
                        return
        except Exception as exc:  # surfaces from ClientFleet.run, as a crash would
            self.error = exc
            self.transport.abort()

    def _answer(self, seq: int, announce: dict[str, Any], context: Any) -> bool:
        """Answer one ANNOUNCE; returns whether an emulated delay holds the uplink."""
        fleet = self.fleet
        tracer = self.tracer
        client_id = self.client_id
        bit_index = int(announce["bit_index"])
        round_attrs: dict[str, Any] = {"client": client_id, "attempt": seq, "bit_index": bit_index}
        if context is not None:
            self.saw_trace = True
            round_attrs["trace_id"] = context.trace_id
        # Left open across an emulated delay; ``_settle`` closes it.
        round_span = tracer.span("fleet.round", round_attrs).__enter__()
        with tracer.span("fleet.encode", {"n_bits": int(announce["n_bits"]), "client": client_id}):
            encoded, rr = fleet._plan(announce)
            bit = (encoded[self.index] >> bit_index) & 1
            if rr is not None and self.gen.random() >= rr.p:
                bit ^= 1  # the one draw RandomizedResponse.perturb_bits makes per bit
            frame = encode_report(
                BitReport(client_id=client_id, bit_index=bit_index, bit=bit),
                randomized_response=rr is not None,
            )
        if fleet.mutate is not None:
            frame = fleet.mutate(client_id, seq, frame)  # ``None`` drops the uplink
        if frame is not None and fleet.profile is not None:
            delivered, latency_s = fleet.profile.draw(self.gen)
            if not delivered:
                frame = None
            if fleet.profile.time_scale > 0:
                self.deadline = None
                self.pending = self.loop.call_later(
                    latency_s * fleet.profile.time_scale, self._release, round_span, seq, frame
                )
                return True
        self._settle(round_span, seq, frame)
        return False

    def _release(self, round_span: Any, seq: int, frame: bytes | None) -> None:
        """The emulated delay is over: settle the uplink, then catch up."""
        self.pending = None
        self._settle(round_span, seq, frame)
        held, self.held = self.held, None
        self.deadline = self.loop.time() + self.fleet.read_timeout_s
        self._handle(held)

    def _settle(self, round_span: Any, seq: int, frame: bytes | None) -> None:
        """Send ``frame`` (``None``: the uplink is lost), then close the round span."""
        if frame is None:
            self.dropped += 1
            round_span.set_attribute("dropped", True)
            self.registry.counter("fleet_uplinks_dropped_total").inc()
        else:
            with self.tracer.span(
                "fleet.uplink", {"client": self.client_id, "attempt": seq, "bytes": len(frame)}
            ):
                self.transport.write(encode_message(MSG_REPORTS, frame, seq=seq))
            self.sent += 1
            self.registry.counter("fleet_uplinks_sent_total").inc()
        round_span.__exit__(None, None, None)

    def finish(self) -> None:
        """Stop answering; after RESULT/ABORT ship telemetry, then hang up."""
        self.done = True
        self.deadline = None
        transport = self.transport
        # Telemetry is best-effort and strictly after the round outcome:
        # it must never delay an uplink or keep a dead round's socket open.
        if (
            self.exporter is not None
            and self.saw_trace
            and (self.estimate is not None or self.aborted)
            and not transport.is_closing()
        ):
            spans = [record.to_dict() for record in self.exporter.records]
            try:
                transport.write(
                    encode_message(
                        MSG_TELEMETRY,
                        encode_telemetry(self.client_id, spans, self.registry.snapshot()),
                        seq=self.last_seq,
                    )
                )
                self.telemetry_shipped = True
            except ProtocolError:
                pass
        transport.close()
