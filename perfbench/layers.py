"""Per-layer pass: timed public calls into each module, plus the program's spans.

The pass runs with the program's own tracer and metrics registry installed
through :func:`repro.observability.instrumented`.  The benchmark opens a
``bench.*`` span around every public call it times and around every round
it issues; everything else in the span stream (``federated.*``, ``round.*``,
``client_plane.*``, ``shard.*``, ``serve.*``, ``uplink.*``, ``fleet.*``) is
what the program already emits.  Spans stay in memory and are written out
when the pass ends.

Every traced run measures every layer of every path, so the per-layer
table is complete whichever workload is named; the named workload decides
``trace.overhead_frac`` and ``trace.uncovered_frac`` and which in-process
path the round-engine metrics (``server.*``) come from.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core import FixedPointEncoder
from repro.core.client_plane import collect_client_reports, elicit_values
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.federated import (
    ClientBatch,
    CohortSelector,
    DropoutModel,
    TraceContext,
    decode_announce,
    decode_batch_array,
    decode_telemetry,
    encode_announce,
    encode_batch,
    encode_telemetry,
    round_trace_id,
)
from repro.federated.client import BitReport
from repro.federated.secure_agg import (
    PrimeField,
    default_threshold,
    expand_masks,
    hierarchical_secure_sum,
    philox4x64,
    reconstruct_secrets,
    split_secrets,
)
from repro.federated.wire import MSG_REPORTS, encode_message
from repro.observability import (
    InMemoryExporter,
    MetricsRegistry,
    SpanRecord,
    Tracer,
    instrumented,
    write_chrome_trace,
)
from repro.privacy.randomized_response import RandomizedResponse
from perfbench.stats import median, self_time
from perfbench.workloads import (
    EPSILON,
    INPROC,
    INPROC_DROPOUT,
    N_BITS,
    SECURE,
    SECURE_DROPOUT,
    SERVED,
    SHARD_SIZE,
    InprocAdaptive,
    Round,
    SecureSharded,
    Served,
    Workload,
    derive_seed,
    population_values,
)

#: Per-layer metric name -> (unit, better), in report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "sampling.assign_ns_per_client": ("ns", "lower"),
    "cohort.select_ms": ("ms", "lower"),
    "dropout.draw_ns_per_client": ("ns", "lower"),
    "randomized_response.perturb_ns_per_bit": ("ns", "lower"),
    "randomized_response.scalar_us": ("us", "lower"),
    "client_plane.elicit_ns_per_client": ("ns", "lower"),
    "client_plane.collect_ns_per_client": ("ns", "lower"),
    "client_plane.peak_bytes_per_client": ("B", "lower"),
    "server.round_self_ms": ("ms", "lower"),
    "server.query_self_ms": ("ms", "lower"),
    "server.delivered_frac": ("fraction", "higher"),
    "secure_agg.hierarchy_s": ("s", "lower"),
    "secure_agg.mask_ns_per_element": ("ns", "lower"),
    "secure_agg.philox_ns_per_block": ("ns", "lower"),
    "secure_agg.field_mul_ns_per_element": ("ns", "lower"),
    "secure_agg.shamir_split_us_per_client": ("us", "lower"),
    "secure_agg.shamir_reconstruct_us_per_client": ("us", "lower"),
    "secure_agg.shard_session_ms_p50": ("ms", "lower"),
    "secure_agg.shards_failed": ("count", "lower"),
    "secure_agg.dropouts_recovered": ("count", "lower"),
    "serve.start_ms": ("ms", "lower"),
    "serve.close_ms": ("ms", "lower"),
    "serve.round_s": ("s", "lower"),
    "serve.collect_s": ("s", "lower"),
    "serve.outside_collect_s": ("s", "lower"),
    "serve.registration_s": ("s", "lower"),
    "serve.announce_ms": ("ms", "lower"),
    "serve.reconstruct_ms": ("ms", "lower"),
    "serve.telemetry_s": ("s", "lower"),
    "serve.uplink_drain_ms": ("ms", "lower"),
    "serve.uplink_median_ms": ("ms", "lower"),
    "serve.uplink_slow_decile_ms": ("ms", "lower"),
    "serve.accepted_frac": ("fraction", "higher"),
    "serve.wire_rejects": ("count", "lower"),
    "serve.late_reports": ("count", "lower"),
    "serve.telemetry_frac": ("fraction", "higher"),
    "serve.remote_spans_per_client": ("count", "higher"),
    "serve.telemetry_cost_frac": ("fraction", "lower"),
    "fleet.run_s": ("s", "lower"),
    "fleet.encode_us_p50": ("us", "lower"),
    "fleet.uplink_us_p50": ("us", "lower"),
    "wire.report_encode_us": ("us", "lower"),
    "wire.frame_decode_ns": ("ns", "lower"),
    "wire.announce_codec_us": ("us", "lower"),
    "wire.telemetry_codec_us": ("us", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.uncovered_frac": ("fraction", "lower"),
}

#: Traced rounds per path.  The named workload also issues as many
#: untraced rounds, interleaved, for ``trace.overhead_frac``; the served
#: path always does (they pair with its telemetry-off rounds).
TRACED_ROUNDS = {INPROC: 6, SECURE: 3, SERVED: 4}
#: Calls per timed kernel (median reported).
KERNEL_REPEATS = 5
#: Calls averaged inside one sample for the per-report (scalar) kernels.
SCALAR_CALLS = 1000
HIERARCHY_REPEATS = 2
LAYER_STREAM = 3

#: Spans that make up a served round, per the round's state machine.
SERVED_LAYERS = (
    "serve.registration",
    "serve.announce",
    "serve.collect",
    "serve.reconstruct",
    "serve.telemetry",
)


class LayerPass:
    """Collects per-layer samples, per-path breakdowns and round checks."""

    def __init__(self, workload: str, seed: int, sizes: dict[str, int]) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.exporter = InMemoryExporter()
        self.tracer = Tracer([self.exporter])
        self.registry = MetricsRegistry()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.breakdown: dict[str, dict[str, list[float]]] = {}
        self.coverage: dict[str, list[float]] = defaultdict(list)
        self.overhead: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rng = np.random.default_rng(derive_seed(seed, LAYER_STREAM))

    # -- helpers --------------------------------------------------------
    def record(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def timed(self, name: str, fn: Callable, *args: Any) -> tuple[Any, float]:
        """Call ``fn(*args)`` inside a ``bench.<name>`` span; return (result, seconds)."""
        with instrumented(self.tracer, self.registry):
            with self.tracer.span(f"bench.{name}"):
                start = time.perf_counter()
                out = fn(*args)
                elapsed = time.perf_counter() - start
        return out, elapsed

    def verify(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def issue(
        self, workload: Workload, path: str, traced: bool, index: int, **kwargs: Any
    ) -> tuple[Round | None, float, int | None]:
        """Issue and check one round; returns (round, wall seconds, bench span id)."""
        seed = derive_seed(self.seed, LAYER_STREAM, index)
        span_id = None
        start = time.perf_counter()
        try:
            if traced:
                with instrumented(self.tracer, self.registry):
                    with self.tracer.span("bench.round", {"path": path, "seed": seed}) as span:
                        rnd = workload.run_round(seed, **kwargs)
                    span_id = span.span_id
            else:
                rnd = workload.run_round(seed, **kwargs)
        except Exception as exc:  # a failed round is counted, not fatal
            self.verify(f"{path} round {index} raised {exc!r}", False)
            return None, time.perf_counter() - start, None
        wall = time.perf_counter() - start
        problems = workload.check(rnd)
        self.verify(f"{path} round {index}: {'; '.join(problems)}", not problems)
        return rnd, wall, span_id

    # -- kernels ----------------------------------------------------------
    def client_plane_kernels(self) -> None:
        n = self.sizes[INPROC]
        rng = self.rng
        batch = ClientBatch.from_values(population_values(self.seed, n))
        schedule = BitSamplingSchedule.weighted(N_BITS, alpha=1.0)
        rr = RandomizedResponse(epsilon=EPSILON)
        encoder = FixedPointEncoder.for_integers(N_BITS)
        selector = CohortSelector(min_cohort_size=1)
        dropout = DropoutModel(rate=INPROC_DROPOUT)
        for _ in range(KERNEL_REPEATS):
            assignment, t = self.timed("sampling.assign", central_assignment, n, schedule, rng)
            self.record("sampling.assign_ns_per_client", t / n * 1e9)
            _, t = self.timed("cohort.select", selector.select_indices, batch, None, None, rng)
            self.record("cohort.select_ms", t * 1e3)
            _, t = self.timed("dropout.draw", dropout.draw_survivors, n, rng)
            self.record("dropout.draw_ns_per_client", t / n * 1e9)
            values, t = self.timed("client_plane.elicit", elicit_values, batch, "sample", rng)
            self.record("client_plane.elicit_ns_per_client", t / n * 1e9)
            bits = ((encoder.encode(values) >> assignment.astype(np.uint64)) & np.uint64(1)).astype(
                np.uint8
            )
            _, t = self.timed("randomized_response.perturb", rr.perturb_bits, bits, rng)
            self.record("randomized_response.perturb_ns_per_bit", t / n * 1e9)
            _, t = self.timed(
                "client_plane.collect",
                collect_client_reports,
                values,
                encoder,
                assignment,
                rr,
                rng,
            )
            self.record("client_plane.collect_ns_per_client", t / n * 1e9)

            def scalar_calls():
                for bit in bits[:SCALAR_CALLS]:
                    rr.perturb_bits(np.asarray([bit], dtype=np.uint8), rng)

            _, t = self.timed("randomized_response.scalar", scalar_calls)
            self.record("randomized_response.scalar_us", t / min(SCALAR_CALLS, n) * 1e6)

    def secure_kernels(self) -> None:
        field = PrimeField()
        rng = self.rng
        length = 2 * N_BITS
        threshold = default_threshold(SHARD_SIZE)
        pairs = SHARD_SIZE * (SHARD_SIZE - 1) // 2
        blocks = -(-length // 4)
        for _ in range(KERNEL_REPEATS):
            seeds = rng.integers(0, field.modulus, pairs, dtype=np.uint64)
            _, t = self.timed("secure_agg.expand_masks", expand_masks, seeds, length, field)
            self.record("secure_agg.mask_ns_per_element", t / (pairs * length) * 1e9)
            counters = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
            _, t = self.timed("secure_agg.philox", philox4x64, seeds[:, None], counters)
            self.record("secure_agg.philox_ns_per_block", t / (pairs * blocks) * 1e9)
            a = rng.integers(0, field.modulus, 1 << 16, dtype=np.uint64)
            b = rng.integers(0, field.modulus, 1 << 16, dtype=np.uint64)
            _, t = self.timed("secure_agg.field_mul", field.mul_arrays, a, b)
            self.record("secure_agg.field_mul_ns_per_element", t / a.size * 1e9)
            secrets = rng.integers(0, field.modulus, SHARD_SIZE, dtype=np.uint64)
            shares, t = self.timed(
                "secure_agg.shamir_split", split_secrets, secrets, SHARD_SIZE, threshold, field, rng
            )
            self.record("secure_agg.shamir_split_us_per_client", t / SHARD_SIZE * 1e6)
            holders = list(range(1, threshold + 1))
            recovered, t = self.timed(
                "secure_agg.shamir_reconstruct",
                reconstruct_secrets,
                holders,
                shares[:, :threshold],
                field,
            )
            self.record("secure_agg.shamir_reconstruct_us_per_client", t / SHARD_SIZE * 1e6)
            self.verify(
                "Shamir reconstruction returned other secrets", np.array_equal(recovered, secrets)
            )

        # The secure round's shard tree on its own matrix shape and survivor mask.
        n = self.sizes[SECURE]
        encoder = FixedPointEncoder.for_integers(N_BITS)
        encoded = encoder.encode(population_values(self.seed, n))
        assignment = central_assignment(n, BitSamplingSchedule.weighted(N_BITS, alpha=1.0), rng)
        alive = DropoutModel(rate=SECURE_DROPOUT).draw_survivors(n, rng)
        rows = np.arange(n)
        vectors = np.zeros((n, length), dtype=np.int64)
        vectors[rows, assignment] = 1
        bits = (encoded >> assignment.astype(np.uint64)) & np.uint64(1)
        vectors[rows, N_BITS + assignment] = bits
        for repeat in range(HIERARCHY_REPEATS):
            result, t = self.timed(
                "secure_agg.hierarchy",
                hierarchical_secure_sum,
                vectors,
                alive,
                SHARD_SIZE,
                None,
                derive_seed(self.seed, LAYER_STREAM, 1000 + repeat),
            )
            self.record("secure_agg.hierarchy_s", t)
            self.record("secure_agg.shards_failed", len(result.failed_shards))
            self.record(
                "secure_agg.dropouts_recovered",
                sum(s.dropouts for s in result.shards if s.recovered),
            )
            self.verify(
                "hierarchical secure sum differs from the plaintext sum",
                np.array_equal(result.total, vectors[result.included].sum(axis=0)),
            )

    def wire_kernels(self) -> None:
        n = self.sizes[SERVED]
        rng = self.rng
        bit_index = rng.integers(0, N_BITS, n)
        bits = rng.integers(0, 2, n)
        reports = [
            BitReport(client_id=i, bit_index=int(bit_index[i]), bit=int(bits[i])) for i in range(n)
        ]
        calls = min(SCALAR_CALLS, n)
        fields = {
            "attempt": 1,
            "n_bits": N_BITS,
            "scale": 1.0,
            "offset": 0.0,
            "epsilon": EPSILON,
            "deadline_s": 30.0,
            "bit_index": 3,
        }
        context = TraceContext(
            trace_id=round_trace_id(self.seed), parent_span_id=7, clock_s=time.time()
        )
        spans, snapshot = _fleet_telemetry()
        for _ in range(KERNEL_REPEATS):

            def encode_reports():
                return [
                    encode_message(MSG_REPORTS, encode_batch([r], randomized_response=True), seq=1)
                    for r in reports[:calls]
                ]

            _, t = self.timed("wire.report_encode", encode_reports)
            self.record("wire.report_encode_us", t / calls * 1e6)
            frames = b"".join(encode_batch([r], randomized_response=True) for r in reports)
            decoded, t = self.timed("wire.frame_decode", decode_batch_array, frames)
            self.record("wire.frame_decode_ns", t / n * 1e9)
            self.verify(
                "decode_batch_array returned other reports",
                np.array_equal(decoded.bits, bits)
                and np.array_equal(decoded.bit_indices, bit_index),
            )

            def announce_codec():
                for _ in range(calls):
                    decode_announce(encode_announce(fields, context))

            _, t = self.timed("wire.announce_codec", announce_codec)
            self.record("wire.announce_codec_us", t / calls * 1e6)

            def telemetry_codec():
                for client in range(calls):
                    decode_telemetry(encode_telemetry(client, spans, snapshot))

            _, t = self.timed("wire.telemetry_codec", telemetry_codec)
            self.record("wire.telemetry_codec_us", t / calls * 1e6)

    def peak_bytes(self, workload: InprocAdaptive) -> None:
        """tracemalloc peak of one untraced round, after the population exists."""
        tracemalloc.start()
        try:
            workload.query.run(workload.population, rng=derive_seed(self.seed, LAYER_STREAM, 999))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.record("client_plane.peak_bytes_per_client", peak / workload.n_clients)

    # -- paths --------------------------------------------------------------
    def engine_path(self, workload: Workload, path: str) -> None:
        """Traced (and, for the named workload, untraced) in-process rounds."""
        pair = path == self.workload
        walls: dict[bool, list[float]] = {True: [], False: []}
        clients: dict[bool, list[int]] = {True: [], False: []}
        span_ids = []
        for i in range(TRACED_ROUNDS[path]):
            order = (True, False) if i % 2 else (False, True)
            for traced in order:
                if not traced and not pair:
                    continue
                rnd, wall, span_id = self.issue(workload, path, traced, 2 * i + int(traced))
                if rnd is None:
                    continue
                walls[traced].append(wall)
                clients[traced].append(rnd.clients)
                if traced:
                    span_ids.append(span_id)
                    planned = sum(rnd.estimate.metadata["planned_clients"])
                    self.samples[f"{path}:delivered"].append(rnd.clients / planned)
        if pair:
            self.overhead[path] = _overhead(walls, clients)
        self.analyse_engine(path, span_ids)

    def analyse_engine(self, path: str, span_ids: list[int]) -> None:
        records = self.exporter.records
        by_id = {r.span_id: r for r in records}
        children: dict[int, list[SpanRecord]] = defaultdict(list)
        for r in records:
            if r.parent_id is not None:
                children[r.parent_id].append(r)
        parts: dict[str, list[float]] = defaultdict(list)
        for span_id in span_ids:
            bench = by_id[span_id]
            share: dict[str, float] = defaultdict(float)
            for query in children[span_id]:
                if query.name != "federated.query":
                    continue
                steps = children[query.span_id]
                # The engine's own work outside any child span: in adaptive
                # mode, the cohort split (permutation plus two takes).
                query_self = self_time(query, steps)
                self.samples[f"{path}:query_self_ms"].append(query_self * 1e3)
                share["federated.query (self)"] += query_self
                for step in steps:
                    if step.name != "federated.round":
                        share[step.name] += step.duration_s
                        continue
                    inner = children[step.span_id]
                    self_s = self_time(step, inner)
                    self.samples[f"{path}:round_self_ms"].append(self_s * 1e3)
                    share["federated.round (self)"] += self_s
                    for child in inner:
                        share[child.name] += child.duration_s
                    for shard in _descendants(children, step.span_id, "shard.session"):
                        self.record(
                            "secure_agg.shard_session_ms_p50", shard.attributes["duration_s"] * 1e3
                        )
            covered_s = sum(share.values())
            for name, seconds in share.items():
                parts[name].append(seconds)
            parts["uncovered"].append(bench.duration_s - covered_s)
            self.coverage[path].append(covered_s / bench.duration_s)
        self.breakdown[path] = parts

    def served_path(self, workload: Served) -> None:
        """Traced rounds plus interleaved untraced telemetry-on/off rounds."""
        walls: dict[bool, list[float]] = {True: [], False: []}
        clients: dict[bool, list[int]] = {True: [], False: []}
        pair_fracs = []
        traced_rounds = []
        kinds = [("on", False, True), ("off", False, False), ("traced", True, True)]
        for i in range(TRACED_ROUNDS[SERVED]):
            wall_by_kind = {}
            for k in range(len(kinds)):
                kind, traced, telemetry = kinds[(i + k) % len(kinds)]
                rnd, wall, span_id = self.issue(
                    workload, SERVED, traced, 3 * i + k, telemetry=telemetry
                )
                if rnd is None:
                    continue
                wall_by_kind[kind] = wall
                if telemetry:
                    walls[traced].append(wall)
                    clients[traced].append(rnd.clients)
                if traced:
                    traced_rounds.append((rnd, span_id))
            if "on" in wall_by_kind and "off" in wall_by_kind:
                pair_fracs.append(1.0 - wall_by_kind["off"] / wall_by_kind["on"])
        for frac in pair_fracs:
            self.record("serve.telemetry_cost_frac", frac)
        self.overhead[SERVED] = _overhead(walls, clients)
        self.analyse_served(traced_rounds)

    def analyse_served(self, traced_rounds: list[tuple[Round, int]]) -> None:
        # Server and fleet interleave on one event loop, so span parentage
        # is unreliable there: spans are matched to rounds by time window
        # (local spans) and by trace id (ingested fleet spans).
        records = self.exporter.records
        by_id = {r.span_id: r for r in records}
        parts: dict[str, list[float]] = defaultdict(list)
        for rnd, span_id in traced_rounds:
            bench = by_id[span_id]
            lo, hi = bench.start_time_s, bench.start_time_s + bench.duration_s
            trace_id = round_trace_id(rnd.seed)
            local = [
                r
                for r in records
                if not r.attributes.get("remote") and lo <= r.start_time_s <= hi
            ]
            remote = [
                r
                for r in records
                if r.attributes.get("remote") and r.attributes.get("trace_id") == trace_id
            ]
            total = defaultdict(float)
            for r in local:
                total[r.name] += r.duration_s
            served, timings = rnd.extra["served"], rnd.extra["timings"]
            self.record("serve.start_ms", timings["start_s"] * 1e3)
            self.record("serve.close_ms", timings["close_s"] * 1e3)
            self.record("serve.round_s", timings["serve_round_s"])
            self.record("serve.collect_s", served.duration_s)
            self.record("serve.outside_collect_s", timings["serve_round_s"] - served.duration_s)
            self.record("fleet.run_s", timings["fleet_run_s"])
            self.record("serve.registration_s", total["serve.registration"])
            self.record("serve.announce_ms", total["serve.announce"] * 1e3)
            self.record("serve.reconstruct_ms", total["serve.reconstruct"] * 1e3)
            self.record("serve.telemetry_s", total["serve.telemetry"])
            self.record("serve.uplink_drain_ms", total["uplink.drain"] * 1e3)
            for r in local:
                if r.name == "serve.round" and "uplink_median_s" in r.attributes:
                    self.record("serve.uplink_median_ms", r.attributes["uplink_median_s"] * 1e3)
                    self.record(
                        "serve.uplink_slow_decile_ms", r.attributes["uplink_slow_decile_s"] * 1e3
                    )
            for r in remote:
                if r.name == "fleet.encode":
                    self.record("fleet.encode_us_p50", r.duration_s * 1e6)
                elif r.name == "fleet.uplink":
                    self.record("fleet.uplink_us_p50", r.duration_s * 1e6)
            self.record("serve.accepted_frac", served.surviving_clients / served.planned_clients)
            self.record("serve.wire_rejects", served.wire_rejects)
            self.record("serve.late_reports", served.late_reports)
            self.record(
                "serve.telemetry_frac", served.telemetry_clients / served.registered_clients
            )
            self.record(
                "serve.remote_spans_per_client",
                served.remote_spans / max(served.telemetry_clients, 1),
            )
            layer_s = {name: total[name] for name in SERVED_LAYERS}
            for name, seconds in layer_s.items():
                parts[name].append(seconds)
            parts["uncovered"].append(rnd.latency_s - sum(layer_s.values()))
            self.coverage[SERVED].append(sum(layer_s.values()) / rnd.latency_s)
        self.breakdown[SERVED] = parts

    # -- driver -------------------------------------------------------------
    def run(self) -> None:
        paths = {
            INPROC: InprocAdaptive(self.seed, self.sizes[INPROC]),
            SECURE: SecureSharded(self.seed, self.sizes[SECURE]),
            SERVED: Served(self.seed, self.sizes[SERVED]),
        }
        for workload in paths.values():
            workload.setup()
        try:
            self.peak_bytes(paths[INPROC])
            self.client_plane_kernels()
            self.secure_kernels()
            self.wire_kernels()
            self.engine_path(paths[INPROC], INPROC)
            self.engine_path(paths[SECURE], SECURE)
            # Last: its interleaved async spans never parent in-process ones.
            self.served_path(paths[SERVED])
        finally:
            for workload in paths.values():
                workload.close()
        engine = self.workload if self.workload in (INPROC, SECURE) else INPROC
        self.samples["server.round_self_ms"] = self.samples[f"{engine}:round_self_ms"]
        self.samples["server.query_self_ms"] = self.samples[f"{engine}:query_self_ms"]
        self.samples["server.delivered_frac"] = self.samples[f"{engine}:delivered"]
        self.samples["trace.overhead_frac"] = [self.overhead[self.workload]]
        self.samples["trace.uncovered_frac"] = [1.0 - c for c in self.coverage[self.workload]]

    def metrics(self) -> dict[str, tuple[float, int]]:
        """Per-layer metric -> (median, sample count); absent ones are skipped."""
        return {
            name: (median(self.samples[name]), len(self.samples[name]))
            for name in PER_LAYER
            if self.samples.get(name)
        }

    def write(self, directory: Path, extra: dict) -> None:
        """Span stream, Chrome trace and the per-layer summary."""
        directory.mkdir(parents=True, exist_ok=True)
        records = self.exporter.records
        with open(directory / "spans.jsonl", "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict(), default=_jsonable) + "\n")
        write_chrome_trace(
            directory / "chrome_trace.json", records, label=f"perfbench {self.workload}"
        )
        summary = {
            **extra,
            "per_layer": {
                name: {"value": value, "unit": PER_LAYER[name][0], "samples": count}
                for name, (value, count) in self.metrics().items()
            },
            "breakdown_s": {
                path: {name: median(values) for name, values in parts.items()}
                for path, parts in self.breakdown.items()
            },
            "coverage": {path: median(values) for path, values in self.coverage.items()},
            "overhead": self.overhead,
            "problems": self.problems,
            "program_metrics": self.registry.snapshot(),
        }
        text = json.dumps(summary, indent=2, default=_jsonable)
        (directory / "layers.json").write_text(text + "\n")


def _overhead(walls: dict[bool, list[float]], clients: dict[bool, list[int]]) -> float:
    """1 - traced rate / untraced rate, rates as clients per wall second."""
    traced = sum(clients[True]) / sum(walls[True])
    untraced = sum(clients[False]) / sum(walls[False])
    return 1.0 - traced / untraced


def _descendants(
    children: dict[int, list[SpanRecord]], span_id: int, name: str
) -> list[SpanRecord]:
    found, stack = [], [span_id]
    while stack:
        for child in children[stack.pop()]:
            if child.name == name:
                found.append(child)
            stack.append(child.span_id)
    return found


def _fleet_telemetry() -> tuple[list[dict], dict]:
    """A three-span client telemetry payload, recorded the way a fleet client does."""
    exporter = InMemoryExporter()
    tracer = Tracer([exporter])
    registry = MetricsRegistry()
    with tracer.span("fleet.round", {"client": 0, "attempt": 1, "bit_index": 3}):
        with tracer.span("fleet.encode", {"n_bits": N_BITS, "client": 0}):
            pass
        with tracer.span("fleet.uplink", {"client": 0, "attempt": 1, "bytes": 16}):
            pass
    registry.counter("fleet_uplinks_sent_total").inc()
    return [record.to_dict() for record in exporter.records], registry.snapshot()


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)
