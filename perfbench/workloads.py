"""The three closed-loop round workloads: inputs, one round, and its check.

Every workload derives all of its inputs from the benchmark seed; the
program only ever sees the generated values, encoders and round seeds.
``run_round`` issues exactly one round and returns once its estimate is
held; ``check`` then verifies that estimate outside the timed window and
returns a list of problems (empty when the round is correct).
"""

from __future__ import annotations

import asyncio
import math
import resource
import struct
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis import predicted_variance
from repro.core import FixedPointEncoder
from repro.core.results import MeanEstimate
from repro.core.sampling import BitSamplingSchedule
from repro.federated import (
    ClientBatch,
    ClientFleet,
    DropoutModel,
    FederatedMeanQuery,
    RoundServer,
    ServeConfig,
    in_process_estimate,
)
from repro.privacy.randomized_response import RandomizedResponse

INPROC = "inproc-adaptive-1m"
SERVED = "served-1k"
SECURE = "secure-10k"

N_BITS = 10
EPSILON = 2.0
INPROC_DROPOUT = 0.1
SECURE_DROPOUT = 0.05
SHARD_SIZE = 32

#: An in-process estimate must lie within this many predicted standard
#: errors of the population mean.  At 6 SE a correct round trips the check
#: with probability ~2e-9, so thousands of checked rounds stay clean.
SE_MULTIPLE = 6.0

#: ``chunk_clients`` of the chunked twin: prime, so its chunk boundaries
#: never line up with the default 64k chunks.
TWIN_CHUNK = 65_521

#: Stream tags for seed derivation: inputs, timed rounds, warm-up rounds.
INPUT_STREAM, ROUND_STREAM, WARMUP_STREAM = 0, 1, 2


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed drawn from ``SeedSequence([seed, *path])``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def population_values(seed: int, n: int) -> np.ndarray:
    """One value per client, clipped ``Normal(600, 100)``."""
    rng = np.random.default_rng(derive_seed(seed, INPUT_STREAM))
    return np.clip(rng.normal(600.0, 100.0, n), 0.0, None)


def same_float(a: float, b: float) -> bool:
    """Bit-for-bit equality of two doubles."""
    return struct.pack("<d", a) == struct.pack("<d", b)


def same_estimate(got: MeanEstimate, want: MeanEstimate) -> list[str]:
    """Problems that make ``got`` differ from ``want`` in any bit."""
    problems = []
    if not same_float(got.value, want.value):
        problems.append(f"estimate {got.value!r} != twin {want.value!r}")
    if not np.array_equal(got.counts, want.counts):
        problems.append("per-bit counts differ from the twin")
    if not np.array_equal(got.bit_means, want.bit_means):
        problems.append("per-bit means differ from the twin")
    return problems


@dataclass
class Round:
    """One issued round: its seed, latency, delivered clients and outputs."""

    seed: int
    latency_s: float
    clients: int
    estimate: MeanEstimate
    extra: dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base: ``setup`` builds inputs, ``run_round`` issues one round."""

    name = ""
    default_clients = 0

    def __init__(self, seed: int, n_clients: int | None = None) -> None:
        self.seed = int(seed)
        self.n_clients = int(n_clients or self.default_clients)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, seed: int) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release anything ``setup`` opened."""


class InprocAdaptive(Workload):
    """Adaptive two-round query over one columnar population, RR at eps=2."""

    name = INPROC
    default_clients = 1_000_000

    def setup(self) -> None:
        self.values = population_values(self.seed, self.n_clients)
        self.population = ClientBatch.from_values(self.values)
        self.encoder = FixedPointEncoder.for_integers(N_BITS)
        self.query = self.make_query()
        encoded = self.encoder.encode(self.values)
        # Unit scale, zero offset: the encoded mean is the decoded mean.
        self.truth = float(encoded.mean())
        self.true_bit_means = np.array(
            [((encoded >> np.uint64(j)) & np.uint64(1)).mean() for j in range(N_BITS)]
        )
        self.twin_checked = False

    def make_query(self, chunk_clients: int | None = None) -> FederatedMeanQuery:
        return FederatedMeanQuery(
            self.encoder,
            mode="adaptive",
            perturbation=RandomizedResponse(epsilon=EPSILON),
            dropout=DropoutModel(rate=INPROC_DROPOUT),
            chunk_clients=chunk_clients,
        )

    def run_round(self, seed: int) -> Round:
        start = time.perf_counter()
        estimate = self.query.run(self.population, rng=seed)
        latency = time.perf_counter() - start
        return Round(seed, latency, int(sum(estimate.metadata["surviving_clients"])), estimate)

    def standard_error(self, estimate: MeanEstimate) -> float:
        """Lemma 3.1 standard error at the rounds' pooled sampling rates."""
        reports = sum(r.n_clients for r in estimate.rounds)
        pooled = sum(r.n_clients * r.probabilities for r in estimate.rounds) / reports
        variance = predicted_variance(
            self.true_bit_means, BitSamplingSchedule(pooled), reports, epsilon=EPSILON
        )
        return math.sqrt(variance)

    def check(self, rnd: Round) -> list[str]:
        problems = []
        if not self.twin_checked:
            # Once per run: chunking is a pure memory knob, so a re-run with
            # other chunk boundaries must agree in every bit.
            self.twin_checked = True
            twin = self.make_query(TWIN_CHUNK).run(self.population, rng=rnd.seed)
            problems += [f"chunked twin: {p}" for p in same_estimate(rnd.estimate, twin)]
        se = self.standard_error(rnd.estimate)
        error = abs(rnd.estimate.encoded_value - self.truth)
        if not math.isfinite(se) or error > SE_MULTIPLE * se:
            problems.append(
                f"estimate {rnd.estimate.value:.4f} is {error:.4f} from the mean "
                f"{self.truth:.4f}; allowed {SE_MULTIPLE} x SE {se:.4f}"
            )
        return problems


class SecureSharded(Workload):
    """Basic query through hierarchical secure aggregation, 5% dropout."""

    name = SECURE
    default_clients = 10_000

    def setup(self) -> None:
        self.values = population_values(self.seed, self.n_clients)
        self.population = ClientBatch.from_values(self.values)
        self.encoder = FixedPointEncoder.for_integers(N_BITS)
        self.query = self.make_query(secure=True)
        self.plaintext = self.make_query(secure=False)

    def make_query(self, secure: bool) -> FederatedMeanQuery:
        return FederatedMeanQuery(
            self.encoder,
            mode="basic",
            secure_aggregation=secure,
            shard_size=SHARD_SIZE,
            dropout=DropoutModel(rate=SECURE_DROPOUT),
        )

    def run_round(self, seed: int) -> Round:
        start = time.perf_counter()
        estimate = self.query.run(self.population, rng=seed)
        latency = time.perf_counter() - start
        return Round(seed, latency, int(sum(estimate.metadata["surviving_clients"])), estimate)

    def check(self, rnd: Round) -> list[str]:
        # Masks cancel exactly, so the secure estimate is the plaintext one.
        twin = self.plaintext.run(self.population, rng=rnd.seed)
        return [f"plaintext twin: {p}" for p in same_estimate(rnd.estimate, twin)]


class Served(Workload):
    """Loopback TCP rounds: one ``RoundServer`` and one ``ClientFleet`` per round.

    Server and fleet share one event loop (one thread) for the whole run.
    Each round gets a fresh server seed; the fleet's values and seed are
    fixed for the run.
    """

    name = SERVED
    default_clients = 1024

    def setup(self) -> None:
        # Two sockets per client (fleet and server side) plus the process's own.
        needed = 2 * self.n_clients + 64
        allowed = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        if allowed != resource.RLIM_INFINITY and allowed < needed:
            raise RuntimeError(
                f"{self.name} needs {needed} open files; the limit is {allowed}"
            )
        self.values = population_values(self.seed, self.n_clients)
        self.fleet_seed = derive_seed(self.seed, INPUT_STREAM, 1)
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.loop.close()

    def config(self, seed: int, telemetry: bool = True) -> ServeConfig:
        return ServeConfig(
            n_clients=self.n_clients, epsilon=EPSILON, seed=seed, telemetry=telemetry
        )

    def run_round(self, seed: int, telemetry: bool = True) -> Round:
        return self.loop.run_until_complete(self._serve(seed, telemetry))

    async def _serve(self, seed: int, telemetry: bool) -> Round:
        cfg = self.config(seed, telemetry)
        timings: dict[str, float] = {}
        issued = time.perf_counter()
        server = RoundServer(cfg)
        await server.start()
        timings["start_s"] = time.perf_counter() - issued
        fleet = ClientFleet(self.values, seed=self.fleet_seed, telemetry=telemetry)

        async def run_fleet():
            began = time.perf_counter()
            try:
                return await fleet.run(cfg.host, server.port)
            finally:
                timings["fleet_run_s"] = time.perf_counter() - began

        fleet_task = asyncio.ensure_future(run_fleet())
        try:
            began = time.perf_counter()
            served = await server.serve_round()
            held = time.perf_counter()
            timings["serve_round_s"] = held - began
            fleet_result = await fleet_task
        finally:
            if not fleet_task.done():
                fleet_task.cancel()
                await asyncio.gather(fleet_task, return_exceptions=True)
            began = time.perf_counter()
            await server.close()
            timings["close_s"] = time.perf_counter() - began
        return Round(
            seed,
            held - issued,
            served.surviving_clients,
            served.estimate,
            {"served": served, "fleet": fleet_result, "timings": timings, "telemetry": telemetry},
        )

    def check(self, rnd: Round) -> list[str]:
        served, fleet = rnd.extra["served"], rnd.extra["fleet"]
        n = self.n_clients
        cfg = self.config(rnd.seed, rnd.extra["telemetry"])
        twin = in_process_estimate(self.values, cfg, fleet_seed=self.fleet_seed)
        problems = [f"in-process twin: {p}" for p in same_estimate(rnd.estimate, twin)]
        # Loopback is lossless: every planned report must be accepted.
        if served.surviving_clients != n or fleet.uplinks_sent != n:
            problems.append(
                f"{served.surviving_clients} of {n} reports accepted, "
                f"{fleet.uplinks_sent} sent"
            )
        if served.wire_rejects or served.late_reports:
            problems.append(
                f"{served.wire_rejects} wire rejects, {served.late_reports} late reports"
            )
        if cfg.telemetry and served.telemetry_clients != served.registered_clients:
            problems.append(
                f"telemetry ingested from {served.telemetry_clients} of "
                f"{served.registered_clients} clients"
            )
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (InprocAdaptive, Served, SecureSharded)
}
