"""Server-side orchestration of federated bit-pushing queries.

:class:`FederatedMeanQuery` glues every substrate together the way the
deployed system does (Section 4.3): select an eligible cohort (minimum-size
enforced), plan a central-randomness bit assignment, adjust sampling
probabilities for the expected dropout rate, collect one-bit reports over a
lossy network from clients that may vanish mid-round, meter each disclosure,
optionally route the per-bit counters through secure aggregation, and
reconstruct the mean -- in one round (basic) or two (adaptive).

The arithmetic is exactly :mod:`repro.core`'s; this layer adds the systems
behaviour around it, so core tests guarantee correctness and federated tests
guarantee robustness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveBitPushing
from repro.core.client_plane import (
    ELICITATION_STRATEGIES,
    ClientBatch,
    collect_client_reports,
    elicit_values,
)
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import BitPerturbation, bit_means_from_stats
from repro.core.results import MeanEstimate, RoundSummary
from repro.core.sampling import BitSamplingSchedule, central_assignment
from repro.exceptions import ConfigurationError, RoundFailedError
from repro.federated.cohort import CohortSelector, Eligibility
from repro.federated.dropout import DropoutModel, DropoutRateTracker
from repro.federated.faults import FaultSchedule
from repro.federated.network import NetworkModel
from repro.federated.retry import RetryPolicy
from repro.federated.secure_agg.hierarchy import (
    HierarchicalResult,
    ShardTask,
    aggregate_shards,
    shard_bounds,
)
from repro.observability import HealthMonitor, get_metrics, get_tracer
from repro.privacy.accountant import BitMeter, PrivacyAccountant
from repro.rng import ensure_rng

__all__ = ["RoundOutcome", "RoundLifecycle", "FederatedMeanQuery", "round_estimate"]

_MODES = ("basic", "adaptive")


@dataclass(frozen=True)
class RoundOutcome:
    """Operational record of one collection round.

    ``planned_clients``/``surviving_clients`` describe the attempt that
    finally completed; ``attempt_history`` records every attempt's
    ``(planned, survived)`` pair, failed ones included, so per-attempt
    report accounting reconciles with the metrics counters.
    """

    summary: RoundSummary
    planned_clients: int
    surviving_clients: int
    round_duration_s: float
    attempts: int = 1
    degraded: bool = False
    backoff_s: float = 0.0
    attempt_history: tuple[tuple[int, int], ...] = ()

    @property
    def dropout_rate(self) -> float:
        if self.planned_clients == 0:
            return 0.0
        return 1.0 - self.surviving_clients / self.planned_clients

    @property
    def variance_inflation(self) -> float:
        """Widened-variance factor for a round completed under-strength.

        Bit-mean sampling variance scales as ``1 / survivors``, so a round
        that completed with fewer clients than planned carries
        ``planned / survivors`` times the variance its plan budgeted for.
        """
        if self.surviving_clients <= 0:
            return float("inf")
        return self.planned_clients / self.surviving_clients


@dataclass
class RoundLifecycle:
    """The transport-independent half of one round's attempts (no I/O).

    :class:`FederatedMeanQuery`, the asyncio
    :class:`~repro.federated.serve.RoundServer` and its twin
    :func:`~repro.federated.serve.in_process_estimate` drive every attempt
    of a round through one instance: :meth:`check_quorum`, then
    :meth:`complete`; :meth:`retry` or :meth:`finish` close the attempt.
    The callers keep only their transport.  ``tracer``/``metrics`` default
    to the process-wide pair (the twin passes the null pair).
    """

    n_bits: int
    perturbation: BitPerturbation | None
    min_quorum: int
    degraded_fraction: float
    retry_policy: RetryPolicy | None
    round_index: int = 1
    health: HealthMonitor | None = None
    accountant: PrivacyAccountant | None = None
    tracer: Any = field(default_factory=get_tracer)
    metrics: Any = field(default_factory=get_metrics)
    attempt: int = field(default=1, init=False)
    backoff_s: float = field(default=0.0, init=False)
    history: list[tuple[int, int]] = field(default_factory=list, init=False)

    def check_quorum(
        self, span: Any, planned: int, survived: int, secure: bool = False
    ) -> None:
        """Fail the attempt below quorum (``secure``: after shard recovery)."""
        if survived >= self.min_quorum:
            return
        metrics = self.metrics
        metrics.counter("rounds_failed_total").inc()
        metrics.counter("round_reports_planned_total").inc(planned)
        metrics.counter("round_reports_delivered_total").inc(survived)
        metrics.counter("round_reports_lost_total").inc(planned - survived)
        span.set_attribute("failed", True)
        span.set_attribute("surviving_clients", survived)
        where = f"round {self.round_index} attempt {self.attempt}"
        if secure:
            message = (
                f"{where}: secure aggregation recovered {survived} clients, "
                f"below quorum {self.min_quorum}"
            )
        elif survived == 0:
            message = "every client dropped out of the round"
        else:
            message = f"{where}: {survived} survivors below quorum {self.min_quorum}"
        raise RoundFailedError(message, planned=planned, survived=survived)

    def complete(
        self,
        span: Any,
        schedule: BitSamplingSchedule,
        sums: np.ndarray,
        counts: np.ndarray,
        planned: int,
        survived: int,
        duration_s: float,
        live_assignment: np.ndarray,
        shard_failures: int = 0,
    ) -> RoundOutcome:
        """Turn one quorate attempt's per-bit stats into its :class:`RoundOutcome`."""
        means = bit_means_from_stats(sums, counts, self.perturbation)
        summary = RoundSummary(
            probabilities=schedule.probabilities,
            counts=counts,
            sums=means * counts,
            bit_means=means,
            n_clients=survived,
        )
        # A round that lost shards completed under-strength even when the
        # raw survivor fraction looks healthy: the exclusions widen the
        # variance exactly like dropout does.
        degraded = survived < self.degraded_fraction * planned or shard_failures > 0
        outcome = RoundOutcome(
            summary=summary,
            planned_clients=planned,
            surviving_clients=survived,
            round_duration_s=duration_s,
            degraded=degraded,
        )
        if self.accountant is not None and self.perturbation is not None:
            epsilon = getattr(self.perturbation, "epsilon", None)
            if epsilon is not None:
                self.accountant.spend(
                    float(epsilon),
                    note=(
                        f"round {self.round_index} attempt {self.attempt}: "
                        f"randomized response over {survived} reports"
                    ),
                )
        span.set_attribute("surviving_clients", survived)
        span.set_attribute("round_duration_s", duration_s)
        if degraded:
            span.set_attribute("degraded", True)
            span.set_attribute("variance_inflation", outcome.variance_inflation)
            self.metrics.counter("rounds_degraded_total").inc()
        self._record_round_metrics(outcome, live_assignment)
        return outcome

    def _record_round_metrics(self, outcome: RoundOutcome, live_assignment: np.ndarray) -> None:
        """Fold one round's operational counters into the metrics registry.

        Invariant (asserted by the trace CLI and the integration tests):
        ``round_reports_planned_total`` accumulates exactly
        ``round_reports_delivered_total + round_reports_lost_total``, each
        reconciling with the :class:`RoundOutcome` fields.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        metrics.counter("rounds_total").inc()
        metrics.counter("round_reports_planned_total").inc(outcome.planned_clients)
        metrics.counter("round_reports_delivered_total").inc(outcome.surviving_clients)
        metrics.counter("round_reports_lost_total").inc(
            outcome.planned_clients - outcome.surviving_clients
        )
        metrics.gauge("dropout_rate").set(outcome.dropout_rate)
        metrics.histogram("round_duration_s").observe(outcome.round_duration_s)
        bit_hist = metrics.histogram(
            "bit_index_distribution", buckets=tuple(float(j) for j in range(self.n_bits))
        )
        for j, count in enumerate(np.bincount(live_assignment, minlength=self.n_bits)):
            if count:
                bit_hist.observe(float(j), count=int(count))

    def retry(self, exc: RoundFailedError) -> bool:
        """Log a failed attempt, then back off to the next one; ``False`` when none is left."""
        self.history.append((exc.planned, exc.survived))
        self._observe(exc.planned, exc.survived, failed=True)
        policy = self.retry_policy
        if policy is None or self.attempt >= policy.max_attempts:
            return False
        backoff = policy.backoff_s(self.attempt)
        self.backoff_s += backoff
        self.metrics.counter("round_retries_total").inc()
        with self.tracer.span(
            "round.retry",
            {
                "round_index": self.round_index,
                "failed_attempt": self.attempt,
                "next_attempt": self.attempt + 1,
                "backoff_s": backoff,
                "survived": exc.survived,
                "planned": exc.planned,
                "reason": str(exc),
            },
        ):
            pass
        self.attempt += 1
        return True

    def finish(self, outcome: RoundOutcome) -> RoundOutcome:
        """Stamp the completed attempt's outcome with the round's retry record."""
        self.history.append((outcome.planned_clients, outcome.surviving_clients))
        self._observe(
            outcome.planned_clients,
            outcome.surviving_clients,
            degraded=outcome.degraded,
            duration_s=outcome.round_duration_s,
        )
        return replace(
            outcome,
            attempts=self.attempt,
            backoff_s=self.backoff_s,
            attempt_history=tuple(self.history),
        )

    def _observe(self, planned: int, survived: int, **sample: Any) -> None:
        if self.health is None:
            return
        self.health.observe_round(
            round_index=self.round_index,
            attempt=self.attempt,
            planned=planned,
            survived=survived,
            epsilon_spent=(
                float(self.accountant.spent_epsilon) if self.accountant is not None else None
            ),
            **sample,
        )


def round_estimate(
    outcomes: Sequence[RoundOutcome],
    encoder: FixedPointEncoder,
    bit_means: np.ndarray,
    counts: np.ndarray,
    n_clients: int,
    method: str,
    squashed: tuple[int, ...] = (),
    **metadata: Any,
) -> MeanEstimate:
    """The estimate from pooled per-bit stats; callers add only their own ``metadata``."""
    encoded_mean = float(encoder.powers @ bit_means)
    return MeanEstimate(
        value=encoder.decode_scalar(encoded_mean),
        encoded_value=encoded_mean,
        bit_means=bit_means,
        counts=counts,
        n_clients=n_clients,
        n_bits=encoder.n_bits,
        method=method,
        rounds=tuple(o.summary for o in outcomes),
        squashed_bits=squashed,
        metadata={
            "cohort_size": n_clients,
            "dropout_rates": [o.dropout_rate for o in outcomes],
            "round_durations_s": [o.round_duration_s for o in outcomes],
            "total_duration_s": sum(o.round_duration_s + o.backoff_s for o in outcomes),
            "planned_clients": [o.planned_clients for o in outcomes],
            "surviving_clients": [o.surviving_clients for o in outcomes],
            "round_attempts": [o.attempts for o in outcomes],
            "degraded_rounds": [o.degraded for o in outcomes],
            "variance_inflation": [o.variance_inflation for o in outcomes],
            "backoff_s": [o.backoff_s for o in outcomes],
            "attempt_history": [
                [list(pair) for pair in o.attempt_history] for o in outcomes
            ],
            **metadata,
        },
    )


@dataclass(frozen=True)
class _CohortDraw:
    """One query's population as one batch; cohorts are positions into it."""

    batch: ClientBatch
    eligibility: Eligibility | None
    selector: CohortSelector

    def clients(self, positions: np.ndarray) -> ClientBatch:
        """The cohort at ``positions``; the whole population is not copied.

        Every draw that covers the whole batch is ``arange(n)`` in order, so
        the batch itself is that cohort.
        """
        if positions.size == len(self.batch):
            return self.batch
        return self.batch.take(positions)

    def redraw(
        self, size: int, held: np.ndarray | None, gen: np.random.Generator
    ) -> np.ndarray:
        """Draw ``size`` fresh eligible positions, none of them in ``held``.

        Without ``held`` this consumes randomness exactly as
        :meth:`CohortSelector.select_indices` does for the same draw.
        """
        free = np.zeros(len(self.batch), dtype=bool)
        free[self.selector.select_indices(self.batch, self.eligibility)] = True
        if held is not None:
            free[held] = False
        available = np.flatnonzero(free)
        if size >= available.size:
            return available
        return available[gen.choice(available.size, size=size, replace=False)]


class FederatedMeanQuery:
    """A configurable federated mean query over a client population.

    Parameters
    ----------
    encoder:
        Fixed-point encoding (clipping included) for the queried metric.
    mode:
        ``"adaptive"`` (two rounds, default) or ``"basic"`` (one round).
    schedule:
        Basic-mode sampling schedule (default: the Eq. 7 ``p_j \\propto 2**j``,
        i.e. weighted ``alpha = 1.0``).
    gamma, alpha, delta, caching:
        Adaptive-mode parameters, as in
        :class:`~repro.core.adaptive.AdaptiveBitPushing`.
    perturbation:
        Optional local-DP bit perturbation (randomized response).
    squash_multiple:
        Bit-squash threshold in expected-DP-noise multiples (needs a
        perturbation).
    dropout, network:
        Failure models; ``None`` disables each.
    selector:
        Cohort policy (default: no eligibility filter, minimum size 1).
    meter:
        Optional :class:`BitMeter`; every surviving client's disclosure is
        recorded (and over-disclosure raises).
    elicitation:
        Multi-value reduction strategy (``"sample"`` by default).
    metric_name:
        Value identity used for metering.
    min_reports_per_bit:
        Dropout-aware floor: sampled bits are guaranteed this many expected
        reports by mixing the schedule toward them ("sampling probabilities
        were auto-adjusted based on the dropout rate").
    secure_aggregation:
        Route per-bit counters through hierarchical pairwise-masked secure
        aggregation instead of plaintext summation.  The *planned* cohort is
        sharded, so mid-round dropout becomes real intra-session dropout
        with per-shard recovery; a shard that falls below its 2/3 threshold
        is excluded and the round degrades instead of aborting.  Shards run
        in parallel under ``REPRO_WORKERS`` (bit-identical for any worker
        count).
    shard_size:
        Clients per secure-aggregation shard (sessions are O(shard**2)).  A
        remainder of one client folds into the previous shard rather than
        bypassing masking.
    min_quorum:
        Minimum surviving clients for a round attempt to count.  An attempt
        below quorum fails (and is retried under ``retry``); an attempt at
        or above quorum completes even under heavy loss, with the
        degradation recorded on the :class:`RoundOutcome`
        (``degraded``/``variance_inflation``).  Default 1 preserves the
        historical behaviour: only a zero-survivor round fails.
    degraded_fraction:
        A completed round whose survivors fall below this fraction of the
        plan is flagged degraded (``rounds_degraded_total`` metric).
    retry:
        :class:`RetryPolicy` for failed round attempts (``None`` disables
        retries: a failed round raises, as before).  An adaptive round that
        redraws its retry cohort draws only clients outside the other
        round's cohort, so no client answers both rounds.
    faults:
        Optional :class:`~repro.federated.faults.FaultSchedule`; its clock
        advances once per round *attempt* and the active fault overrides
        wrap ``dropout``/``network`` for that attempt.
    accountant:
        Optional :class:`~repro.privacy.accountant.PrivacyAccountant`.  When
        set alongside an LDP ``perturbation``, every *completed* round
        attempt records one ledger entry of the perturbation's epsilon
        (sequential composition across rounds; a failed attempt elicits
        nothing and spends nothing).  Flight-recorder manifests surface the
        resulting ledger as the run's epsilon-spend timeline.
    health:
        Optional :class:`~repro.observability.health.HealthMonitor`.  Every
        round attempt -- failed ones included -- is reported through
        :meth:`~repro.observability.health.HealthMonitor.observe_round`,
        timed on the *simulated* round durations, so SLO rules evaluate
        even when no tracer is installed.  Do not also register the same
        monitor as a tracer exporter, or rounds evaluate twice.
    chunk_clients:
        Chunk size for the columnar client-plane kernels (``None``: the
        ``REPRO_BATCH_CHUNK`` default).  A pure performance/memory knob --
        results are bit-identical for every value.

    The population handed to :meth:`run` is one columnar
    :class:`~repro.core.client_plane.ClientBatch`; every cohort is a set of
    positions into it.  The engine elicits, encodes, perturbs, and
    aggregates in bounded-memory chunks, never materializing per-client
    objects.  Secure aggregation runs through the hierarchical shard tree
    (:mod:`repro.federated.secure_agg.hierarchy`): equal-size shards run
    as batched kernel passes over groups of shards, submission matrices
    are built one shard at a time, and at most ``REPRO_WORKERS`` groups
    are in flight.
    """

    def __init__(
        self,
        encoder: FixedPointEncoder,
        mode: str = "adaptive",
        schedule: BitSamplingSchedule | None = None,
        gamma: float | None = None,
        alpha: float = 0.5,
        delta: float = 1.0 / 3.0,
        caching: bool = True,
        perturbation: BitPerturbation | None = None,
        squash_multiple: float = 0.0,
        dropout: DropoutModel | None = None,
        network: NetworkModel | None = None,
        selector: CohortSelector | None = None,
        meter: BitMeter | None = None,
        elicitation: str = "sample",
        metric_name: str = "metric",
        min_reports_per_bit: int = 0,
        secure_aggregation: bool = False,
        shard_size: int = 32,
        min_quorum: int = 1,
        degraded_fraction: float = 0.5,
        retry: RetryPolicy | None = None,
        faults: FaultSchedule | None = None,
        accountant: PrivacyAccountant | None = None,
        health: HealthMonitor | None = None,
        chunk_clients: int | None = None,
    ) -> None:
        if mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {mode!r}")
        if elicitation not in ELICITATION_STRATEGIES:
            raise ConfigurationError(
                f"unknown elicitation strategy {elicitation!r}; expected one of "
                f"{ELICITATION_STRATEGIES}"
            )
        if min_reports_per_bit < 0:
            raise ConfigurationError(f"min_reports_per_bit must be >= 0, got {min_reports_per_bit}")
        if shard_size < 2:
            raise ConfigurationError(f"shard_size must be >= 2, got {shard_size}")
        if min_quorum < 1:
            raise ConfigurationError(f"min_quorum must be >= 1, got {min_quorum}")
        if chunk_clients is not None and chunk_clients < 1:
            raise ConfigurationError(f"chunk_clients must be >= 1, got {chunk_clients}")
        if not 0.0 < degraded_fraction <= 1.0:
            raise ConfigurationError(
                f"degraded_fraction must be in (0, 1], got {degraded_fraction}"
            )
        if schedule is not None and schedule.n_bits != encoder.n_bits:
            raise ConfigurationError(
                f"schedule covers {schedule.n_bits} bits but encoder has {encoder.n_bits}"
            )
        # Algorithm 2's round-independent steps (split, schedules, pooling)
        # and the final LDP squash both modes reconstruct through; building
        # it validates gamma/alpha/delta/squash_multiple before any round.
        self.algorithm = AdaptiveBitPushing(
            encoder,
            gamma=gamma,
            alpha=alpha,
            delta=delta,
            caching=caching,
            perturbation=perturbation,
            squash_multiple=squash_multiple,
        )
        self.encoder = encoder
        self.mode = mode
        self.schedule = schedule or BitSamplingSchedule.weighted(encoder.n_bits, alpha=1.0)
        self.perturbation = perturbation
        self.dropout = dropout
        self.network = network
        self.selector = selector or CohortSelector(min_cohort_size=1)
        self.meter = meter
        self.elicitation = elicitation
        self.metric_name = metric_name
        self.min_reports_per_bit = min_reports_per_bit
        self.secure_aggregation = secure_aggregation
        self.shard_size = shard_size
        self.min_quorum = min_quorum
        self.degraded_fraction = degraded_fraction
        self.retry = retry
        self.faults = faults
        self.accountant = accountant
        self.health = health
        self.chunk_clients = chunk_clients
        self.dropout_tracker = DropoutRateTracker(
            prior_rate=dropout.rate if dropout is not None else 0.0
        )

    # ------------------------------------------------------------------
    def run(
        self,
        population: ClientBatch,
        rng: np.random.Generator | int | None = None,
        eligibility: Eligibility | None = None,
        cohort_size: int | None = None,
    ) -> MeanEstimate:
        """Execute the query end-to-end and return the mean estimate."""
        if not isinstance(population, ClientBatch):
            raise ConfigurationError(
                f"population must be a ClientBatch, got {type(population).__name__}"
            )
        gen = ensure_rng(rng)
        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span(
            "federated.query",
            {"mode": self.mode, "secure_aggregation": self.secure_aggregation},
        ) as query_span:
            with tracer.span(
                "federated.cohort_select", {"population": len(population)}
            ) as select_span:
                positions = self.selector.select_indices(population, eligibility, cohort_size, gen)
                n_cohort = int(positions.size)
                select_span.set_attribute("cohort_size", n_cohort)
            metrics.gauge("cohort_size").set(n_cohort)
            query_span.set_attribute("cohort_size", n_cohort)
            draw = _CohortDraw(population, eligibility, self.selector)

            algorithm = self.algorithm
            if self.mode == "basic":
                outcome, _ = self._run_round_with_recovery(
                    draw, positions, self.schedule, gen, round_index=1
                )
                outcomes = [outcome]
                pooled_means = outcome.summary.bit_means
                pooled_counts = outcome.summary.counts
            else:
                positions1, positions2 = algorithm.split(positions, gen)
                del positions  # the split returns a shuffled copy; free the original
                schedule1 = algorithm.round1_schedule()
                outcome1, positions1 = self._run_round_with_recovery(
                    draw, positions1, schedule1, gen, round_index=1, held=positions2
                )
                schedule2 = algorithm.round2_schedule(outcome1.summary)
                outcome2, _ = self._run_round_with_recovery(
                    draw, positions2, schedule2, gen, round_index=2, held=positions1
                )
                outcomes = [outcome1, outcome2]
                pooled_means, pooled_counts = algorithm.pool(outcome1.summary, outcome2.summary)

            with tracer.span(
                "federated.reconstruct", {"n_bits": self.encoder.n_bits}
            ) as reconstruct_span:
                pooled_means, squashed = algorithm.final_squash(pooled_means, pooled_counts)
                estimate = round_estimate(
                    outcomes,
                    self.encoder,
                    pooled_means,
                    pooled_counts,
                    n_cohort,
                    f"federated-{self.mode}",
                    squashed,
                    secure_aggregation=self.secure_aggregation,
                    elicitation=self.elicitation,
                    ldp=self.perturbation is not None,
                )
                reconstruct_span.set_attribute("squashed_bits", list(squashed))
                reconstruct_span.set_attribute("estimate", estimate.value)
            return estimate

    # ------------------------------------------------------------------
    def _run_round_with_recovery(
        self,
        draw: _CohortDraw,
        positions: np.ndarray,
        schedule: BitSamplingSchedule,
        gen: np.random.Generator,
        round_index: int = 1,
        held: np.ndarray | None = None,
    ) -> tuple[RoundOutcome, np.ndarray]:
        """Run one round, retrying failed attempts under the configured policy.

        Each attempt is a full :meth:`_run_round` execution (the fault
        schedule's clock ticks per attempt).  On failure: if attempts
        remain, wait out the policy's exponential backoff in simulated
        time, optionally re-draw a fresh cohort from the eligible clients
        outside ``held`` (the other adaptive round's cohort, so no client
        answers both rounds), and try again; otherwise the failure
        propagates.  Returns the outcome -- recording the attempt count,
        accumulated backoff, and every attempt's ``(planned, survived)``
        pair -- and the positions of the cohort that completed.
        """
        lifecycle = RoundLifecycle(
            self.encoder.n_bits,
            self.perturbation,
            self.min_quorum,
            self.degraded_fraction,
            self.retry,
            round_index=round_index,
            health=self.health,
            accountant=self.accountant,
        )
        while True:
            try:
                outcome = self._run_round(draw.clients(positions), schedule, gen, lifecycle)
                return lifecycle.finish(outcome), positions
            except RoundFailedError as exc:
                if not lifecycle.retry(exc):
                    raise
                if self.retry.redraw_cohort:
                    positions = draw.redraw(positions.size, held, gen)

    # ------------------------------------------------------------------
    def _run_round(
        self,
        clients: ClientBatch,
        schedule: BitSamplingSchedule,
        gen: np.random.Generator,
        lifecycle: RoundLifecycle,
    ) -> RoundOutcome:
        tracer = lifecycle.tracer
        n = len(clients)
        if n == 0:
            raise ConfigurationError("round planned with zero clients")
        with tracer.span(
            "federated.round",
            {
                "round_index": lifecycle.round_index,
                "planned_clients": n,
                "attempt": lifecycle.attempt,
            },
        ) as round_span:
            lifecycle.metrics.counter("round_attempts_total").inc()
            # Scripted fault injection: the schedule's clock ticks once per
            # attempt, and the active overrides wrap the failure models.
            dropout, network = self.dropout, self.network
            shard_blackout: tuple[int, ...] = ()
            if self.faults is not None:
                active = self.faults.begin_attempt()
                if active.any:
                    dropout = active.apply_dropout(dropout)
                    network = active.apply_network(network)
                    shard_blackout = active.shard_blackout
                    round_span.set_attribute("faults", active.describe())

            schedule = self._adjust_schedule(schedule, n)
            with tracer.span(
                "round.assign", {"n_bits": self.encoder.n_bits, "n_clients": n}
            ):
                assignment = central_assignment(n, schedule, gen)

            # Failure simulation: device dropout, then network delivery.
            with tracer.span("round.dropout", {"planned": n}) as dropout_span:
                alive = (
                    dropout.draw_survivors(n, gen)
                    if dropout is not None
                    else np.ones(n, dtype=bool)
                )
                dropout_span.set_attribute("survived", int(alive.sum()))
            duration = 0.0
            if network is not None and alive.any():
                # An empty batch is never transmitted: there is nothing to
                # deliver, and a vacuous DeliveryOutcome would conflate
                # "nothing to send" with "everything sent was lost".
                outcome = network.transmit(int(alive.sum()), gen)
                delivered = np.zeros(n, dtype=bool)
                delivered[np.flatnonzero(alive)] = outcome.delivered
                duration = outcome.round_duration_s
                alive = delivered
            survivors = np.flatnonzero(alive)
            self.dropout_tracker.update(planned=n, survived=int(survivors.size))
            lifecycle.check_quorum(round_span, n, int(survivors.size))

            # Client-side: elicit one value each, meter the single-bit disclosure.
            # Elicitation streams straight from the flat value arrays in
            # bounded-memory chunks, and one meter transaction covers the round.
            with tracer.span("round.elicit", {"n_clients": int(survivors.size)}):
                values = elicit_values(
                    clients.take(survivors), self.elicitation, gen, chunk=self.chunk_clients
                )
                # Secure mode meters after shard recovery instead: a failed
                # shard's masked rows are never unmasked, so those clients
                # disclose nothing, and metering after the inclusion quorum
                # check keeps retried attempts from double-recording.
                if self.meter is not None and not self.secure_aggregation:
                    self.meter.record_batch(
                        clients.client_ids[survivors].tolist(), self.metric_name
                    )
            live_assignment = assignment[survivors]

            shard_failures = 0
            if self.secure_aggregation:
                # Hierarchical sharded sessions over the *planned* cohort:
                # dropped clients are real intra-session dropouts, recovered
                # per shard; a below-threshold shard is excluded and the
                # round degrades instead of aborting.
                with tracer.span(
                    "round.secure_agg",
                    {
                        "n_clients": int(survivors.size),
                        "shard_size": self.shard_size,
                    },
                ) as secure_span:
                    sums, counts, secure = self._secure_collect(
                        values, alive, assignment, gen, shard_blackout=shard_blackout
                    )
                    included = secure.included
                    shard_failures = len(secure.failed_shards)
                    secure_span.set_attribute("shards", len(secure.shards))
                    secure_span.set_attribute("shard_failures", shard_failures)
                    secure_span.set_attribute("included_clients", int(included.size))
                survived_count = int(included.size)
                lifecycle.check_quorum(round_span, n, survived_count, secure=True)
                if self.meter is not None:
                    self.meter.record_batch(
                        clients.client_ids[included].tolist(), self.metric_name
                    )
            else:
                # Chunk-streamed encode + extract + perturb + aggregate
                # (client_plane.collect spans per chunk); bit-identical to
                # the historical encode-then-collect_bit_reports for any
                # chunk size.
                with tracer.span("round.collect", {"n_clients": int(survivors.size)}):
                    sums, counts = collect_client_reports(
                        values,
                        self.encoder,
                        live_assignment,
                        self.perturbation,
                        gen,
                        chunk=self.chunk_clients,
                    )
                survived_count = int(survivors.size)
            return lifecycle.complete(
                round_span,
                schedule,
                sums,
                counts,
                n,
                survived_count,
                duration,
                live_assignment,
                shard_failures,
            )

    # ------------------------------------------------------------------
    def _adjust_schedule(
        self, schedule: BitSamplingSchedule, n_planned: int
    ) -> BitSamplingSchedule:
        """Dropout-aware floor on sampled bits' probabilities.

        With an expected survival fraction ``s``, a bit needs probability
        ``>= min_reports / (s * n)`` to expect ``min_reports`` reports.  We
        raise sampled bits to that floor and renormalize; unsampled bits
        (probability 0) stay unsampled.
        """
        if self.min_reports_per_bit == 0:
            return schedule
        expected_survivors = max(n_planned * self.dropout_tracker.expected_survival, 1.0)
        floor = self.min_reports_per_bit / expected_survivors
        probs = schedule.probabilities.copy()
        support = probs > 0
        k = int(support.sum())
        if floor * k >= 1.0:
            # Floor infeasible: fall back to uniform over the support.
            probs[support] = 1.0 / k
            return BitSamplingSchedule(probs)
        # Mix toward the floor so every sampled bit keeps >= floor *after*
        # normalization: p' = (1 - floor k) p + floor on the support.
        probs[support] = (1.0 - floor * k) * probs[support] + floor
        return BitSamplingSchedule(probs)

    # ------------------------------------------------------------------
    def _secure_collect(
        self,
        values: np.ndarray,
        alive: np.ndarray,
        assignment: np.ndarray,
        gen: np.random.Generator,
        shard_blackout: Sequence[int] = (),
    ) -> tuple[np.ndarray, np.ndarray, HierarchicalResult]:
        """Aggregate per-bit counters through hierarchical secure aggregation.

        The *planned* cohort is sharded (``alive`` marks who survived
        dropout/network, ``values`` holds one elicited value per survivor),
        so clients lost mid-round are real intra-session dropouts: each
        shard's survivors reveal seeds, Shamir reconstruction runs, and a
        shard that falls below its 2/3 threshold is excluded rather than
        fatal -- the caller degrades the round.  Each client contributes a
        ``2 * n_bits`` vector: a one-hot report-count half and a bit-value
        half.  Shard submission matrices are built lazily one shard at a
        time (and :func:`aggregate_shards` keeps at most ``REPRO_WORKERS``
        shard groups in flight), so secure mode no longer materializes
        cohort-sized 2-D arrays; a remainder of one client folds into the
        previous shard instead of leaking its counter in plaintext.
        ``shard_blackout`` empties the named shards' submissions (scripted
        fault injection).
        """
        n_bits = self.encoder.n_bits
        n = int(alive.size)
        length = 2 * n_bits
        # Per-survivor bit reports (1-D, one scalar per client).
        survivor_pos = np.cumsum(alive) - 1
        encoded = self.encoder.encode(np.asarray(values))
        bits = (
            (encoded >> assignment[alive].astype(np.uint64)) & np.uint64(1)
        ).astype(np.uint8)
        if self.perturbation is not None:
            bits = self.perturbation.perturb_bits(bits, gen)
        blackout = frozenset(int(s) for s in shard_blackout)

        def tasks():
            for index, (lo, hi) in enumerate(shard_bounds(n, self.shard_size)):
                local_ids = np.flatnonzero(alive[lo:hi])
                if index in blackout:
                    local_ids = local_ids[:0]
                rows = np.arange(local_ids.size)
                cols = assignment[lo + local_ids]
                vectors = np.zeros((local_ids.size, length), dtype=np.int64)
                vectors[rows, cols] = 1
                vectors[rows, n_bits + cols] = bits[survivor_pos[lo + local_ids]]
                yield ShardTask(
                    index=index,
                    start=lo,
                    n_clients=hi - lo,
                    submitted_ids=local_ids,
                    vectors=vectors,
                )

        result = aggregate_shards(tasks(), length, rng=gen, workers=None)
        counts = result.total[:n_bits].astype(np.int64)
        sums = result.total[n_bits:].astype(np.float64)
        included = result.included
        # Always-on invariant: the masked aggregate must equal the plaintext
        # aggregate exactly over the clients it contains (the simulator holds
        # both sides; O(n) next to the O(shard**2) masking work).  Lazy
        # import: repro.verification pulls in estimator modules that
        # themselves import this package.
        from repro.verification.invariants import check_secure_sum

        included_assign = assignment[included]
        included_bits = bits[survivor_pos[included]]
        check_secure_sum(
            counts,
            np.bincount(included_assign, minlength=n_bits).astype(np.int64),
            context="secure-agg per-bit counts",
        )
        check_secure_sum(
            sums,
            np.bincount(
                included_assign, weights=included_bits.astype(np.float64), minlength=n_bits
            ),
            context="secure-agg per-bit sums",
        )
        return sums, counts, result
