"""Hierarchical (sharded) secure aggregation with per-shard dropout recovery.

A single flat masking session is O(n**2) in both setup and recovery, which
is why a central aggregator bottlenecks past a few hundred clients (the
DisAgg line of work distributes exactly this).  This module arranges the
cohort as a two-level tree instead:

* **Leaves**: contiguous *shards* of ``shard_size`` clients, each an
  independent masking session with the canonical 2/3 threshold.  Dropout
  recovery -- survivor seed reveal plus Shamir reconstruction -- happens
  *inside* the shard, so a client's disappearance costs O(shard_size)
  work, not O(n).
* **Root**: per-shard partial sums are already unmasked exact integers, so
  the root aggregator is plain integer addition -- commutative and exact,
  which makes the merge order (and therefore the worker schedule) irrelevant
  to the result.

**Failure containment.**  A shard whose submissions fall below its threshold
cannot be unmasked; it is reported as *failed* (``recovered=False``) and its
clients are excluded from the total, but the other shards' sums still
aggregate.  Callers degrade rather than abort: the server widens the round's
variance accounting and raises a health alert instead of failing the round.

**Group passes.**  Consecutive shards of equal size run together as one
:class:`~repro.federated.secure_agg.protocol.ShardGroup`: setup, masking
and recovery are kernel passes over arrays with a leading shard axis, so
Python overhead is paid per group, not per shard.  The group size comes
from one fixed budget, :data:`PHILOX_BLOCKS_PER_PASS`: enough shards to
amortize the per-pass numpy calls, few enough that a pass's buffers stay
cache-sized and peak memory does not grow with the cohort.

**Parallelism.**  Groups are independent, so they fan out over a
``fork``-based process pool (one group per task, bounded by ``workers``).
Determinism follows the executor discipline of
:func:`repro.metrics.execution.spawn_seed_sequences`: shard ``i`` always
seeds its setup from the ``i``-th spawned child of the caller's generator,
whatever group it lands in, so results are bit-identical for every worker
count and completion order.  Workers run with tracing disabled and ship a
private metrics snapshot back for the parent to merge, exactly like the
trial executors.  Shard inputs are consumed lazily with at most ``workers``
groups in flight, so aggregating a large cohort never materializes
cohort-sized arrays.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SecureAggregationError
from repro.federated.secure_agg.field import PrimeField
from repro.federated.secure_agg.protocol import ShardGroup, default_threshold, finalize_span
from repro.metrics.execution import (
    _FORK_AVAILABLE,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.observability import get_metrics, get_tracer
from repro.rng import ensure_rng

__all__ = [
    "ShardTask",
    "ShardOutcome",
    "HierarchicalResult",
    "shard_bounds",
    "aggregate_shards",
    "hierarchical_secure_sum",
]


#: Philox blocks (four 64-bit words each) one group pass may expand for
#: masking.  Shards join a group until their pair and self seeds would
#: pass this budget: about 2-4k pair seeds per pass at the round's vector
#: lengths, where the kernels run at their cache sweet spot.
PHILOX_BLOCKS_PER_PASS = 1 << 14


def shards_per_pass(n_clients: int, vector_length: int) -> int:
    """How many ``n_clients``-client shards one group pass holds."""
    seeds = n_clients * (n_clients - 1) // 2 + n_clients
    blocks = -(-vector_length // 4)
    return max(1, PHILOX_BLOCKS_PER_PASS // (seeds * blocks))


def shard_bounds(n_clients: int, shard_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard bounds over ``n_clients``.

    A remainder of exactly one client folds into the previous shard instead
    of standing alone: a lone client cannot be masked against peers, and the
    historical fallback of adding its counter to the aggregate in the clear
    was a plaintext leak (the ``n % shard_size == 1`` bug).  The last shard
    may therefore hold ``shard_size + 1`` clients.  ``n_clients == 1`` still
    yields a single singleton shard -- there is no previous shard to fold
    into -- which the aggregator reports as failed rather than leaking.
    """
    if shard_size < 2:
        raise ConfigurationError(f"shard_size must be >= 2, got {shard_size}")
    if n_clients < 0:
        raise ConfigurationError(f"n_clients must be >= 0, got {n_clients}")
    starts = list(range(0, n_clients, shard_size))
    if len(starts) > 1 and n_clients - starts[-1] == 1:
        starts.pop()
    return [
        (start, stop)
        for start, stop in zip(starts, starts[1:] + [n_clients])
    ]


@dataclass(frozen=True)
class ShardTask:
    """One shard's input to the aggregation tree.

    ``submitted_ids`` are *shard-local* client ids (``0 .. n_clients - 1``)
    that actually submit; ``vectors`` holds one row per submitted id, in the
    same order.  Clients present in the shard but absent from
    ``submitted_ids`` are the shard's dropouts -- the session recovers their
    masks from the survivors.
    """

    index: int
    start: int
    n_clients: int
    submitted_ids: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's result: the partial sum, or a contained failure.

    ``submitted_global_ids`` are the cohort-level indices of the clients
    whose vectors this shard's session actually contains (``start`` plus
    the task's shard-local submitted ids).
    """

    index: int
    start: int
    n_clients: int
    submitted_global_ids: np.ndarray
    threshold: int
    recovered: bool
    total: np.ndarray | None
    duration_s: float = 0.0

    @property
    def submitted(self) -> int:
        return int(self.submitted_global_ids.size)

    @property
    def dropouts(self) -> int:
        return self.n_clients - self.submitted


@dataclass(frozen=True)
class HierarchicalResult:
    """Root-level aggregate plus the per-shard ledger.

    ``total`` sums the *recovered* shards only; ``included`` /
    ``excluded`` partition the cohort's global client indices accordingly,
    so callers can reconcile the aggregate against exactly the clients it
    contains.
    """

    total: np.ndarray
    shards: tuple[ShardOutcome, ...]

    @property
    def failed_shards(self) -> tuple[ShardOutcome, ...]:
        return tuple(s for s in self.shards if not s.recovered)

    @property
    def included(self) -> np.ndarray:
        """Global indices of the submitted clients inside recovered shards.

        Exactly the clients whose vectors :attr:`total` contains.
        """
        parts = [s.submitted_global_ids for s in self.shards if s.recovered]
        return (
            np.concatenate(parts).astype(np.int64)
            if parts
            else np.empty(0, dtype=np.int64)
        )

    @property
    def included_submitters(self) -> int:
        return sum(s.submitted for s in self.shards if s.recovered)

    @property
    def excluded_clients(self) -> int:
        return sum(s.n_clients for s in self.shards if not s.recovered)


def _execute_group(
    tasks: Sequence[ShardTask],
    vector_length: int,
    seeds: Sequence[np.random.SeedSequence],
    bitgen_cls: type,
) -> list[ShardOutcome]:
    """Run a group of equal-size shards as one kernel pass (any process).

    Shard ``g`` draws its setup from ``seeds[g]`` alone, so its outcome does
    not depend on which group it ran in.  A shard that cannot complete -- a
    singleton (no peer to mask against) or a below-threshold survivor set
    -- returns ``recovered=False`` instead of raising: shard failure is a
    contained, reportable outcome, not an error of the tree.  Each
    outcome's ``duration_s`` is its equal share of the group pass.
    """
    start = time.perf_counter()
    n = tasks[0].n_clients
    field = PrimeField()
    for task in tasks:
        if np.shape(task.vectors) != (len(task.submitted_ids), vector_length):
            raise ConfigurationError(
                f"shard {task.index}: expected a ({len(task.submitted_ids)}, "
                f"{vector_length}) vector batch, got {np.shape(task.vectors)}"
            )
    shard = np.repeat(np.arange(len(tasks)), [len(t.submitted_ids) for t in tasks])
    client = np.concatenate([np.asarray(t.submitted_ids, dtype=np.intp) for t in tasks])
    if client.size and not (client.min() >= 0 and client.max() < n):
        raise ConfigurationError(f"submitted ids outside a {n}-client shard")
    submitted = np.zeros((len(tasks), n), dtype=bool)
    submitted[shard, client] = True
    if np.count_nonzero(submitted) != client.size:
        raise SecureAggregationError("a client submitted twice to one shard")
    threshold = 2
    if n >= 2:
        threshold = default_threshold(n)
        group = ShardGroup.setup(
            [np.random.Generator(bitgen_cls(seed)) for seed in seeds], n, threshold, field
        )
        vectors = field.reduce_array(np.concatenate([t.vectors for t in tasks]))
        totals = group.unmask(submitted, group.mask(shard, client, vectors), shard)
    share_s = (time.perf_counter() - start) / len(tasks)
    outcomes = []
    for g, task in enumerate(tasks):
        total = None
        if n >= 2:
            try:
                with finalize_span(n, int(submitted[g].sum()), threshold):
                    total = field.centered_array(totals[g])
            except SecureAggregationError:
                pass
        outcomes.append(
            ShardOutcome(
                index=task.index,
                start=task.start,
                n_clients=n,
                submitted_global_ids=(task.start + np.asarray(task.submitted_ids)).astype(
                    np.int64
                ),
                threshold=threshold,
                recovered=total is not None,
                total=total,
                duration_s=share_s,
            )
        )
    return outcomes


def _forked_group(
    tasks: Sequence[ShardTask],
    vector_length: int,
    seeds: Sequence[np.random.SeedSequence],
    bitgen_cls: type,
    parent_metrics_enabled: bool,
) -> tuple[list[ShardOutcome], dict | None]:
    """Worker entry point: one shard group with worker-private observability.

    Mirrors the trial executors' fork discipline: tracing off (a forked
    exporter would interleave writes on the shared descriptor), metrics into
    a private registry whose snapshot rides back for the parent to merge --
    so session counters match serial execution exactly.
    """
    from repro import observability
    from repro.observability import MetricsRegistry

    observability.disable()
    worker_metrics: MetricsRegistry | None = None
    if parent_metrics_enabled:
        worker_metrics = MetricsRegistry()
        observability.configure(metrics=worker_metrics)
    outcomes = _execute_group(tasks, vector_length, seeds, bitgen_cls)
    return outcomes, worker_metrics.snapshot() if worker_metrics is not None else None


def _record_shard(outcome: ShardOutcome, tracer, metrics) -> None:
    """Fold one shard outcome into the parent's spans and counters."""
    attrs = {
        "shard": outcome.index,
        "planned": outcome.n_clients,
        "submitted": outcome.submitted,
        "threshold": outcome.threshold,
        "recovered": outcome.recovered,
        "duration_s": outcome.duration_s,
    }
    with tracer.span("shard.session", attrs):
        pass
    if not outcome.recovered:
        with tracer.span(
            "shard.failed",
            {
                "shard": outcome.index,
                "planned": outcome.n_clients,
                "submitted": outcome.submitted,
                "threshold": outcome.threshold,
            },
        ):
            pass
    if metrics.enabled:
        metrics.counter("secure_shards_total").inc()
        if not outcome.recovered:
            metrics.counter("secure_shard_failures_total").inc()
            metrics.counter("secure_clients_excluded_total").inc(outcome.n_clients)


def aggregate_shards(
    tasks: Iterable[ShardTask],
    vector_length: int,
    rng: np.random.Generator | int | None = None,
    workers: int | None = None,
) -> HierarchicalResult:
    """Run every shard's session and merge the recovered partial sums.

    Consecutive equal-size shards run together in group passes of at most
    :func:`shards_per_pass` shards.  ``tasks`` is consumed lazily: with
    ``workers > 1`` at most ``workers`` groups are in flight at once, so
    callers can stream shard inputs without ever holding the whole cohort
    in memory.  Shard ``i`` is seeded from the ``i``-th spawned child of
    ``rng`` regardless of grouping or scheduling, so the result is
    bit-identical for every worker count (asserted by the twin tests).

    ``workers=None`` reads ``REPRO_WORKERS`` (the executor convention).
    Falls back to serial execution when ``fork`` is unavailable.
    """
    gen = ensure_rng(rng)
    n_workers = resolve_workers(workers)
    tracer = get_tracer()
    metrics = get_metrics()
    task_list = tasks if isinstance(tasks, Sequence) else None

    def grouped(task_iter: Iterable[ShardTask]) -> Iterator[tuple[list, list, type]]:
        # Spawn seeds in shard order off the parent sequence.  One spawn
        # call per shard keeps the iterator lazy; children are identical to
        # a single batched spawn (SeedSequence.spawn is a counter walk).
        group: list[ShardTask] = []
        seeds: list[np.random.SeedSequence] = []
        for task in task_iter:
            if group and (
                task.n_clients != group[0].n_clients
                or len(group) >= shards_per_pass(group[0].n_clients, vector_length)
            ):
                yield group, seeds, bitgen_cls
                group, seeds = [], []
            (seed,), bitgen_cls = spawn_seed_sequences(gen, 1)
            group.append(task)
            seeds.append(seed)
        if group:
            yield group, seeds, bitgen_cls

    outcomes: list[ShardOutcome] = []
    use_pool = n_workers > 1 and _FORK_AVAILABLE and (
        task_list is None or len(task_list) > 1
    )
    source = grouped(task_list if task_list is not None else tasks)
    if not use_pool:
        for group, seeds, bitgen_cls in source:
            for outcome in _execute_group(group, vector_length, seeds, bitgen_cls):
                _record_shard(outcome, tracer, metrics)
                outcomes.append(outcome)
    else:
        context = multiprocessing.get_context("fork")
        parent_metrics_enabled = metrics.enabled
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=context) as pool:
            pending = set()

            def drain(done_set) -> None:
                for future in done_set:
                    group_outcomes, snapshot = future.result()
                    for outcome in group_outcomes:
                        _record_shard(outcome, tracer, metrics)
                    if snapshot is not None and metrics.enabled:
                        metrics.merge_snapshot(snapshot)
                    outcomes.extend(group_outcomes)

            for group, seeds, bitgen_cls in source:
                if len(pending) >= n_workers:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    drain(done)
                pending.add(
                    pool.submit(
                        _forked_group,
                        group,
                        vector_length,
                        seeds,
                        bitgen_cls,
                        parent_metrics_enabled,
                    )
                )
            done, _ = wait(pending)
            drain(done)

    outcomes.sort(key=lambda o: o.index)
    total = np.zeros(vector_length, dtype=np.int64)
    for outcome in outcomes:
        if outcome.recovered and outcome.total is not None:
            total += outcome.total
    return HierarchicalResult(total=total, shards=tuple(outcomes))


def hierarchical_secure_sum(
    vectors: np.ndarray,
    submitted: np.ndarray | None = None,
    shard_size: int = 32,
    workers: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> HierarchicalResult:
    """Securely sum client row-vectors through the shard tree.

    The hierarchical twin of
    :func:`~repro.federated.secure_agg.protocol.secure_sum`: same exact
    integer total over the included clients, O(shard_size**2) masking work
    per shard instead of O(n**2) overall, and per-shard failure containment.
    ``submitted`` marks which clients submit (all, by default); a shard whose
    survivors fall below its 2/3 threshold is excluded, not fatal -- inspect
    :attr:`HierarchicalResult.failed_shards`.

    Examples
    --------
    >>> import numpy as np
    >>> vecs = np.ones((10, 3), dtype=np.int64)
    >>> result = hierarchical_secure_sum(vecs, shard_size=4, rng=0)
    >>> result.total.tolist()
    [10, 10, 10]
    >>> len(result.shards)
    3
    """
    vecs = np.asarray(vectors)
    if vecs.ndim != 2:
        raise ConfigurationError(f"expected a 2-D (clients x length) array, got {vecs.shape}")
    n_clients, length = vecs.shape
    if submitted is None:
        submitted = np.ones(n_clients, dtype=bool)
    submitted = np.asarray(submitted, dtype=bool)
    if submitted.shape != (n_clients,):
        raise ConfigurationError("submitted mask must have one entry per client")

    def tasks() -> Iterator[ShardTask]:
        for index, (start, stop) in enumerate(shard_bounds(n_clients, shard_size)):
            local_ids = np.flatnonzero(submitted[start:stop])
            yield ShardTask(
                index=index,
                start=start,
                n_clients=stop - start,
                submitted_ids=local_ids,
                vectors=vecs[start:stop][local_ids],
            )

    with get_tracer().span(
        "secure_agg.hierarchy",
        {"n_clients": n_clients, "shard_size": shard_size},
    ):
        return aggregate_shards(tasks(), length, rng=rng, workers=workers)
