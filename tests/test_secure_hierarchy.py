"""Hierarchical secure aggregation: twin tests, shard recovery, server wiring.

The contract under test (PR tentpole): hierarchical secure sum == flat
``secure_sum`` == plaintext, across shard trees, worker counts, and scripted
per-shard dropout patterns -- and a shard falling below its threshold
degrades the round instead of aborting it.
"""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from repro.core import FixedPointEncoder
from repro.exceptions import ConfigurationError, RoundFailedError, SecureAggregationError
from repro.federated import ClientBatch, DropoutModel, FederatedMeanQuery
from repro.federated.faults import FaultEvent, FaultSchedule
from repro.federated.secure_agg import (
    SecureAggregationSession,
    default_threshold,
    hierarchical_secure_sum,
    secure_sum,
    shard_bounds,
)
from repro.federated.secure_agg.protocol import ShardGroup
from repro.metrics.execution import spawn_seed_sequences
from repro.observability import (
    HealthMonitor,
    MetricsRegistry,
    configure,
    disable,
)
from repro.observability.health import ShardFailureRule
from repro.privacy.accountant import BitMeter


@pytest.fixture
def encoder():
    return FixedPointEncoder.for_integers(8)


def make_population(n, value=170.0):
    return ClientBatch.from_values(np.full(n, value))


class TestShardBounds:
    @pytest.mark.parametrize("shard_size", [2, 3, 4, 16, 32])
    @pytest.mark.parametrize("n", list(range(2, 70)))
    def test_every_residue_has_no_singleton_shard(self, n, shard_size):
        """Regression for the lone-client plaintext leak: for every value of
        ``n % shard_size`` the partition must cover [0, n) contiguously with
        no shard smaller than 2 clients."""
        bounds = shard_bounds(n, shard_size)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2
        assert all(hi - lo >= 2 for lo, hi in bounds)
        assert all(hi - lo <= shard_size + 1 for lo, hi in bounds)

    def test_remainder_of_one_folds_into_previous_shard(self):
        assert shard_bounds(33, 32) == [(0, 33)]
        assert shard_bounds(9, 4) == [(0, 4), (4, 9)]

    def test_single_client_is_a_singleton_shard(self):
        # Nothing to fold into; the aggregator fails it instead of leaking.
        assert shard_bounds(1, 4) == [(0, 1)]

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(10, 1)
        with pytest.raises(ConfigurationError):
            shard_bounds(-1, 4)


class TestHierarchicalTwin:
    @pytest.mark.parametrize("shard_size", [2, 5, 8, 64])
    def test_matches_flat_and_plaintext_full_participation(self, shard_size, rng):
        vecs = rng.integers(0, 1000, size=(41, 6))
        plain = vecs.sum(axis=0)
        flat = secure_sum(vecs, rng=0)
        result = hierarchical_secure_sum(vecs, shard_size=shard_size, rng=1)
        np.testing.assert_array_equal(flat, plain)
        np.testing.assert_array_equal(result.total, plain)
        assert not result.failed_shards
        assert result.included_submitters == 41

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_dropout_matches_plaintext_over_included(self, seed):
        draw = np.random.default_rng(seed)
        vecs = draw.integers(0, 100, size=(50, 4))
        submitted = draw.random(50) > 0.25
        result = hierarchical_secure_sum(
            vecs, submitted=submitted, shard_size=8, rng=seed
        )
        included = result.included
        assert submitted[included].all()
        np.testing.assert_array_equal(result.total, vecs[included].sum(axis=0))
        # Every recovered shard kept all of its submitters.
        recovered_submitters = sum(s.submitted for s in result.shards if s.recovered)
        assert included.size == recovered_submitters

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_for_any_worker_count(self, workers):
        draw = np.random.default_rng(3)
        vecs = draw.integers(0, 200, size=(37, 5))
        submitted = draw.random(37) > 0.2
        result = hierarchical_secure_sum(
            vecs,
            submitted=submitted,
            shard_size=6,
            workers=workers,
            rng=np.random.default_rng(11),
        )
        reference = hierarchical_secure_sum(
            vecs,
            submitted=submitted,
            shard_size=6,
            workers=1,
            rng=np.random.default_rng(11),
        )
        np.testing.assert_array_equal(result.total, reference.total)
        assert [s.recovered for s in result.shards] == [
            s.recovered for s in reference.shards
        ]

    def test_whole_shard_blackout_is_contained(self):
        vecs = np.ones((24, 3), dtype=np.int64)
        submitted = np.ones(24, dtype=bool)
        submitted[8:16] = False  # shard 1 of shard_size=8 goes dark
        result = hierarchical_secure_sum(vecs, submitted=submitted, shard_size=8, rng=5)
        assert [s.index for s in result.failed_shards] == [1]
        assert result.excluded_clients == 8
        np.testing.assert_array_equal(result.total, np.full(3, 16))

    def test_below_threshold_shard_excluded_not_fatal(self):
        vecs = np.arange(30).reshape(10, 3)
        submitted = np.ones(10, dtype=bool)
        submitted[[0, 1, 2]] = False  # 2/5 submitted < threshold 4 in shard 0
        result = hierarchical_secure_sum(vecs, submitted=submitted, shard_size=5, rng=6)
        assert len(result.failed_shards) == 1
        assert result.failed_shards[0].index == 0
        np.testing.assert_array_equal(result.total, vecs[5:].sum(axis=0))

    def test_shard_metrics_recorded(self):
        registry = MetricsRegistry()
        configure(metrics=registry)
        try:
            vecs = np.ones((12, 2), dtype=np.int64)
            submitted = np.ones(12, dtype=bool)
            submitted[:6] = False
            hierarchical_secure_sum(vecs, submitted=submitted, shard_size=6, rng=7)
            counters = registry.snapshot()["counters"]
            assert counters["secure_shards_total"] == 2
            assert counters["secure_shard_failures_total"] == 1
            assert counters["secure_clients_excluded_total"] == 6
        finally:
            disable()


class _ReferenceShard(NamedTuple):
    lo: int
    hi: int
    child: np.random.SeedSequence
    ids: np.ndarray
    session: SecureAggregationSession
    masked: np.ndarray


class TestShardGroupKernels:
    """Group passes against one fresh session per shard, seeded alike.

    Shard ``i`` of a tree seeded with ``rng`` draws its setup from the
    ``i``-th spawned child, so a lone :class:`SecureAggregationSession`
    built from that child is the reference for every shard, whatever
    group the shard ran in.
    """

    LENGTH = 3

    def cohort(self, n, shard_size, seed):
        draw = np.random.default_rng(seed)
        vecs = draw.integers(-50, 1000, size=(n, self.LENGTH))
        submitted = draw.random(n) > 0.2
        submitted[shard_size : 2 * shard_size] = False  # shard 1 blacks out
        return vecs, submitted

    def sessions(self, n, shard_size, seed, vecs, submitted):
        bounds = shard_bounds(n, shard_size)
        children, bitgen_cls = spawn_seed_sequences(np.random.default_rng(seed), len(bounds))
        for (lo, hi), child in zip(bounds, children):
            session = SecureAggregationSession(
                hi - lo,
                self.LENGTH,
                default_threshold(hi - lo),
                rng=np.random.Generator(bitgen_cls(child)),
            )
            ids = np.flatnonzero(submitted[lo:hi])
            masked = session.submit_batch(ids, vecs[lo:hi][ids])
            yield _ReferenceShard(lo, hi, child, ids, session, masked)

    @pytest.mark.parametrize("shard_size", [2, 3, 5, 8, 32])
    def test_outcomes_and_masked_rows_match_fresh_sessions(self, shard_size, monkeypatch):
        """Every residue of the cohort size (a folded ``n % k == 1`` tail, a
        short last shard), random dropout plus a blacked-out shard, so one
        group pass holds recovered and failed shards."""
        masked_rows = []
        mask = ShardGroup.mask

        def recording_mask(group, shard, client, rows):
            masked_rows.append(mask(group, shard, client, rows))
            return masked_rows[-1]

        monkeypatch.setattr(ShardGroup, "mask", recording_mask)
        for n in range(4 * shard_size, 5 * shard_size):
            seed = 1000 * shard_size + n
            vecs, submitted = self.cohort(n, shard_size, seed)
            masked_rows.clear()
            result = hierarchical_secure_sum(
                vecs, submitted, shard_size, workers=1, rng=np.random.default_rng(seed)
            )
            tree_rows = np.concatenate(masked_rows)
            refs = list(self.sessions(n, shard_size, seed, vecs, submitted))
            assert len(result.shards) == len(refs)
            for outcome, ref in zip(result.shards, refs):
                try:
                    total = np.array(ref.session.finalize(), dtype=np.int64)
                except SecureAggregationError:
                    total = None
                assert outcome.threshold == ref.session.threshold
                assert outcome.recovered == (total is not None)
                np.testing.assert_array_equal(outcome.submitted_global_ids, ref.lo + ref.ids)
                if total is None:
                    assert outcome.total is None
                else:
                    np.testing.assert_array_equal(outcome.total, total)
            assert not result.shards[1].recovered
            assert any(s.recovered for s in result.shards)
            # Group passes mask shard-major in submitted-id order, like the
            # sessions' submit_batch calls.
            np.testing.assert_array_equal(tree_rows, np.concatenate([ref.masked for ref in refs]))


class TestBoundedWorkingSet:
    def test_peak_traced_bytes_do_not_grow_with_the_cohort(self):
        """Group passes are sized by a fixed Philox budget, not by the
        cohort: the tree's peak working set (its input excluded) at 4x the
        clients stays within 1.5x -- only the per-shard ledger grows."""

        def peak_bytes(n):
            draw = np.random.default_rng(n)
            vecs = draw.integers(0, 2, size=(n, 20))
            submitted = draw.random(n) > 0.05
            tracemalloc.start()
            try:
                hierarchical_secure_sum(vecs, submitted, 32, workers=1, rng=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(4_000), peak_bytes(16_000)
        assert large / small <= 1.5, (small, large)


class TestServerSecureRounds:
    """The hierarchical plane wired into FederatedMeanQuery rounds."""

    @pytest.mark.parametrize("n", [17, 33, 47, 48, 49])
    def test_every_residue_stays_exact_vs_plain(self, encoder, n):
        """No client is ever aggregated outside a masking session: the
        always-on check_secure_sum invariant inside _secure_collect would
        raise on any leak, and the estimate must match plaintext exactly."""
        population = make_population(n)
        plain = FederatedMeanQuery(encoder, mode="basic")
        secure = FederatedMeanQuery(
            encoder, mode="basic", secure_aggregation=True, shard_size=16
        )
        est_plain = plain.run(population, rng=7)
        est_secure = secure.run(population, rng=7)
        np.testing.assert_array_equal(est_plain.counts, est_secure.counts)
        assert est_plain.value == est_secure.value

    def test_dropout_routes_into_sessions_and_stays_exact(self, encoder):
        """Mid-round dropout becomes intra-session dropout; recovery keeps the
        masked aggregate bit-exact vs plaintext (internal invariant), and the
        round completes with the included clients."""
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            dropout=DropoutModel(rate=0.2, jitter=0.0),
        )
        est = query.run(make_population(64), rng=3)
        assert est.metadata["surviving_clients"][0] <= 64
        assert est.metadata["surviving_clients"][0] > 0

    def test_worker_counts_agree_on_server_rounds(self, encoder, monkeypatch):
        population = make_population(40)

        def run_with(workers):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            query = FederatedMeanQuery(
                encoder,
                mode="basic",
                secure_aggregation=True,
                shard_size=8,
                dropout=DropoutModel(rate=0.15, jitter=0.0),
            )
            return query.run(population, rng=21)

        est1 = run_with(1)
        est2 = run_with(3)
        np.testing.assert_array_equal(est1.counts, est2.counts)
        assert est1.value == est2.value

    def test_shard_blackout_fault_degrades_not_aborts(self, encoder):
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            faults=FaultSchedule([FaultEvent(first_round=1, shard_blackout=(0,))]),
        )
        est = query.run(make_population(32), rng=4)
        assert est.metadata["degraded_rounds"] == [True]
        assert est.metadata["surviving_clients"] == [24]
        assert est.metadata["variance_inflation"][0] == pytest.approx(32 / 24)

    def test_all_shards_blacked_out_fails_quorum(self, encoder):
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            faults=FaultSchedule(
                [FaultEvent(first_round=1, shard_blackout=(0, 1))]
            ),
        )
        with pytest.raises(RoundFailedError):
            query.run(make_population(16), rng=4)

    def test_meter_records_only_included_clients(self, encoder):
        meter = BitMeter(max_bits_per_value=1)
        query = FederatedMeanQuery(
            encoder,
            mode="basic",
            secure_aggregation=True,
            shard_size=8,
            meter=meter,
            faults=FaultSchedule([FaultEvent(first_round=1, shard_blackout=(1,))]),
        )
        query.run(make_population(24), rng=5)
        # Shard 1's clients (ids 8..15) disclosed nothing: their masked rows
        # were never unmasked.
        included = set(range(8)) | set(range(16, 24))
        for cid in range(24):
            expected = 1 if cid in included else 0
            assert meter.bits_disclosed_by(cid) == expected, cid

    def test_shard_failure_health_rule_fires_and_resolves(self, encoder):
        registry = MetricsRegistry()
        configure(metrics=registry)
        try:
            monitor = HealthMonitor(
                rules=[ShardFailureRule(window=2)], metrics=registry
            )
            population = make_population(32)
            # Adaptive mode runs two rounds: round 1 is the clean baseline
            # for the counter-delta window, round 2 blacks out shard 0.
            faulty = FederatedMeanQuery(
                encoder,
                mode="adaptive",
                secure_aggregation=True,
                shard_size=8,
                faults=FaultSchedule(
                    [FaultEvent(first_round=2, shard_blackout=(0,))]
                ),
                health=monitor,
            )
            faulty.run(population, rng=6)  # fires on round 2
            clean = FederatedMeanQuery(
                encoder,
                mode="adaptive",
                secure_aggregation=True,
                shard_size=8,
                health=monitor,
            )
            clean.run(population, rng=7)  # two clean rounds push it out
            states = [(e.rule, e.state) for e in monitor.events]
            assert ("shard-failure", "fired") in states
            assert ("shard-failure", "resolved") in states
        finally:
            disable()
