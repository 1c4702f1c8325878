"""Focused tests for FederatedMeanQuery internals and round accounting."""

import numpy as np
import pytest

from repro.core import BitSamplingSchedule, FixedPointEncoder
from repro.federated import ClientBatch, DropoutModel, FederatedMeanQuery
from repro.federated.server import RoundOutcome


def make_population(n=500, value=100.0):
    return ClientBatch.from_values(np.full(n, value))


@pytest.fixture
def encoder():
    return FixedPointEncoder.for_integers(8)


class TestScheduleAdjustment:
    def test_no_floor_is_identity(self, encoder):
        query = FederatedMeanQuery(encoder, min_reports_per_bit=0)
        schedule = BitSamplingSchedule.weighted(8, 1.0)
        adjusted = query._adjust_schedule(schedule, 1_000)
        np.testing.assert_array_equal(adjusted.probabilities, schedule.probabilities)

    def test_floor_raises_rare_bits(self, encoder):
        query = FederatedMeanQuery(encoder, min_reports_per_bit=20)
        schedule = BitSamplingSchedule.weighted(8, 1.0)
        adjusted = query._adjust_schedule(schedule, 1_000)
        # Every sampled bit must expect >= 20 reports out of 1000.
        assert adjusted.probabilities.min() >= 20 / 1_000 - 1e-12
        assert adjusted.probabilities.sum() == pytest.approx(1.0)

    def test_floor_respects_zero_probability_bits(self, encoder):
        query = FederatedMeanQuery(encoder, min_reports_per_bit=10)
        schedule = BitSamplingSchedule.from_bit_means(
            np.array([0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0])
        )
        adjusted = query._adjust_schedule(schedule, 1_000)
        assert (adjusted.probabilities[schedule.probabilities == 0] == 0).all()

    def test_floor_accounts_for_expected_dropout(self, encoder):
        query = FederatedMeanQuery(
            encoder, dropout=DropoutModel(0.5), min_reports_per_bit=20
        )
        # Tracker primed with the model's rate at construction.
        schedule = BitSamplingSchedule.weighted(8, 1.0)
        adjusted = query._adjust_schedule(schedule, 1_000)
        # Only ~500 survivors expected -> floor must be ~20/500.
        assert adjusted.probabilities.min() >= 20 / 500 - 1e-12

    def test_infeasible_floor_uniformizes_support(self, encoder):
        query = FederatedMeanQuery(encoder, min_reports_per_bit=500)
        schedule = BitSamplingSchedule.weighted(8, 1.0)
        adjusted = query._adjust_schedule(schedule, 1_000)
        np.testing.assert_allclose(adjusted.probabilities, 1.0 / 8)


class TestRoundOutcome:
    def test_dropout_rate(self):
        from repro.core.results import RoundSummary

        summary = RoundSummary(
            probabilities=np.ones(1), counts=np.array([80]),
            sums=np.zeros(1), bit_means=np.zeros(1), n_clients=80,
        )
        outcome = RoundOutcome(summary, planned_clients=100, surviving_clients=80,
                               round_duration_s=12.0)
        assert outcome.dropout_rate == pytest.approx(0.2)

    def test_zero_planned_is_zero_rate(self):
        from repro.core.results import RoundSummary

        summary = RoundSummary(
            probabilities=np.ones(1), counts=np.array([0]),
            sums=np.zeros(1), bit_means=np.zeros(1), n_clients=0,
        )
        outcome = RoundOutcome(summary, 0, 0, 0.0)
        assert outcome.dropout_rate == 0.0


class TestBasicModeScheduleOverride:
    def test_custom_schedule_used(self, encoder, rng):
        schedule = BitSamplingSchedule.uniform(8)
        query = FederatedMeanQuery(encoder, mode="basic", schedule=schedule)
        est = query.run(make_population(800), rng=rng)
        counts = est.rounds[0].counts
        # Uniform schedule -> equal counts per bit.
        assert counts.max() - counts.min() <= 1

    def test_default_schedule_is_eq7(self, encoder, rng):
        query = FederatedMeanQuery(encoder, mode="basic")
        est = query.run(make_population(2_550), rng=rng)
        counts = est.rounds[0].counts
        # 2^j allocation: the top bit receives about half the cohort.
        assert counts[-1] > 0.45 * 2_550


class TestSecureCollectDeterminism:
    def test_secure_and_plain_agree_exactly_without_noise(self, encoder):
        """With no perturbation, sharded secure aggregation must produce the
        same counters a plaintext collection would (it is only a transport)."""
        population = make_population(128, value=170.0)   # 0b10101010
        plain = FederatedMeanQuery(encoder, mode="basic")
        secure = FederatedMeanQuery(
            encoder, mode="basic", secure_aggregation=True, shard_size=16
        )
        est_plain = plain.run(population, rng=42)
        est_secure = secure.run(population, rng=42)
        np.testing.assert_array_equal(est_plain.counts, est_secure.counts)
        np.testing.assert_allclose(
            est_plain.rounds[0].sums, est_secure.rounds[0].sums
        )
        assert est_plain.value == est_secure.value
