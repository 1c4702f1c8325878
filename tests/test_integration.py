"""Cross-module integration: the full pipeline, end to end."""

import numpy as np
import pytest

from repro import (
    AdaptiveBitPushing,
    BasicBitPushing,
    FixedPointEncoder,
    HighBitMonitor,
    RandomizedResponse,
    VarianceEstimator,
)
from repro.data.census import population_age_stats, sample_ages
from repro.data.telemetry import binary_with_outliers
from repro.federated import (
    ClientBatch,
    CohortSelector,
    DropoutModel,
    FederatedMeanQuery,
    NetworkModel,
    attribute_equals,
    ground_truth_mean,
)
from repro.privacy import BitMeter


class TestCensusPipeline:
    def test_mean_and_variance_from_one_bit_reports(self):
        """The paper's census experiment: mean and variance of ages, <1% /
        <10% error at n = 100k, one bit per participating client."""
        rng = np.random.default_rng(70)
        ages = sample_ages(100_000, rng)
        encoder = FixedPointEncoder.for_integers(10)

        mean_est = AdaptiveBitPushing(encoder).estimate(ages, rng)
        assert abs(mean_est.value - ages.mean()) / ages.mean() < 0.01

        var_est = VarianceEstimator(encoder, method="centered").estimate(ages, rng)
        assert abs(var_est.value - ages.var()) / ages.var() < 0.15

    def test_ldp_census_mean_still_usable(self):
        rng = np.random.default_rng(71)
        ages = sample_ages(100_000, rng)
        encoder = FixedPointEncoder.for_integers(8)
        est = BasicBitPushing(encoder, perturbation=RandomizedResponse(epsilon=2.0))
        result = est.estimate(ages, rng)
        assert abs(result.value - ages.mean()) / ages.mean() < 0.15

    def test_population_stats_agree_with_sampler(self):
        mean, var = population_age_stats()
        ages = sample_ages(300_000, rng=72)
        assert ages.mean() == pytest.approx(mean, rel=0.01)
        assert ages.var() == pytest.approx(var, rel=0.03)


class TestTelemetryPipeline:
    def test_clipping_stabilizes_outlier_metric(self):
        """Deployment finding: clip to b bits and the estimate tracks the
        clipped ground truth even with extreme outliers present."""
        rng = np.random.default_rng(73)
        values = binary_with_outliers(
            50_000, p_one=0.3, outlier_rate=1e-3, outlier_magnitude=1e6, rng=rng
        )
        encoder = FixedPointEncoder.for_integers(8)   # winsorize at 255
        clipped_truth = np.clip(values, 0, 255).mean()
        result = AdaptiveBitPushing(encoder).estimate(values, rng)
        assert result.value == pytest.approx(clipped_truth, rel=0.1)

    def test_monitor_plus_estimator_detect_shift(self):
        rng = np.random.default_rng(74)
        encoder = FixedPointEncoder.for_integers(12)
        est = BasicBitPushing(encoder)
        monitor = HighBitMonitor(noise_floor=0.005, shift_threshold=2, window=3)
        fired = []
        for round_index in range(8):
            scale = 60.0 if round_index < 5 else 700.0
            values = np.clip(rng.normal(scale, scale / 5, 5_000), 0, None)
            alert = monitor.update(est.estimate(values, rng).bit_means)
            if alert:
                fired.append(round_index)
        assert fired and fired[0] == 5


class TestFederatedEndToEnd:
    def test_geo_cohort_query_with_everything_enabled(self):
        """Cohort filter + dropout + lossy network + LDP + metering +
        dropout-aware schedule floor, in one query."""
        rng = np.random.default_rng(75)
        population = ClientBatch.from_multisets(
            [np.clip(rng.normal(150.0, 30.0, rng.integers(1, 4)), 0, None) for _ in range(3_000)],
            attributes={"geo": np.where(np.arange(3_000) % 3, "us", "eu")},
        )
        meter = BitMeter(max_bits_per_value=1)
        query = FederatedMeanQuery(
            FixedPointEncoder.for_integers(8),
            mode="adaptive",
            perturbation=RandomizedResponse(epsilon=4.0),
            squash_multiple=2.0,
            dropout=DropoutModel(0.15),
            network=NetworkModel(loss_rate=0.05, deadline_s=900.0),
            selector=CohortSelector(min_cohort_size=500),
            meter=meter,
            min_reports_per_bit=10,
            metric_name="latency",
        )
        us_clients = population.take(np.flatnonzero(population.attributes["geo"] == "us"))
        truth = ground_truth_mean(us_clients)
        est = query.run(population, rng=rng, eligibility=attribute_equals("geo", "us"))
        assert est.value == pytest.approx(truth, rel=0.25)
        assert meter.total_bits <= len(us_clients)
        assert est.metadata["ldp"] is True

    def test_repeat_queries_on_different_metrics_respect_meter(self):
        rng = np.random.default_rng(76)
        population = ClientBatch.from_values(np.clip(rng.normal(100, 20, 800), 0, None))
        meter = BitMeter(max_bits_per_value=1, max_bits_per_client=2)
        encoder = FixedPointEncoder.for_integers(8)
        for metric in ("latency", "memory"):
            FederatedMeanQuery(
                encoder, mode="basic", meter=meter, metric_name=metric
            ).run(population, rng=rng)
        assert all(meter.bits_disclosed_by(i) <= 2 for i in population.client_ids)

    def test_feature_normalization_scenario(self):
        """Section 3.4 motivation: mean + variance enable feature scaling."""
        rng = np.random.default_rng(77)
        feature = np.clip(rng.normal(400.0, 80.0, 100_000), 0, None)
        encoder = FixedPointEncoder.for_integers(10)
        var_result = VarianceEstimator(encoder, method="centered").estimate(feature, rng)
        mean_hat, var_hat = var_result.mean.value, var_result.value
        normalized = (feature - mean_hat) / np.sqrt(var_hat)
        assert abs(normalized.mean()) < 0.1
        assert normalized.std() == pytest.approx(1.0, rel=0.1)
