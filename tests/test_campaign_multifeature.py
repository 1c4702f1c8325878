"""Monitoring campaigns and multi-feature bit-budgeted queries."""

import numpy as np
import pytest

from repro.core import FixedPointEncoder
from repro.exceptions import ConfigurationError
from repro.federated import (
    ClientBatch,
    DropoutModel,
    FederatedMeanQuery,
    MonitoringCampaign,
    MultiFeatureQuery,
)


def _population(rng, n=2_000, scale=100.0):
    return ClientBatch.from_values(np.clip(rng.normal(scale, 20, n), 0, None))


class TestMonitoringCampaign:
    def test_records_accumulate(self):
        rng = np.random.default_rng(0)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(10))
        )
        for _ in range(3):
            campaign.run_round(_population(rng), rng)
        assert campaign.rounds_run == 3
        assert len(campaign.records) == 3
        assert len(campaign.estimates) == 3
        assert all(80 < e < 120 for e in campaign.estimates)

    def test_alert_fires_on_regression(self):
        rng = np.random.default_rng(1)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(12))
        )
        alerts = []
        for day in range(6):
            scale = 100.0 if day < 4 else 1500.0
            record = campaign.run_round(_population(rng, scale=scale), rng)
            if record.alert:
                alerts.append(record.round_index)
        # The first alert fires the round the regression ships; the rolling
        # baseline may trail for a round or two, re-alerting until it
        # catches up.
        assert alerts and alerts[0] == 4
        assert len(campaign.alerts) == len(alerts)

    def test_no_alert_when_stable(self):
        rng = np.random.default_rng(2)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(FixedPointEncoder.for_integers(10))
        )
        for _ in range(6):
            campaign.run_round(_population(rng), rng)
        assert campaign.alerts == ()

    def test_metadata_carries_ops_state(self):
        rng = np.random.default_rng(3)
        campaign = MonitoringCampaign(
            FederatedMeanQuery(
                FixedPointEncoder.for_integers(10), dropout=DropoutModel(0.25)
            )
        )
        record = campaign.run_round(_population(rng), rng)
        assert record.metadata["dropout_rate_estimate"] == pytest.approx(0.25, abs=0.08)
        assert record.metadata["upper_bound"] > 0


class TestMultiFeatureQuery:
    def _feature_population(self, rng, n=6_000):
        """One batch per feature; client ``i`` has id ``i`` in every batch."""
        draws = np.clip(rng.normal([200, 60, 80], [30, 10, 5], size=(n, 3)), 0, None)
        return {
            name: ClientBatch.from_values(draws[:, k])
            for k, name in enumerate(("latency", "memory", "battery"))
        }

    def _queries(self):
        return {
            "latency": FederatedMeanQuery(FixedPointEncoder.for_integers(9)),
            "memory": FederatedMeanQuery(FixedPointEncoder.for_integers(7)),
            "battery": FederatedMeanQuery(FixedPointEncoder.for_integers(7)),
        }

    def test_all_features_estimated(self):
        rng = np.random.default_rng(4)
        mfq = MultiFeatureQuery(self._queries())
        results = mfq.run(self._feature_population(rng), rng)
        assert results["latency"].value == pytest.approx(200, abs=15)
        assert results["memory"].value == pytest.approx(60, abs=5)
        assert results["battery"].value == pytest.approx(80, abs=5)

    def test_budget_enforced_one_feature_per_client(self):
        rng = np.random.default_rng(5)
        populations = self._feature_population(rng)
        mfq = MultiFeatureQuery(self._queries(), features_per_client=1)
        mfq.run(populations, rng)
        # Each client served at most one feature -> at most one bit each.
        assert mfq.total_private_bits <= 6_000
        assert all(mfq.meter.bits_disclosed_by(i) <= 1 for i in range(6_000))

    def test_budget_two_features_per_client(self):
        rng = np.random.default_rng(6)
        populations = self._feature_population(rng)
        mfq = MultiFeatureQuery(self._queries(), features_per_client=2)
        mfq.run(populations, rng)
        assert all(mfq.meter.bits_disclosed_by(i) <= 2 for i in range(6_000))

    def test_groups_follow_client_ids_not_positions(self):
        rng = np.random.default_rng(9)
        populations = self._feature_population(rng, n=3_000)
        # Same clients, another row order: identity is the id, not the row.
        populations["memory"] = populations["memory"].take(np.arange(3_000)[::-1])
        mfq = MultiFeatureQuery(self._queries(), features_per_client=1)
        mfq.run(populations, rng)
        assert all(mfq.meter.bits_disclosed_by(i) <= 1 for i in range(3_000))

    def test_missing_feature_clients_skipped(self):
        rng = np.random.default_rng(7)
        populations = self._feature_population(rng, n=3_000)
        # Strip "memory" from a third of the fleet.
        keep = np.flatnonzero(np.arange(3_000) % 3 != 0)
        populations["memory"] = populations["memory"].take(keep)
        mfq = MultiFeatureQuery(self._queries())
        results = mfq.run(populations, rng)
        assert results["memory"].value == pytest.approx(60, abs=5)
        # Only clients that still hold "memory" can have answered it.
        assert all(
            mfq.meter.bits_disclosed_for(i, "memory") == 0 for i in range(0, 3_000, 3)
        )

    def test_no_data_for_feature_raises(self):
        rng = np.random.default_rng(8)
        populations = self._feature_population(rng, n=300)
        del populations["battery"]
        with pytest.raises(ConfigurationError, match="battery"):
            MultiFeatureQuery(self._queries()).run(populations, rng)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiFeatureQuery({})
        with pytest.raises(ConfigurationError):
            MultiFeatureQuery(self._queries(), features_per_client=0)
        with pytest.raises(ConfigurationError):
            MultiFeatureQuery(self._queries(), features_per_client=4)
