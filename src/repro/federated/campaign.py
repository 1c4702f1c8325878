"""Recurring monitoring campaigns: queries + drift detection over rounds.

The deployment (Section 4.3) does not run one-off queries: metrics are
aggregated daily for months, with the occupied bit range watched for heavy
tails and regressions.  :class:`MonitoringCampaign` packages that loop --
run the configured federated query each round, feed the resulting bit means
to a :class:`~repro.core.monitor.HighBitMonitor`, and keep the history an
operator dashboard would chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.client_plane import ClientBatch
from repro.core.monitor import HighBitMonitor, MonitorAlert
from repro.core.results import MeanEstimate
from repro.federated.server import FederatedMeanQuery
from repro.rng import ensure_rng

__all__ = ["CampaignRecord", "MonitoringCampaign"]


@dataclass(frozen=True)
class CampaignRecord:
    """One campaign round: the estimate plus any drift alert."""

    round_index: int
    estimate: MeanEstimate
    alert: MonitorAlert | None
    metadata: dict[str, Any] = field(default_factory=dict)


class MonitoringCampaign:
    """Run a federated query every round and watch for distribution shifts.

    Parameters
    ----------
    query:
        The configured :class:`FederatedMeanQuery` to repeat each round.
    monitor:
        Drift detector fed with each round's estimated bit means; defaults
        to a 3-round window, 2-bit shift threshold, with the noise floor set
        just above zero.
    recorder:
        Optional :class:`~repro.observability.recorder.FlightRecorder`; each
        campaign round appends one ``campaign.round`` event line (estimate,
        alert, robustness accounting) to the run's event log.
    health:
        Optional :class:`~repro.observability.health.HealthMonitor`; each
        campaign round reports its drift-monitor outcome through
        :meth:`~repro.observability.health.HealthMonitor.observe_campaign_round`
        (pass the same monitor to the query for per-attempt round samples).
    live:
        Optional :class:`~repro.observability.live.LiveMonitor`; each
        campaign round emits one progress line.  Only used when the live
        monitor is not already attached as a tracer exporter.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import FixedPointEncoder
    >>> rng = np.random.default_rng(0)
    >>> query = FederatedMeanQuery(FixedPointEncoder.for_integers(12))
    >>> campaign = MonitoringCampaign(query)
    >>> for day in range(4):
    ...     scale = 100.0 if day < 3 else 1500.0
    ...     pop = ClientBatch.from_values(np.clip(rng.normal(scale, 20, 2000), 0, None))
    ...     record = campaign.run_round(pop, rng)
    >>> record.alert is not None
    True
    """

    def __init__(
        self,
        query: FederatedMeanQuery,
        monitor: HighBitMonitor | None = None,
        recorder: Any = None,
        health: Any = None,
        live: Any = None,
    ) -> None:
        self.query = query
        self.monitor = monitor or HighBitMonitor(
            noise_floor=0.01, shift_threshold=2, window=3
        )
        self.recorder = recorder
        self.health = health
        self.live = live
        self._records: list[CampaignRecord] = []

    # ------------------------------------------------------------------
    def run_round(
        self,
        population: ClientBatch,
        rng: np.random.Generator | int | None = None,
        **query_kwargs: Any,
    ) -> CampaignRecord:
        """Execute one round: query, monitor, record."""
        gen = ensure_rng(rng)
        estimate = self.query.run(population, rng=gen, **query_kwargs)
        alert = self.monitor.update(estimate.bit_means)
        record = CampaignRecord(
            round_index=len(self._records),
            estimate=estimate,
            alert=alert,
            metadata={
                "dropout_rate_estimate": self.query.dropout_tracker.rate,
                "upper_bound": self.monitor.current_upper_bound,
                # Robustness accounting: how hard the query had to fight.
                "round_attempts": estimate.metadata.get("round_attempts", []),
                "degraded": any(estimate.metadata.get("degraded_rounds", [])),
                "backoff_s": sum(estimate.metadata.get("backoff_s", [])),
            },
        )
        self._records.append(record)
        if self.health is not None:
            self.health.observe_campaign_round(
                round_index=record.round_index,
                shift=alert is not None,
                degraded=bool(record.metadata["degraded"]),
            )
        if self.live is not None:
            planned = estimate.metadata.get("planned_clients", [])
            survived = estimate.metadata.get("surviving_clients", [])
            self.live.update(
                round_index=record.round_index,
                survived=int(sum(survived)),
                planned=int(sum(planned)),
                degraded=bool(record.metadata["degraded"]),
                duration_s=float(estimate.metadata.get("total_duration_s", 0.0)),
            )
        if self.recorder is not None:
            self.recorder.record_event(
                "campaign.round",
                {
                    "round_index": record.round_index,
                    "estimate": float(estimate.value),
                    "n_clients": int(estimate.n_clients),
                    "alert": record.alert.message if record.alert is not None else None,
                    "round_attempts": record.metadata["round_attempts"],
                    "degraded": record.metadata["degraded"],
                    "backoff_s": record.metadata["backoff_s"],
                },
            )
        return record

    # ------------------------------------------------------------------
    @property
    def records(self) -> tuple[CampaignRecord, ...]:
        return tuple(self._records)

    @property
    def alerts(self) -> tuple[MonitorAlert, ...]:
        return tuple(r.alert for r in self._records if r.alert is not None)

    @property
    def estimates(self) -> list[float]:
        """Point estimates in round order (for dashboards/tests)."""
        return [r.estimate.value for r in self._records]

    @property
    def rounds_run(self) -> int:
        return len(self._records)

    @property
    def rounds_degraded(self) -> int:
        """Campaign rounds that completed under quorum degradation."""
        return sum(1 for r in self._records if r.metadata.get("degraded"))

    @property
    def total_attempts(self) -> int:
        """Round attempts across the campaign, retries included."""
        return sum(sum(r.metadata.get("round_attempts", [1])) for r in self._records)
