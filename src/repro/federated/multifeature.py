"""Multi-feature queries under a shared per-client bit budget.

Real rollouts query many metrics against one device population, and the
worst-case promise must hold *across* them: a bounded number of private bits
per client in total (paper Section 1.1, "limit subsequent bits per value and
per client").  :class:`MultiFeatureQuery` partitions the population so each
client contributes to at most ``features_per_client`` of the configured
feature queries, shares one :class:`~repro.privacy.accountant.BitMeter`
across all of them, and raises before any client would exceed its budget.
"""

from __future__ import annotations

import numpy as np

from repro.core.client_plane import ClientBatch
from repro.core.results import MeanEstimate
from repro.exceptions import ConfigurationError
from repro.federated.server import FederatedMeanQuery
from repro.privacy.accountant import BitMeter
from repro.rng import ensure_rng

__all__ = ["MultiFeatureQuery"]


class MultiFeatureQuery:
    """Run several federated mean queries against one population.

    Parameters
    ----------
    queries:
        ``feature name -> FederatedMeanQuery``.  Each query's
        ``metric_name`` is overridden to the feature name and its meter to
        the shared one, so the budget is enforced uniformly.
    features_per_client:
        How many features a single client may serve this campaign.  With
        one bit per feature query, this equals the client's total private
        bits -- the shared meter is configured accordingly.

    Examples
    --------
    >>> from repro.core import FixedPointEncoder
    >>> rng = np.random.default_rng(0)
    >>> populations = {
    ...     "latency": ClientBatch.from_values(np.clip(rng.normal(200, 30, 4000), 0, None)),
    ...     "memory": ClientBatch.from_values(np.clip(rng.normal(60, 10, 4000), 0, None)),
    ... }
    >>> mfq = MultiFeatureQuery({
    ...     "latency": FederatedMeanQuery(FixedPointEncoder.for_integers(9)),
    ...     "memory": FederatedMeanQuery(FixedPointEncoder.for_integers(7)),
    ... })
    >>> results = mfq.run(populations, rng=1)
    >>> abs(results["latency"].value - 200) < 10 and abs(results["memory"].value - 60) < 4
    True
    """
    def __init__(
        self,
        queries: dict[str, FederatedMeanQuery],
        features_per_client: int = 1,
    ) -> None:
        if not queries:
            raise ConfigurationError("need at least one feature query")
        if features_per_client < 1:
            raise ConfigurationError(
                f"features_per_client must be >= 1, got {features_per_client}"
            )
        if features_per_client > len(queries):
            raise ConfigurationError(
                f"features_per_client={features_per_client} exceeds the "
                f"{len(queries)} configured features"
            )
        self.queries = dict(queries)
        self.features_per_client = features_per_client
        self.meter = BitMeter(
            max_bits_per_value=1, max_bits_per_client=features_per_client
        )
        for name, query in self.queries.items():
            query.meter = self.meter
            query.metric_name = name

    # ------------------------------------------------------------------
    def run(
        self,
        populations: dict[str, ClientBatch],
        rng: np.random.Generator | int | None = None,
    ) -> dict[str, MeanEstimate]:
        """Run every feature query on its share of the population.

        ``populations`` maps each feature name to the batch of clients that
        hold data for it; ``client_ids`` identify the same client across
        features.  The union of ids is shuffled and dealt round-robin into
        ``ceil(n_features / features_per_client)`` disjoint groups; each
        group serves ``features_per_client`` features, so no client ever
        answers more.  A client absent from a feature's batch is skipped
        for that feature.
        """
        gen = ensure_rng(rng)
        names = list(self.queries)
        n_groups = -(-len(names) // self.features_per_client)   # ceil division
        for name in names:
            if name not in populations:
                raise ConfigurationError(f"no client holds data for feature {name!r}")
        ids = np.unique(np.concatenate([populations[name].client_ids for name in names]))
        order = gen.permutation(ids.size)
        deal = np.empty(ids.size, dtype=np.int64)
        deal[order] = np.arange(ids.size)   # each id's place in the shuffled deal

        results: dict[str, MeanEstimate] = {}
        for feature_idx, name in enumerate(names):
            batch = populations[name]
            rank = deal[np.searchsorted(ids, batch.client_ids)]
            mine = np.flatnonzero(rank % n_groups == feature_idx % n_groups)
            if not mine.size:
                raise ConfigurationError(f"no client holds data for feature {name!r}")
            cohort = batch.take(mine[np.argsort(rank[mine])])   # in dealt order
            results[name] = self.queries[name].run(cohort, rng=gen)
        return results

    @property
    def total_private_bits(self) -> int:
        """Private bits disclosed across the whole campaign so far."""
        return self.meter.total_bits
