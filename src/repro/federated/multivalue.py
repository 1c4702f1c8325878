"""Multi-value elicitation semantics (paper Section 4.3).

Most federated-analytics formalism assumes one value per client, but real
devices hold many observations per metric.  The paper resolves this by
eliciting a *single* value per client -- by sampling or by local
aggregation -- and defining the ground truth consistently with the chosen
elicitation ("we define the ground truth for data collection via
sampling").  This module provides both halves: per-client elicitation and
the matching ground truth over a :class:`~repro.core.client_plane.ClientBatch`
population.
"""

from __future__ import annotations

import numpy as np

from repro.core.client_plane import ELICITATION_STRATEGIES, ClientBatch, elicit_values
from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["ELICITATION_STRATEGIES", "elicit_single_value", "ground_truth_mean"]


def elicit_single_value(
    values: np.ndarray,
    strategy: str = "sample",
    rng: np.random.Generator | int | None = None,
) -> float:
    """Reduce one client's local values to the single value it will report on.

    * ``"sample"`` -- uniform random local observation (the paper's choice);
    * ``"mean"`` -- device-local aggregation;
    * ``"max"`` -- worst observation (useful for health ceilings);
    * ``"latest"`` -- the most recent observation (last element).
    """
    vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        raise ConfigurationError("cannot elicit from an empty value set")
    if strategy == "sample":
        gen = ensure_rng(rng)
        return float(vals[gen.integers(vals.size)])
    if strategy == "mean":
        return float(vals.mean())
    if strategy == "max":
        return float(vals.max())
    if strategy == "latest":
        return float(vals[-1])
    raise ConfigurationError(
        f"unknown elicitation strategy {strategy!r}; expected one of {ELICITATION_STRATEGIES}"
    )


def ground_truth_mean(batch: ClientBatch, strategy: str = "sample") -> float:
    """Population mean consistent with the elicitation strategy.

    For ``"sample"`` the expected elicited value of a client is its local
    mean, so the ground truth is the mean of per-client local means --
    *not* the mean over all raw observations, which over-weights chatty
    clients (the discrepancy the paper calls out).  For deterministic
    strategies the ground truth is the mean of the per-client reductions,
    computed by the same :func:`~repro.core.client_plane.elicit_values`
    kernels the round runs.
    """
    if len(batch) == 0:
        raise ConfigurationError("need at least one client")
    return float(np.mean(elicit_values(batch, "mean" if strategy == "sample" else strategy)))
