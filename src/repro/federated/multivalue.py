"""Multi-value elicitation semantics (paper Section 4.3).

Most federated-analytics formalism assumes one value per client, but real
devices hold many observations per metric.  The paper resolves this by
eliciting a *single* value per client -- by sampling or by local
aggregation -- and defining the ground truth consistently with the chosen
elicitation ("we define the ground truth for data collection via
sampling").  This module provides both halves: per-client elicitation and
the matching population ground truth.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core.client_plane import ClientBatch
from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["ELICITATION_STRATEGIES", "elicit_single_value", "ground_truth_mean"]

#: Supported strategies for reducing a device's multiset to one value.
ELICITATION_STRATEGIES = ("sample", "mean", "max", "latest")


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


def ground_truth_mean(
    per_client_values: Union[Sequence[np.ndarray], ClientBatch],
    strategy: str = "sample",
) -> float:
    """Population mean consistent with the elicitation strategy.

    For ``"sample"`` the expected elicited value of a client is its local
    mean, so the ground truth is the mean of per-client local means --
    *not* the mean over all raw observations, which over-weights chatty
    clients (the discrepancy the paper calls out).  For deterministic
    strategies the ground truth is the mean of the per-client reductions.

    Accepts either a sequence of per-client arrays or a columnar
    :class:`~repro.core.client_plane.ClientBatch` (reduced with vectorized
    ``reduceat`` kernels -- last-ulp summation-order differences from the
    per-array object path are possible for long multisets).
    """
    if isinstance(per_client_values, ClientBatch):
        batch = per_client_values
        if len(batch) == 0:
            raise ConfigurationError("need at least one client")
        if strategy in ("sample", "mean"):
            reductions = batch.local_means()
        elif strategy == "max":
            reductions = (
                batch.values
                if batch.uniform
                else np.maximum.reduceat(batch.values, batch.offsets[:-1])
            )
        elif strategy == "latest":
            reductions = batch.values[batch.offsets[1:] - 1]
        else:
            raise ConfigurationError(
                f"unknown elicitation strategy {strategy!r}; expected one of "
                f"{ELICITATION_STRATEGIES}"
            )
        return float(np.mean(reductions))
    if not per_client_values:
        raise ConfigurationError("need at least one client")
    if strategy == "sample":
        reductions = [float(np.mean(v)) for v in per_client_values]
    elif strategy in ("mean", "max", "latest"):
        reductions = [elicit_single_value(v, strategy) for v in per_client_values]
    else:
        raise ConfigurationError(
            f"unknown elicitation strategy {strategy!r}; expected one of {ELICITATION_STRATEGIES}"
        )
    return float(np.mean(reductions))
