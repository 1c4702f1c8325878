"""Shared machinery for the prior-work baseline estimators.

Every baseline in the paper's evaluation (Section 4) assumes the inputs lie
in a known range ``[low, high]``, maps them to the unit interval via
``u = (x - low) / (high - low)``, runs a one-value-per-client mechanism, and
maps the aggregated estimate back.  :class:`RangeMeanEstimator` centralises
that plumbing, range validation, and clipping, so each concrete baseline only
implements the per-client mechanism.

The paper stresses (Section 2, "The need for adaptive protocols") that the
accuracy of these methods degrades with the *looseness* of ``[low, high]`` --
variance scales with ``(high - low)**2`` -- which is exactly the effect the
bit-depth sweeps (Figures 1c, 2c, 4c) exercise by setting
``high = 2**b - 1``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import ensure_rng

__all__ = ["ScalarEstimate", "RangeMeanEstimator"]


@dataclass(frozen=True)
class ScalarEstimate:
    """A plain scalar estimate with provenance (baseline counterpart of
    :class:`repro.core.results.MeanEstimate`)."""

    value: float
    n_clients: int
    method: str
    metadata: dict[str, Any] = field(default_factory=dict)

    def __float__(self) -> float:  # pragma: no cover - trivial
        return self.value


class RangeMeanEstimator(abc.ABC):
    """Mean estimator over a fixed known range ``[low, high]``.

    Subclasses implement :meth:`_estimate_unit`, which receives the inputs
    scaled (and clipped) into ``[0, 1]`` and must return an unbiased estimate
    of their mean in the unit domain.
    """

    #: Human-readable method tag; subclasses override.
    method = "range-baseline"

    def __init__(self, low: float, high: float) -> None:
        if not (np.isfinite(low) and np.isfinite(high)) or high <= low:
            raise ConfigurationError(f"need finite low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.high - self.low

    def to_unit(self, values: np.ndarray) -> np.ndarray:
        """Scale values into [0, 1], clipping out-of-range inputs."""
        vals = np.asarray(values, dtype=np.float64)
        return np.clip((vals - self.low) / self.width, 0.0, 1.0)

    def from_unit(self, unit_mean: float) -> float:
        """Map a unit-domain mean back to the caller's domain."""
        return self.low + float(unit_mean) * self.width

    # ------------------------------------------------------------------
    def estimate(
        self,
        values: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> ScalarEstimate:
        """Estimate the mean of ``values`` with this baseline's mechanism."""
        gen = ensure_rng(rng)
        unit = self.to_unit(values)
        if unit.size == 0:
            raise ConfigurationError("cannot estimate a mean from zero clients")
        unit_mean = self._estimate_unit(unit, gen)
        return ScalarEstimate(
            value=self.from_unit(unit_mean),
            n_clients=int(unit.size),
            method=self.method,
            metadata=self._metadata(),
        )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _estimate_unit(self, unit_values: np.ndarray, rng: np.random.Generator) -> float:
        """Return an estimate of ``unit_values.mean()`` from private reports."""

    def _metadata(self) -> dict[str, Any]:
        """Extra provenance recorded on every estimate; subclasses extend."""
        return {"low": self.low, "high": self.high}
