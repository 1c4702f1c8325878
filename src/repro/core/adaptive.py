"""Adaptive (two-round) bit-pushing -- paper Algorithm 2.

Round 1 spends a ``delta`` fraction of the cohort measuring the per-bit
means with an input-independent schedule ``p_j \\propto (2**j)**gamma``.
Round 2 re-allocates the remaining clients with the data-driven schedule
``p_j \\propto (4**j m_j (1 - m_j))**alpha`` (Lemma 3.3's optimum at
``alpha = 0.5``), which automatically discards bits that round 1 found to be
empty -- the mechanism behind the flat bit-depth curves in Figures 1c/2c/4c.

"Caching" (Section 3.2) pools the reports of both rounds per bit, weighting
by report counts, instead of discarding round 1 after it has served its
scheduling purpose.  The paper's analysis suggests ``delta = 1/3`` and
``gamma = 0.5`` as defaults, evaluated empirically in our ablation benches.

Under local DP, round-1 estimates are noisy even on empty bits, so the
schedule would keep wasting clients there; the ``squash_multiple`` knob
applies Section 3.3's bit squashing to the round-1 means (threshold expressed
in multiples of the expected randomized-response noise) before the round-2
schedule is computed, and to the final pooled means before reconstruction.

The round-independent steps (cohort split, both schedules, pooling, final
squash) are public methods: :class:`~repro.federated.server.FederatedMeanQuery`
runs the same steps around its federated rounds, so Algorithm 2 has one
implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.client_plane import accumulate_bit_reports
from repro.core.encoding import FixedPointEncoder
from repro.core.protocol import (
    BitPerturbation,
    bit_means_from_stats,
    combine_round_stats,
)
from repro.core.results import MeanEstimate, RoundSummary
from repro.core.sampling import (
    BitSamplingSchedule,
    central_assignment,
    local_assignment,
)
from repro.core.squashing import per_bit_squash_thresholds, squash_bit_means
from repro.exceptions import ConfigurationError
from repro.observability import get_metrics, get_tracer
from repro.rng import ensure_rng

__all__ = ["AdaptiveBitPushing"]

_RANDOMNESS_MODES = ("central", "local")


class AdaptiveBitPushing:
    """Two-round adaptive bit-pushing estimator (Algorithm 2).

    Parameters
    ----------
    encoder:
        Fixed-point encoding of the client values.
    gamma:
        Round-1 schedule exponent: ``p1_j \\propto (2**j)**gamma``.  Default
        (``None``): 0.5 without a perturbation, 0.0 (uniform) with one --
        randomized response makes every bit's report equally noisy
        regardless of level (Section 3.3), so the exploratory round must
        give low bits enough evidence to survive squashing.
    alpha:
        Round-2 schedule exponent: ``p2_j \\propto (4**j m_j (1-m_j))**alpha``.
    delta:
        Fraction of the cohort spent in round 1 (paper default 1/3).
    caching:
        Pool round-1 and round-2 reports for the final estimate (default
        True; Section 3.2 "Caching").
    randomness:
        ``"central"`` or ``"local"`` client-to-bit assignment.
    perturbation:
        Optional local DP mechanism applied to every transmitted bit.
    squash_multiple:
        Bit-squash threshold in multiples of the expected DP noise level
        (0 disables squashing; only meaningful with a perturbation).

    Examples
    --------
    >>> import numpy as np
    >>> enc = FixedPointEncoder.for_integers(n_bits=16)
    >>> est = AdaptiveBitPushing(enc)
    >>> rng = np.random.default_rng(7)
    >>> values = rng.normal(1000.0, 100.0, size=20_000)
    >>> bool(abs(est.estimate(values, rng=rng).value - values.mean()) < 25)
    True
    """

    method = "adaptive"

    def __init__(
        self,
        encoder: FixedPointEncoder,
        gamma: float | None = None,
        alpha: float = 0.5,
        delta: float = 1.0 / 3.0,
        caching: bool = True,
        randomness: str = "central",
        perturbation: BitPerturbation | None = None,
        squash_multiple: float = 0.0,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if randomness not in _RANDOMNESS_MODES:
            raise ConfigurationError(f"randomness must be one of {_RANDOMNESS_MODES}")
        if not np.isfinite(alpha) or alpha < 0:
            raise ConfigurationError(f"alpha must be finite and >= 0, got {alpha}")
        if squash_multiple < 0:
            raise ConfigurationError(f"squash_multiple must be >= 0, got {squash_multiple}")
        if squash_multiple > 0 and getattr(perturbation, "epsilon", None) is None:
            raise ConfigurationError(
                "squash_multiple requires a perturbation exposing an `epsilon` "
                "(it is a DP noise filter)"
            )
        self.encoder = encoder
        self.gamma = gamma if gamma is not None else (0.0 if perturbation is not None else 0.5)
        self.alpha = alpha
        self.delta = delta
        self.caching = caching
        self.randomness = randomness
        self.perturbation = perturbation
        self.squash_multiple = squash_multiple

    # ------------------------------------------------------------------
    def estimate(
        self,
        values: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> MeanEstimate:
        """Estimate the mean of real-valued ``values`` in two rounds."""
        gen = ensure_rng(rng)
        encoded = self.encoder.encode(np.asarray(values, dtype=np.float64))
        return self.estimate_encoded(encoded, gen)

    def estimate_encoded(
        self,
        encoded: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> MeanEstimate:
        """Estimate from already-encoded uint64 values (one per client)."""
        gen = ensure_rng(rng)
        tracer = get_tracer()
        metrics = get_metrics()
        encoded = np.asarray(encoded, dtype=np.uint64)
        n_clients = int(encoded.size)
        cohort1, cohort2 = self.split(encoded, gen)

        # --- Round 1: input-independent geometric schedule. ---
        with tracer.span(
            "adaptive.round1", {"n_clients": int(cohort1.size), "gamma": self.gamma}
        ):
            summary1 = self._run_round(cohort1, self.round1_schedule(), gen)

        # --- Round 2: data-driven schedule from round-1 bit means. ---
        with tracer.span(
            "adaptive.round2", {"n_clients": int(cohort2.size), "alpha": self.alpha}
        ):
            summary2 = self._run_round(cohort2, self.round2_schedule(summary1), gen)

        # --- Final aggregation (Algorithm 2 lines 9-11). ---
        with tracer.span("adaptive.combine", {"caching": self.caching}) as combine_span:
            pooled_means, pooled_counts = self.pool(summary1, summary2)
            if self.caching:
                # Cache hits: bits whose round-1 evidence is pooled into the
                # final estimate rather than discarded.
                cache_hits = int(np.count_nonzero(summary1.counts > 0))
                combine_span.set_attribute("cache_hits", cache_hits)
                if metrics.enabled:
                    metrics.counter("adaptive_cache_hits_total").inc(cache_hits)
        if metrics.enabled:
            metrics.counter("adaptive_estimates_total").inc()

        pooled_means, squashed = self.final_squash(pooled_means, pooled_counts)
        encoded_mean = float(self.encoder.powers @ pooled_means)
        return MeanEstimate(
            value=self.encoder.decode_scalar(encoded_mean),
            encoded_value=encoded_mean,
            bit_means=pooled_means,
            counts=pooled_counts,
            n_clients=n_clients,
            n_bits=self.encoder.n_bits,
            method=self.method,
            rounds=(summary1, summary2),
            squashed_bits=squashed,
            metadata={
                "gamma": self.gamma,
                "alpha": self.alpha,
                "delta": self.delta,
                "caching": self.caching,
                "randomness": self.randomness,
                "ldp": self.perturbation is not None,
                "squash_multiple": self.squash_multiple,
            },
        )

    # ------------------------------------------------------------------
    # Round-independent steps of Algorithm 2.  FederatedMeanQuery runs the
    # same steps around its own rounds, so these emit no spans or metrics.
    def split(
        self, cohort: np.ndarray, gen: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shuffle ``cohort``; the first ``delta`` fraction answers round 1.

        ``gen.permutation(cohort)`` draws exactly as
        ``cohort[gen.permutation(cohort.size)]``.  Both rounds get at least
        one client.
        """
        n = int(cohort.size)
        if n < 2:
            raise ConfigurationError(f"adaptive bit-pushing needs at least 2 clients, got {n}")
        n_round1 = min(max(int(round(self.delta * n)), 1), n - 1)
        shuffled = gen.permutation(cohort)
        return shuffled[:n_round1], shuffled[n_round1:]

    def round1_schedule(self) -> BitSamplingSchedule:
        """Round 1's input-independent ``p_j \\propto (2**j)**gamma``."""
        return BitSamplingSchedule.geometric(self.encoder.n_bits, gamma=self.gamma)

    def round2_schedule(self, summary1: RoundSummary) -> BitSamplingSchedule:
        """Round 2's data-driven schedule from round 1's (squashed) bit means."""
        means = summary1.bit_means
        if self.squash_multiple > 0:
            means, _ = squash_bit_means(means, self._squash_threshold(summary1.counts))
        return BitSamplingSchedule.from_bit_means(means, alpha=self.alpha)

    def pool(
        self, summary1: RoundSummary, summary2: RoundSummary
    ) -> tuple[np.ndarray, np.ndarray]:
        """The final per-bit ``(means, counts)`` (Algorithm 2 lines 9-11).

        With caching both rounds are pooled by report count.  Without it
        round 2 stands alone, but bits it never sampled fall back to round 1
        (they carried ~0 weight; dropping them entirely biases the estimate
        whenever round 1 mis-scored a bit).
        """
        if self.caching:
            return combine_round_stats(
                [summary1.bit_means, summary2.bit_means],
                [summary1.counts, summary2.counts],
            )
        have2 = summary2.counts > 0
        return (
            np.where(have2, summary2.bit_means, summary1.bit_means),
            np.where(have2, summary2.counts, summary1.counts),
        )

    def final_squash(
        self, means: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Under LDP: clip into ``[0, 1]`` and squash noise-level bits.

        Returns the means to reconstruct from and the squashed bit indices;
        without a perturbation ``means`` pass through untouched.
        """
        if self.perturbation is None:
            return means, ()
        threshold = (
            self._squash_threshold(counts)
            if self.squash_multiple > 0
            else np.zeros_like(means)
        )
        means, squashed = squash_bit_means(means, threshold)
        return means, tuple(int(j) for j in squashed)

    # ------------------------------------------------------------------
    def _run_round(
        self,
        cohort: np.ndarray,
        schedule: BitSamplingSchedule,
        gen: np.random.Generator,
    ) -> RoundSummary:
        n = int(cohort.size)
        if self.randomness == "central":
            assignment = central_assignment(n, schedule, gen)
        else:
            assignment = local_assignment(n, schedule, gen)
        # Chunk-streamed collection; bit-identical to collect_bit_reports
        # for any chunk size (see repro.core.client_plane).
        sums, counts = accumulate_bit_reports(
            cohort, self.encoder.n_bits, assignment, self.perturbation, gen
        )
        means = bit_means_from_stats(sums, counts, self.perturbation)
        return RoundSummary(
            probabilities=schedule.probabilities,
            counts=counts,
            sums=means * counts,
            bit_means=means,
            n_clients=n,
        )

    def _squash_threshold(self, counts: np.ndarray) -> np.ndarray:
        epsilon = float(self.perturbation.epsilon)
        return per_bit_squash_thresholds(self.squash_multiple, epsilon, counts)
