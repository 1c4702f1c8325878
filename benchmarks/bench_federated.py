"""Federated-substrate benches: dropout adjustment and secure aggregation."""

import numpy as np

from benchmarks.conftest import run_once
from repro.core import FixedPointEncoder
from repro.experiments import dropout_adjustment, render_series_table
from repro.federated import ClientBatch, FederatedMeanQuery, ground_truth_mean, secure_sum


def test_dropout_adjustment(benchmark, emit):
    """Section 4.3: sampling probabilities auto-adjusted for dropout keep
    utility under heavy dropout."""
    results = run_once(
        benchmark, lambda: dropout_adjustment(n_clients=4_000, n_reps=20)
    )
    emit("federated_dropout", render_series_table(
        "Federated — adaptive NRMSE vs dropout rate, schedule adjustment on/off",
        results, x_name="dropout rate",
    ))
    # Both configurations must stay usable across the dropout sweep; the
    # adjusted variant should not lose to the unadjusted one overall.
    adjusted = np.mean(results["adjusted"].nrmse)
    unadjusted = np.mean(results["unadjusted"].nrmse)
    assert adjusted < 0.2
    assert adjusted <= unadjusted * 1.25


def test_secure_aggregation_roundtrip(benchmark, emit):
    """Secure aggregation recovers exact sums under 25% dropout."""
    rng = np.random.default_rng(0)
    vectors = rng.integers(0, 1_000, size=(48, 20))
    submitted = rng.random(48) >= 0.25

    def run():
        return secure_sum(vectors, submitted, threshold=24, rng=1)

    total = run_once(benchmark, run)
    expected = vectors[submitted].sum(axis=0)
    np.testing.assert_array_equal(total, expected)
    emit("federated_secure_agg", (
        "### Secure aggregation round-trip\n\n"
        f"- clients: 48, dropouts: {int((~submitted).sum())}, threshold: 24\n"
        f"- recovered sums exactly: True\n"
    ))


def test_federated_query_end_to_end(benchmark, emit):
    """A full federated adaptive query (the deployment configuration) stays
    within a few percent of the sampling ground truth."""
    rng = np.random.default_rng(1)
    population = ClientBatch.from_multisets(
        [np.clip(rng.normal(200.0, 40.0, rng.integers(1, 4)), 0, None) for _ in range(5_000)]
    )
    query = FederatedMeanQuery(FixedPointEncoder.for_integers(9), mode="adaptive")
    truth = ground_truth_mean(population)

    estimate = run_once(benchmark, lambda: query.run(population, rng=2))
    rel_err = abs(estimate.value - truth) / truth
    emit("federated_end_to_end", (
        "### Federated adaptive query, end to end\n\n"
        f"- ground truth: {truth:.3f}\n"
        f"- estimate: {estimate.value:.3f} (relative error {rel_err:.4f})\n"
        f"- rounds: {len(estimate.rounds)}, cohort: {estimate.n_clients}\n"
    ))
    assert rel_err < 0.05
