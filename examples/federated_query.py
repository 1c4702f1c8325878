"""A production-shaped federated query, end to end (Sections 3.3 and 4.3).

Builds a 6,000-device population (multiple local values per device,
regional attributes), then runs a single mean query through the full
deployment pipeline:

* eligibility filtering to one geography, with minimum-cohort enforcement;
* two-round adaptive bit-pushing with central (QMC) randomness;
* client dropout and a lossy, latency-bounded network;
* dropout-aware auto-adjustment of the bit-sampling probabilities;
* epsilon-LDP randomized response on every transmitted bit, plus bit
  squashing of the noise-dominated bit positions;
* per-bit counters aggregated through sharded pairwise-masked secure
  aggregation (Shamir-backed dropout recovery);
* a bit meter enforcing the worst-case promise: at most one private bit
  per device for this metric.

Run:  python examples/federated_query.py
"""

import numpy as np

from repro.core import FixedPointEncoder
from repro.federated import (
    ClientBatch,
    CohortSelector,
    DropoutModel,
    FederatedMeanQuery,
    NetworkModel,
    attribute_equals,
    ground_truth_mean,
)
from repro.privacy import BitMeter, RandomizedResponse


def build_population(rng: np.random.Generator, n: int = 6_000) -> ClientBatch:
    readings, geos = [], []
    for _ in range(n):
        n_readings = int(rng.integers(1, 6))
        readings.append(np.clip(rng.normal(180.0, 35.0, n_readings), 0.0, None))
        geos.append(str(rng.choice(["us", "eu", "apac"], p=[0.5, 0.3, 0.2])))
    return ClientBatch.from_multisets(readings, attributes={"geo": np.array(geos)})


def main() -> None:
    rng = np.random.default_rng(11)
    population = build_population(rng)
    us_devices = population.take(np.flatnonzero(population.attributes["geo"] == "us"))
    truth = ground_truth_mean(us_devices, strategy="sample")
    print(f"population: {len(population)} devices, {len(us_devices)} in 'us'")
    print(f"sampling-consistent ground truth (us): {truth:.3f}")

    meter = BitMeter(max_bits_per_value=1)
    query = FederatedMeanQuery(
        encoder=FixedPointEncoder.for_integers(9),        # clip at 511
        mode="adaptive",
        perturbation=RandomizedResponse(epsilon=4.0),     # per-bit LDP
        squash_multiple=2.0,                              # noise-bit filter
        dropout=DropoutModel(rate=0.15, jitter=0.03),
        network=NetworkModel(loss_rate=0.05, latency_median_s=90.0, deadline_s=900.0),
        selector=CohortSelector(min_cohort_size=1_000),
        meter=meter,
        min_reports_per_bit=15,                           # dropout-aware floor
        secure_aggregation=True,
        shard_size=24,
        metric_name="reading",
    )

    estimate = query.run(population, rng=rng, eligibility=attribute_equals("geo", "us"))

    print(f"\nestimate: {estimate.value:.3f} "
          f"(relative error {abs(estimate.value - truth) / truth:.2%})")
    print(f"cohort: {estimate.metadata['cohort_size']} devices; "
          f"per-round dropout: "
          f"{[f'{d:.1%}' for d in estimate.metadata['dropout_rates']]}")
    print(f"wall-clock (simulated): {estimate.metadata['total_duration_s']:.0f} s "
          f"across {len(estimate.rounds)} rounds")
    print(f"squashed noise bits: {list(estimate.squashed_bits)}")
    print(f"privacy: ldp={estimate.metadata['ldp']}, "
          f"secure aggregation={estimate.metadata['secure_aggregation']}, "
          f"total private bits disclosed: {meter.total_bits} "
          f"(<= 1 per participating device)")


if __name__ == "__main__":
    main()
