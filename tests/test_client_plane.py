"""Columnar client plane: ClientBatch, chunked kernels, and bit-identity twins.

The contract under test (see ``src/repro/core/client_plane.py``): every
columnar kernel consumes randomness exactly as the per-client scalar
reference (``elicit_single_value`` once per client, in order), for *any*
chunk size -- including chunk = 1 and chunk > n -- so chunked and
whole-batch rounds produce bit-identical estimates for the same seed.
"""

import numpy as np
import pytest

from repro.baselines import (
    DuchiMechanism,
    HybridMechanism,
    LaplaceMean,
    PiecewiseMechanism,
    RandomizedRounding,
    SubtractiveDithering,
)
from repro.core import (
    AdaptiveBitPushing,
    BasicBitPushing,
    ClientBatch,
    FixedPointEncoder,
    VectorMeanEstimator,
    accumulate_bit_reports,
    batch_chunk_size,
    collect_client_reports,
    elicit_values,
)
from repro.core.client_plane import DEFAULT_CHUNK_CLIENTS
from repro.core.protocol import collect_bit_reports
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated import (
    CohortSelector,
    DropoutModel,
    FederatedMeanQuery,
    NetworkModel,
    attribute_equals,
)
from repro.federated.multivalue import elicit_single_value, ground_truth_mean
from repro.privacy import BitMeter, RandomizedResponse

CHUNKS = (1, 3, 7, 50, 200, 100_000)  # includes chunk = 1 and chunk > n


def scalar_elicit(multisets, strategy, gen=None):
    """The reference: one scalar elicitation per client, in order."""
    return np.array([elicit_single_value(v, strategy, gen) for v in multisets])


def make_multisets(n=120, seed=5):
    rng = np.random.default_rng(seed)
    return [
        np.clip(rng.normal(600.0, 100.0, int(rng.integers(1, 4))), 0.0, None)
        for _ in range(n)
    ]


#: Client i's geography; the batch fixture carries it as its "geo" column.
GEO = np.where(np.arange(120) % 2, "us", "eu")


@pytest.fixture(scope="module")
def multisets():
    return make_multisets()


@pytest.fixture(scope="module")
def batch(multisets):
    return ClientBatch.from_multisets(multisets, attributes={"geo": GEO})


# ----------------------------------------------------------------------
# Chunk-size resolution
# ----------------------------------------------------------------------


class TestBatchChunkSize:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK", raising=False)
        assert batch_chunk_size() == DEFAULT_CHUNK_CLIENTS

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "1234")
        assert batch_chunk_size() == 1234
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "  ")
        assert batch_chunk_size() == DEFAULT_CHUNK_CLIENTS

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "1234")
        assert batch_chunk_size(7) == 7

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "many")
        with pytest.raises(ConfigurationError, match="REPRO_BATCH_CHUNK"):
            batch_chunk_size()
        monkeypatch.delenv("REPRO_BATCH_CHUNK")
        with pytest.raises(ConfigurationError, match=">= 1"):
            batch_chunk_size(0)


# ----------------------------------------------------------------------
# ClientBatch structure
# ----------------------------------------------------------------------


class TestClientBatch:
    def test_from_multisets_round_trip(self, multisets, batch):
        assert len(batch) == len(multisets)
        assert batch.n_clients == len(multisets)
        for i, values in enumerate(multisets):
            np.testing.assert_array_equal(batch.values_for(i), values)
            assert batch.client_ids[i] == i
            assert batch.attributes["geo"][i] == GEO[i]

    def test_from_values_uniform(self):
        b = ClientBatch.from_values([3.0, 5.0, 7.0])
        assert b.uniform
        assert b.sizes.tolist() == [1, 1, 1]
        np.testing.assert_array_equal(b.client_ids, [0, 1, 2])

    def test_local_means(self, multisets, batch):
        expected = np.array([v.mean() for v in multisets])
        np.testing.assert_allclose(batch.local_means(), expected, rtol=1e-15)

    def test_take_ragged(self, multisets, batch):
        idx = np.array([17, 3, 3, 119, 0])
        sub = batch.take(idx)
        assert len(sub) == idx.size
        for pos, i in enumerate(idx):
            np.testing.assert_array_equal(sub.values_for(pos), multisets[i])
            assert sub.client_ids[pos] == i
            assert sub.attributes["geo"][pos] == GEO[i]

    def test_take_uniform_fast_path(self):
        b = ClientBatch.from_values(np.arange(10.0), attributes={"k": np.arange(10)})
        sub = b.take([9, 2])
        assert sub.uniform
        assert sub.values.tolist() == [9.0, 2.0]
        assert sub.attributes["k"].tolist() == [9, 2]

    def test_take_out_of_range(self, batch):
        with pytest.raises(ConfigurationError, match="outside"):
            batch.take([0, len(batch)])

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one local value"):
            ClientBatch(np.array([1.0]), np.array([0, 0, 1]))
        with pytest.raises(ConfigurationError, match="span"):
            ClientBatch(np.array([1.0, 2.0]), np.array([0, 1]))
        with pytest.raises(ConfigurationError, match="client_ids"):
            ClientBatch(np.array([1.0]), np.array([0, 1]), client_ids=np.array([1, 2]))
        with pytest.raises(ConfigurationError, match="attribute column"):
            ClientBatch(
                np.array([1.0]), np.array([0, 1]), attributes={"geo": np.array([1, 2])}
            )
        with pytest.raises(ConfigurationError, match="no local values"):
            ClientBatch.from_multisets([np.empty(0)])


# ----------------------------------------------------------------------
# Elicitation twins
# ----------------------------------------------------------------------


class TestElicitValues:
    @pytest.mark.parametrize("strategy", ["sample", "max", "latest"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_exact_twin(self, multisets, batch, strategy, chunk):
        gen_loop = np.random.default_rng(11)
        gen_batch = np.random.default_rng(11)
        reference = scalar_elicit(multisets, strategy, gen_loop)
        columnar = elicit_values(batch, strategy, gen_batch, chunk=chunk)
        np.testing.assert_array_equal(columnar, reference)
        # The columnar kernel must consume the stream exactly as the loop did.
        assert gen_batch.bit_generator.state == gen_loop.bit_generator.state

    def test_mean_twin_allclose(self, multisets, batch):
        # "mean" is the documented ulp exception: reduceat (sequential) vs
        # ndarray.mean (pairwise) summation order.
        reference = scalar_elicit(multisets, "mean")
        np.testing.assert_allclose(elicit_values(batch, "mean"), reference, rtol=1e-15)

    def test_unknown_strategy(self, batch):
        with pytest.raises(ConfigurationError, match="unknown elicitation"):
            elicit_values(batch, "median")

    def test_ground_truth_twin(self, multisets, batch):
        # "sample" has the same ground truth as "mean": each client's local mean.
        for strategy in ("sample", "mean", "max", "latest"):
            scalar = "mean" if strategy == "sample" else strategy
            assert ground_truth_mean(batch, strategy) == pytest.approx(
                np.mean(scalar_elicit(multisets, scalar)), rel=1e-14
            )


# ----------------------------------------------------------------------
# Chunked report collection vs the legacy single-pass kernel
# ----------------------------------------------------------------------


class TestAccumulateBitReports:
    n_bits = 8

    @pytest.fixture(scope="class")
    def encoded(self):
        rng = np.random.default_rng(21)
        return rng.integers(0, 2**self.n_bits, size=230).astype(np.uint64)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("b_send", [1, 2])
    @pytest.mark.parametrize("ldp", [False, True])
    def test_bit_identical_to_collect_bit_reports(self, encoded, chunk, b_send, ldp):
        rng = np.random.default_rng(33)
        n = encoded.size
        assignment = rng.integers(0, self.n_bits, size=(n, b_send))
        if b_send == 1:
            assignment = assignment.ravel()  # 1-D shape must be accepted too
        perturbation = RandomizedResponse(epsilon=1.0) if ldp else None
        ref = collect_bit_reports(
            encoded, self.n_bits, assignment, perturbation, np.random.default_rng(55)
        )
        got = accumulate_bit_reports(
            encoded,
            self.n_bits,
            assignment,
            perturbation,
            np.random.default_rng(55),
            chunk=chunk,
        )
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_collect_client_reports_fuses_encoding(self, chunk):
        rng = np.random.default_rng(8)
        values = rng.normal(120.0, 30.0, size=211)
        encoder = FixedPointEncoder.for_integers(9)
        assignment = rng.integers(0, encoder.n_bits, size=(211, 2))
        perturbation = RandomizedResponse(epsilon=2.0)
        ref = collect_bit_reports(
            encoder.encode(values),
            encoder.n_bits,
            assignment,
            perturbation,
            np.random.default_rng(9),
        )
        got = collect_client_reports(
            values, encoder, assignment, perturbation, np.random.default_rng(9), chunk=chunk
        )
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_bad_assignment(self, encoded):
        with pytest.raises(ProtocolError, match="incompatible"):
            accumulate_bit_reports(encoded, self.n_bits, np.zeros(encoded.size - 1))
        with pytest.raises(ProtocolError, match="outside"):
            accumulate_bit_reports(
                encoded, self.n_bits, np.full(encoded.size, self.n_bits)
            )


# ----------------------------------------------------------------------
# Estimator twins: scalar elicitation vs the columnar entry
# ``est.estimate(elicit_values(batch, ...), gen)``, chunk-invariant
# ----------------------------------------------------------------------


class TestEstimatorTwins:
    @pytest.mark.parametrize("chunk", [1, 13, 1000])
    def test_basic_chunk_invariance_via_env(self, monkeypatch, chunk):
        # estimate() streams internally through accumulate_bit_reports; the
        # REPRO_BATCH_CHUNK knob must not change a single bit.
        rng = np.random.default_rng(3)
        values = rng.normal(500.0, 80.0, size=400)
        est = BasicBitPushing(
            FixedPointEncoder.for_integers(10),
            perturbation=RandomizedResponse(epsilon=1.5),
        )
        monkeypatch.delenv("REPRO_BATCH_CHUNK", raising=False)
        reference = est.estimate(values, np.random.default_rng(7))
        monkeypatch.setenv("REPRO_BATCH_CHUNK", str(chunk))
        chunked = est.estimate(values, np.random.default_rng(7))
        assert chunked.value == reference.value
        np.testing.assert_array_equal(chunked.counts, reference.counts)

    @pytest.mark.parametrize("mode", ["basic", "adaptive"])
    @pytest.mark.parametrize("chunk", [1, 37, None])
    def test_estimate_clients_twin(self, multisets, batch, mode, chunk):
        cls = BasicBitPushing if mode == "basic" else AdaptiveBitPushing
        encoder = FixedPointEncoder.for_integers(10)

        gen = np.random.default_rng(17)
        reference = cls(encoder).estimate(scalar_elicit(multisets, "sample", gen), gen)
        gen = np.random.default_rng(17)
        columnar = cls(encoder).estimate(elicit_values(batch, "sample", gen, chunk), gen)
        assert columnar.value == reference.value
        np.testing.assert_array_equal(columnar.counts, reference.counts)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DuchiMechanism(0.0, 1000.0, epsilon=1.0),
            lambda: PiecewiseMechanism(0.0, 1000.0, epsilon=1.0),
            lambda: HybridMechanism(0.0, 1000.0, epsilon=1.0),
            lambda: LaplaceMean(0.0, 1000.0, epsilon=1.0),
            lambda: SubtractiveDithering(0.0, 1000.0),
            lambda: RandomizedRounding(0.0, 1000.0),
        ],
        ids=["duchi", "piecewise", "hybrid", "laplace", "dithering", "rounding"],
    )
    @pytest.mark.parametrize("chunk", [1, 37])
    def test_baseline_estimate_clients_twin(self, multisets, batch, factory, chunk):
        gen = np.random.default_rng(23)
        reference = factory().estimate(scalar_elicit(multisets, "sample", gen), gen)
        gen = np.random.default_rng(23)
        columnar = factory().estimate(elicit_values(batch, "sample", gen, chunk), gen)
        assert columnar.value == reference.value
        assert columnar.n_clients == reference.n_clients
        assert columnar.method == reference.method


# ----------------------------------------------------------------------
# Federated server twins: chunked rounds == the whole-batch round
# ----------------------------------------------------------------------


class TestFederatedTwins:
    def run_query(
        self, population, mode, ldp, chunk_clients, seed=41, elicitation="sample", meter=None
    ):
        query = FederatedMeanQuery(
            # 10 bits cover the population's ~600 values without clipping.
            FixedPointEncoder.for_integers(10),
            mode=mode,
            perturbation=RandomizedResponse(epsilon=2.0) if ldp else None,
            dropout=DropoutModel(rate=0.1),
            network=NetworkModel(loss_rate=0.05),
            meter=meter,
            elicitation=elicitation,
            chunk_clients=chunk_clients,
        )
        return query.run(
            population,
            rng=seed,
            eligibility=attribute_equals("geo", "us"),
            cohort_size=40,
        )

    @pytest.mark.parametrize("mode", ["basic", "adaptive"])
    @pytest.mark.parametrize("ldp", [False, True])
    def test_run_twin(self, batch, mode, ldp):
        # Multi-valued, non-integer clients: every elicitation strategy,
        # "mean" included, is chunk-invariant.
        def recorded(meter):
            return [i for i in batch.client_ids.tolist() if meter.bits_disclosed_by(i)]

        for elicitation in ("sample", "max", "latest", "mean"):
            ref_meter = BitMeter(max_bits_per_value=1)
            reference = self.run_query(
                batch, mode, ldp, None, elicitation=elicitation, meter=ref_meter
            )
            assert recorded(ref_meter)
            for chunk in (1, 13):
                meter = BitMeter(max_bits_per_value=1)
                columnar = self.run_query(
                    batch, mode, ldp, chunk, elicitation=elicitation, meter=meter
                )
                assert columnar.value == reference.value
                for ref_round, col_round in zip(reference.rounds, columnar.rounds):
                    np.testing.assert_array_equal(col_round.bit_means, ref_round.bit_means)
                    np.testing.assert_array_equal(col_round.counts, ref_round.counts)
                assert recorded(meter) == recorded(ref_meter)

    def test_chunk_clients_validated(self):
        with pytest.raises(ConfigurationError, match="chunk"):
            FederatedMeanQuery(FixedPointEncoder.for_integers(8), chunk_clients=0)


# ----------------------------------------------------------------------
# Cohort selection
# ----------------------------------------------------------------------


class TestCohortSelection:
    def test_select_indices_stream_identical(self, batch):
        # One gen.choice over the eligible count, and nothing else drawn.
        selector = CohortSelector(min_cohort_size=2)
        gen = np.random.default_rng(9)
        got = selector.select_indices(batch, attribute_equals("geo", "us"), 20, gen)
        ref_gen = np.random.default_rng(9)
        eligible = np.flatnonzero(GEO == "us")
        expected = eligible[ref_gen.choice(eligible.size, size=20, replace=False)]
        np.testing.assert_array_equal(got, expected)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_full_population_no_copy(self, batch):
        from repro.federated.server import _CohortDraw

        selector = CohortSelector(min_cohort_size=2)
        # No predicate, no subsampling: every position, and the cohort is
        # the batch itself.
        positions = selector.select_indices(batch, rng=0)
        np.testing.assert_array_equal(positions, np.arange(len(batch)))
        assert _CohortDraw(batch, None, selector).clients(positions) is batch

    def test_mask_eligibility(self, batch):
        positions = CohortSelector(min_cohort_size=2).select_indices(
            batch, attribute_equals("geo", "eu"), rng=0
        )
        assert batch.client_ids[positions].tolist() == np.flatnonzero(GEO == "eu").tolist()

    def test_plain_callable_on_batch_rejected(self, batch):
        with pytest.raises(ConfigurationError, match="mask"):
            CohortSelector(min_cohort_size=2).select_indices(batch, lambda c: True, rng=0)


# ----------------------------------------------------------------------
# Vectorized grouping in VectorMeanEstimator stays order-identical
# ----------------------------------------------------------------------


class TestVectorGrouping:
    @staticmethod
    def reference_groups(order, n_dims, dims_per_client):
        # The original Python append loop the argsort vectorization replaced.
        offset = max(1, n_dims // dims_per_client)
        groups = [[] for _ in range(n_dims)]
        for position, client in enumerate(order):
            for j in range(dims_per_client):
                groups[(position + j * offset) % n_dims].append(int(client))
        return groups

    @pytest.mark.parametrize("dims_per_client", [1, 2, 3])
    @pytest.mark.parametrize("n_dims", [4, 5])
    def test_estimate_matches_reference_grouping(self, n_dims, dims_per_client):
        if dims_per_client > n_dims:
            pytest.skip("invalid configuration")
        rng = np.random.default_rng(2)
        vectors = rng.normal(0.2, 0.1, size=(300, n_dims))
        encoder = FixedPointEncoder.for_range(-1.0, 1.0, n_bits=8)
        estimator = VectorMeanEstimator(
            encoder, n_dims=n_dims, dims_per_client=dims_per_client
        )
        result = estimator.estimate(vectors, np.random.default_rng(6))

        # Re-run the estimation with the hand-rolled grouping loop.
        gen = np.random.default_rng(6)
        order = gen.permutation(vectors.shape[0])
        groups = self.reference_groups(order, n_dims, dims_per_client)
        for dim in range(n_dims):
            expected = BasicBitPushing(encoder).estimate(
                vectors[groups[dim], dim], gen
            )
            assert result.per_dim[dim].value == expected.value
