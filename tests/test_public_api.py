"""Public API surface: everything advertised is importable and consistent."""

import importlib

import pytest

import repro


class TestTopLevelSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_shape(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_all_is_sorted_modulo_dunder(self):
        names = [n for n in repro.__all__ if not n.startswith("__")]
        assert names == sorted(names)

    @pytest.mark.parametrize(
        "subpackage",
        [
            "repro.core",
            "repro.privacy",
            "repro.baselines",
            "repro.federated",
            "repro.federated.secure_agg",
            "repro.data",
            "repro.attacks",
            "repro.metrics",
            "repro.experiments",
        ],
    )
    def test_subpackage_all_resolves(self, subpackage):
        module = importlib.import_module(subpackage)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{subpackage}.{name}"

    def test_estimators_share_estimate_signature(self):
        """Every scalar estimator exposes estimate(values, rng) -> .value."""
        import numpy as np

        values = np.full(5_000, 40.0)
        encoder = repro.FixedPointEncoder.for_integers(8)
        estimators = [
            repro.BasicBitPushing(encoder),
            repro.AdaptiveBitPushing(encoder),
            repro.QuantileEstimator(encoder, q=0.5),
        ]
        for estimator in estimators:
            result = estimator.estimate(values, rng=0)
            assert abs(result.value - 40.0) < 2.0, type(estimator).__name__

    def test_docstrings_everywhere_public(self):
        """Every public top-level object carries a docstring."""
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"

