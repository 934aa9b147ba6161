"""Golden-model tests: batched scan generators vs the frozen seed path.

The vectorization contract of ``repro.engine.scan`` +
``repro.datasets``: per-seed RNG draw *order* is preserved, so labels,
schedules and fault episodes are **bit-identical** to the frozen
implementation in ``repro.datasets._seed_reference``, while the
recurrence numerics (evaluated as chunked affine scans instead of
sample-by-sample loops) agree to ``rtol <= 1e-10``.

Hypothesis property tests pin the scan kernels against their sequential
definitions across parameter ranges well beyond what the generators use.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import _seed_reference as ref
from repro.datasets.generators import (
    DATAGEN_VERSION,
    generate_segment,
)
from repro.datasets.gpu import generate_gpu
from repro.datasets.recipes import recipe
from repro.engine.scan import (
    damped_oscillation_scan,
    ema_scan,
    first_order_affine_scan,
)

RTOL = 1e-10

#: (name, kwargs) for every generator at quick sizes; every per-arch /
#: per-component batching path is exercised.
GOLDEN_CASES = (
    ("fault", {"t": 3000}),
    ("application", {"t": 900, "nodes": 4}),
    ("power", {"t": 2500}),
    ("infrastructure", {"t": 900, "racks": 3}),
    ("cross-architecture", {"t": 900}),
    ("gpu", {"t": 900, "gpus": 3}),
)


def _generate(name: str, seed: int, **kwargs):
    if name == "gpu":
        return generate_gpu(seed, **kwargs)
    return generate_segment(name, seed=seed, **kwargs)


def _assert_segments_equivalent(reference, new):
    __tracebackhide__ = True
    assert len(reference.components) == len(new.components)
    assert reference.label_names == new.label_names
    for rc, nc in zip(reference.components, new.components):
        assert rc.name == nc.name
        assert rc.arch == nc.arch
        assert rc.sensor_names == nc.sensor_names
        assert rc.sensor_groups == nc.sensor_groups
        # Labels (and with them schedules + fault episodes) bit-identical.
        if rc.labels is None:
            assert nc.labels is None
        else:
            assert np.array_equal(rc.labels, nc.labels)
        scale = max(1.0, float(np.max(np.abs(rc.matrix))))
        np.testing.assert_allclose(
            nc.matrix, rc.matrix, rtol=RTOL, atol=1e-12 * scale
        )
        if rc.target is None:
            assert nc.target is None
        else:
            np.testing.assert_allclose(
                nc.target, rc.target, rtol=RTOL, atol=1e-12
            )


class TestGoldenSegments:
    @pytest.mark.parametrize(
        "name,kwargs", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_seed_reference(self, name, kwargs, seed):
        reference = ref.reference_generate_segment(name, seed=seed, **kwargs)
        new = _generate(name, seed, **kwargs)
        _assert_segments_equivalent(reference, new)

    def test_perturbed_recipe_matches_reference(self):
        """Noise/drift perturbations ride on equivalent base segments."""
        r = recipe(
            "application", t=900, nodes=2, noise_std=0.05, drift=0.1,
            noise_seed=5,
        )
        reference = ref.reference_generate_segment(
            "application", seed=0, t=900, nodes=2
        )
        from repro.datasets.recipes import _perturb

        _perturb(reference, 0.05, 0.1, 5)
        _assert_segments_equivalent(reference, r.build())

    def test_datagen_version_in_cache_identity(self):
        """The generator version keys cached artifacts: stale artifacts
        from another engine regenerate instead of mixing numerics."""
        data = recipe("fault", t=600).cache_dict()
        assert data["datagen"] == DATAGEN_VERSION
        # ... but it is not part of the recipe's serialized identity.
        assert "datagen" not in recipe("fault", t=600).to_dict()


class TestScanKernelProperties:
    @given(
        samples=st.integers(min_value=2, max_value=200),
        n_rows=st.integers(min_value=1, max_value=4),
        t=st.integers(min_value=1, max_value=600),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_ema_scan_matches_sequential(self, samples, n_rows, t, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.5, size=(n_rows, t))
        got = ema_scan(x, samples)
        for row in range(n_rows):
            expected = ref.reference_ema(x[row], samples)
            np.testing.assert_allclose(
                got[row], expected, rtol=RTOL, atol=1e-13
            )

    @given(
        theta=st.floats(min_value=1e-4, max_value=0.9),
        mean=st.floats(min_value=-1.0, max_value=1.0),
        sigma=st.floats(min_value=0.0, max_value=0.2),
        t=st.integers(min_value=1, max_value=800),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_ou_scan_matches_sequential(self, theta, mean, sigma, t, seed):
        noise = sigma * np.random.default_rng(seed).standard_normal(t)
        got = first_order_affine_scan(1.0 - theta, theta * mean + noise, mean)
        expected = np.empty(t)
        expected[0] = mean
        for i in range(1, t):
            expected[i] = (
                expected[i - 1] + theta * (mean - expected[i - 1]) + noise[i]
            )
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=1e-12)

    @given(
        stiffness=st.floats(min_value=0.0, max_value=0.5),
        damping=st.floats(min_value=0.0, max_value=0.8),
        drive=st.floats(min_value=1e-4, max_value=0.1),
        t=st.integers(min_value=1, max_value=800),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(
        stiffness=0.0,
        damping=5.960464477539063e-08,
        drive=0.0625,
        t=2,
        seed=0,
    )  # near-defective dynamics: cond(P) about 3.4e7
    @settings(max_examples=60, deadline=None)
    def test_oscillation_scan_matches_sequential(
        self, stiffness, damping, drive, t, seed
    ):
        kicks = drive * np.random.default_rng(seed).standard_normal(t)
        got = damped_oscillation_scan(
            kicks, stiffness=stiffness, damping=damping
        )
        expected = ref.reference_damped_oscillation(
            t,
            np.random.default_rng(seed),
            stiffness=stiffness,
            damping=damping,
            drive=drive,
        )
        scale = max(1.0, float(np.max(np.abs(expected))))
        np.testing.assert_allclose(
            got, expected, rtol=1e-9, atol=1e-11 * scale
        )

    @given(
        a=st.floats(min_value=-0.999, max_value=0.999),
        t=st.integers(min_value=1, max_value=500),
        x0=st.floats(min_value=-5.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_order_scan_matches_sequential(self, a, t, x0, seed):
        u = np.random.default_rng(seed).normal(0.0, 1.0, size=t)
        got = first_order_affine_scan(a, u, x0)
        expected = np.empty(t)
        expected[0] = x0
        for i in range(1, t):
            expected[i] = a * expected[i - 1] + u[i]
        scale = max(1.0, float(np.max(np.abs(expected))))
        np.testing.assert_allclose(
            got, expected, rtol=RTOL, atol=1e-12 * scale
        )

    def test_first_order_scan_2d_initial_column(self):
        """Leading axes vectorize; each row keeps its own initial value."""
        rng = np.random.default_rng(0)
        u = rng.normal(size=(3, 50))
        x0 = np.array([1.0, -2.0, 0.5])
        got = first_order_affine_scan(0.7, u, x0)
        for row in range(3):
            expected = first_order_affine_scan(0.7, u[row], x0[row])
            np.testing.assert_allclose(got[row], expected, rtol=1e-12)

    def test_zero_coefficient_passthrough(self):
        u = np.arange(5, dtype=np.float64)
        got = first_order_affine_scan(0.0, u, 42.0)
        np.testing.assert_array_equal(got, [42.0, 1.0, 2.0, 3.0, 4.0])

    def test_ema_scan_short_series_is_copy(self):
        x = np.array([3.0, 1.0])
        out = ema_scan(x, 1)
        assert np.array_equal(out, x) and out is not x
