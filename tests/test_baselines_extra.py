"""Tests for the extra related-work baselines (PCA, SAX, CorrMat)."""

import numpy as np
import pytest

from repro.baselines import (
    CorrelationMatrixSignature,
    PCASignature,
    SAXSignature,
    get_method,
)


@pytest.fixture
def data(rng):
    t = 300
    sig = np.sin(np.linspace(0, 15, t))
    rows = [sig * g + 0.05 * rng.standard_normal(t) for g in (1.0, 0.8, -0.9)]
    rows += [rng.standard_normal(t) * 0.2 for _ in range(3)]
    return np.asarray(rows)


class TestPCASignature:
    def test_feature_length(self, data):
        m = PCASignature(n_components=3)
        m.fit(data)
        assert m.feature_length(6, 30) == 6  # mean + std per component

    def test_components_capped_by_sensors(self, data):
        m = PCASignature(n_components=50).fit(data)
        f = m.transform(data[:, :30])
        assert f.shape == (2 * 6,)

    def test_series_matches_single(self, data):
        m = PCASignature(n_components=3).fit(data)
        batch = m.transform_series(data, 30, 10)
        for k, s in enumerate(range(0, data.shape[1] - 29, 10)):
            assert np.allclose(batch[k], m.transform(data[:, s : s + 30]),
                               atol=1e-10)

    def test_auto_fit_on_series(self, data):
        m = PCASignature(n_components=2)
        F = m.transform_series(data, 30, 10)
        assert F.shape[1] == 4

    def test_rejects_sensor_count_mismatch(self, data):
        m = PCASignature(n_components=2).fit(data)
        with pytest.raises(ValueError):
            m.transform(data[:3, :30])

    def test_unfitted_transform_raises(self, data):
        with pytest.raises(RuntimeError):
            PCASignature().transform(data[:, :30])

    def test_rejects_bad_components(self):
        with pytest.raises(ValueError):
            PCASignature(n_components=0)


class TestSAXSignature:
    def test_symbols_in_alphabet(self, data):
        m = SAXSignature(segments=4, alphabet=6).fit(data)
        f = m.transform(data[:, :40])
        assert f.shape == (6 * 4,)
        assert f.min() >= 0 and f.max() <= 5
        assert np.allclose(f, np.round(f))  # integer symbols

    def test_monotone_in_value(self):
        # A high-value window must map to higher symbols than a low one.
        S = np.linspace(-3, 3, 300)[None, :]
        m = SAXSignature(segments=2, alphabet=8).fit(S)
        lo = m.transform(S[:, :50])
        hi = m.transform(S[:, -50:])
        assert hi.mean() > lo.mean()

    def test_series_matches_single(self, data):
        m = SAXSignature(segments=3, alphabet=5).fit(data)
        batch = m.transform_series(data, 20, 10)
        for k, s in enumerate(range(0, data.shape[1] - 19, 10)):
            assert np.allclose(batch[k], m.transform(data[:, s : s + 20]))

    def test_segments_capped_by_window(self, data):
        m = SAXSignature(segments=10, alphabet=4).fit(data)
        f = m.transform(data[:, :5])
        assert f.shape == (6 * 5,)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SAXSignature(segments=0)
        with pytest.raises(ValueError):
            SAXSignature(alphabet=1)
        with pytest.raises(ValueError):
            SAXSignature(alphabet=27)

    def test_breakpoints_are_scipy_norm_ppf_bit_for_bit(self):
        # The lazy import must not change a single breakpoint bit (an
        # inverse-CDF stand-in such as statistics.NormalDist drifts by
        # an ulp at most alphabet sizes, which would move SAX symbols).
        from scipy.stats import norm

        for a in range(2, 27):
            expected = norm.ppf(np.arange(1, a) / a)
            got = SAXSignature(alphabet=a)._breakpoints
            assert got.tobytes() == expected.tobytes(), a

    def test_without_scipy_names_the_extra(self, monkeypatch):
        import sys

        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        with pytest.raises(ImportError, match=r"pip install repro-cs\[baselines\]"):
            SAXSignature()


class TestCorrMatSignature:
    def test_feature_length_quadratic(self):
        m = CorrelationMatrixSignature()
        assert m.feature_length(6, 30) == 15
        assert m.feature_length(52, 30) == 52 * 51 // 2

    def test_values_in_range(self, data):
        f = CorrelationMatrixSignature().transform(data[:, :50])
        assert np.all(f >= -1.0 - 1e-9) and np.all(f <= 1.0 + 1e-9)

    def test_detects_correlation_structure(self, data):
        f = CorrelationMatrixSignature().transform(data[:, :100])
        # Rows 0 and 1 follow the same signal -> first coefficient high;
        # rows 0 and 2 are anti-correlated -> second coefficient low.
        assert f[0] > 0.8
        assert f[1] < -0.8

    def test_single_sample_window(self, data):
        f = CorrelationMatrixSignature().transform(data[:, :1])
        assert np.allclose(f, 0.0)

    def test_registered(self):
        assert isinstance(get_method("corrmat"), CorrelationMatrixSignature)
        assert isinstance(get_method("pca"), PCASignature)
        assert isinstance(get_method("sax"), SAXSignature)
