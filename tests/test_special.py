"""The numpy-only special functions of probcal.base, against scipy.special as the reference."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as special
from hypothesis import given, settings
from hypothesis import strategies as st

import probcal
from probcal.base import _EXPIT_BLOCK, _digamma, _expit, _gammaln

# 1 + exp(-x) rounds at a tie where exp(-x) lies in [2**53, 2**54): there one ulp of
# exp moves the sum by two, and the reciprocal by up to four ulp
_TIE_BAND = (-54 * math.log(2.0), -53 * math.log(2.0))
# the DPM takes digamma and log-gamma of values >= min(alpha, 1), alpha > 0
_DPM_DOMAIN = st.floats(1e-6, 1e7, allow_subnormal=False)


def ulps(a, b) -> np.ndarray:
    """Distance in units in the last place between same-signed finite float64 values."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


def expit_ulp_bound(x) -> np.ndarray:
    return np.where((x > _TIE_BAND[0]) & (x < _TIE_BAND[1]), 4, 2)


def scaled_error(value, reference, *scales) -> np.ndarray:
    """|value - reference| over the largest of 1 and the magnitudes given."""
    return np.abs(value - reference) / np.maximum.reduce([np.ones_like(reference), *map(np.abs, scales)])


class TestExpit:
    def test_within_two_ulp_of_scipy_over_the_range(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-800.0, 800.0, 160001), rng.uniform(-800.0, 800.0, 300000),
                            rng.uniform(-40.0, 40.0, 300000)])
        distance = ulps(_expit(x), special.expit(x))
        assert np.all(distance <= expit_ulp_bound(x))
        assert np.mean(distance == 0) > 0.9

    def test_overflow_edges(self):
        # expit(x) is subnormal below x ~ -708.4, and 0 below x ~ -709.78, where exp(-x) overflows
        edges = np.array([-746.0, -745.2, -745.13, -709.79, -709.78, -708.4, -708.39, -37.5, -36.7,
                          -1e-300, -0.0, 0.0, 5e-324, 36.7, 37.5, 708.4, 709.78, 709.79, 745.2, 746.0])
        x = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        assert np.all(ulps(_expit(x), special.expit(x)) <= expit_ulp_bound(x))
        assert _expit(-709.79) == special.expit(-709.79) == 0.0

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-800.0, 800.0, allow_subnormal=True))
    def test_within_two_ulp_of_scipy_at_any_value(self, x):
        assert ulps(_expit(x), special.expit(x)) <= expit_ulp_bound(x)

    def test_limits_and_nan_without_warnings(self):
        x = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expit(x)
        np.testing.assert_array_equal(got, [1.0, 0.0, np.nan, 1.0, 0.0, 0.0])

    def test_shape_and_scalar(self):
        assert isinstance(_expit(4.0), np.float64)
        assert _expit(4.0) == _expit(np.array([4.0]))[0]
        assert _expit(np.zeros((2, 3))).shape == (2, 3)
        assert _expit(np.array([])).shape == (0,)

    def test_blocks_do_not_change_the_bits(self):
        x = np.random.default_rng(1).uniform(-50.0, 50.0, 2 * _EXPIT_BLOCK + 3)
        one_at_a_time = np.array([_expit(v) for v in x[:: _EXPIT_BLOCK // 7]])
        np.testing.assert_array_equal(_expit(x)[:: _EXPIT_BLOCK // 7], one_at_a_time)

    def test_input_is_left_unchanged(self):
        x = np.linspace(-5.0, 5.0, 11)
        before = x.copy()
        _expit(x)
        np.testing.assert_array_equal(x, before)

    def test_bits_do_not_depend_on_numpy_simd_loops(self):
        # runs in child processes only; on a CPU without these features both runs take the same loops
        source = str(Path(probcal.__file__).resolve().parents[1])
        probe = (
            "import hashlib, numpy as np; from probcal.base import _expit; "
            "x = np.random.default_rng(0).uniform(-800, 800, 200000); "
            "print(hashlib.sha256(_expit(x).tobytes()).hexdigest())"
        )
        digests = []
        for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                    env=env, check=True)
            digests.append(result.stdout.strip())
        x = np.random.default_rng(0).uniform(-800, 800, 200000)
        assert digests == [hashlib.sha256(_expit(x).tobytes()).hexdigest()] * 2


class TestGammaFamily:
    def test_digamma_on_the_dpm_domain(self):
        x = np.exp(np.random.default_rng(2).uniform(math.log(1e-6), math.log(1e7), 200000))
        reference = special.digamma(x)
        assert scaled_error(_digamma(x), reference, reference).max() <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_DPM_DOMAIN, min_size=1, max_size=50))
    def test_digamma_at_any_values(self, values):
        x = np.array(values)
        reference = special.digamma(x)
        assert scaled_error(_digamma(x), reference, reference).max() <= 1e-14

    def test_digamma_near_its_positive_root(self):
        x = 1.4616321449683622 + np.linspace(-1e-3, 1e-3, 2001)
        assert np.abs(_digamma(x) - special.digamma(x)).max() <= 1e-14

    def test_one_call_per_batch_keeps_the_bits(self):
        parts = [np.exp(np.random.default_rng(seed).uniform(-5.0, 9.0, 19)) for seed in range(4)]
        np.testing.assert_array_equal(_digamma(np.concatenate(parts)),
                                      np.concatenate([_digamma(part) for part in parts]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_DPM_DOMAIN, min_size=1, max_size=50))
    def test_gammaln(self, values):
        x = np.array(values)
        reference = special.gammaln(x)
        assert scaled_error(_gammaln(x), reference, reference).max() <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(1.0, 1e7), _DPM_DOMAIN), min_size=1, max_size=50))
    def test_betaln_from_three_lgammas(self, pairs):
        # the DPM's sticks: a = 1 + count >= 1, b = alpha + tail count
        a, b = np.array(pairs).T
        terms = _gammaln(a), _gammaln(b), _gammaln(a + b)
        log_beta = terms[0] + terms[1] - terms[2]
        assert scaled_error(log_beta, special.betaln(a, b), *terms).max() <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1.0, 1e7), min_size=1, max_size=50))
    def test_log_poch_half_from_two_lgammas(self, values):
        # the Student-t normaliser at df/2 = shape >= 1
        shape = np.array(values)
        upper = _gammaln(shape + 0.5)
        log_poch = upper - _gammaln(shape)
        assert scaled_error(log_poch, np.log(special.poch(shape, 0.5)), upper).max() <= 1e-14
