"""The ported cephes functions (``qwave._cephes``) against scipy, which is a
test dependency only: ``lgam`` against ``scipy.special.gammaln`` and
``pdtrc`` against ``scipy.special.pdtrc``, bit for bit."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from qwave import _cephes, operators
from qwave.fock import MAX_REGISTER_DIM
from qwave.operators import coherent_amplitudes, poisson_tail


def _same(x: float, y: float) -> bool:
    """Equal bits, except that any NaN equals any NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def _in_temme_region(a: float, x: float) -> bool:
    """Where cephes igam switches to Temme's uniform expansion."""
    r = abs(x - a) / a
    return (20 < a < 200 and r < 0.3) or (a > 200 and r < 4.5 / math.sqrt(a))


def test_pdtrc_matches_scipy_on_a_seeded_sweep(monkeypatch):
    rng = np.random.default_rng(20)
    n = 20_000
    cutoff = rng.integers(0, MAX_REGISTER_DIM, n)
    third = n // 3
    mean = np.concatenate([
        (cutoff[:third] + 1) * rng.uniform(0.65, 1.35, third),  # a ~ x
        10.0 ** rng.uniform(-3.0, 4.0, third),
        (cutoff[2 * third:] + 1) * rng.uniform(0.0, 2.0, n - 2 * third),
    ])
    # cutoff 0 with 1 < m <= 1.1 is the one way into igamc_series
    cutoff = np.concatenate([cutoff, np.zeros(8, dtype=int)])
    mean = np.concatenate([mean, rng.uniform(1.0, 1.1, 8)])

    reached = dict.fromkeys(("_asymptotic_series", "_igam_series",
                             "_igamc_continued_fraction", "_igamc_series"), 0)
    for name in reached:
        def counted(*args, _name=name, _f=getattr(_cephes, name)):
            reached[_name] += 1
            return _f(*args)
        monkeypatch.setattr(_cephes, name, counted)

    port = np.array([_cephes.pdtrc(float(k), float(m))
                     for k, m in zip(cutoff, mean)])
    scipy = special.pdtrc(cutoff.astype(float), mean)
    differ = np.flatnonzero(port.view(np.int64) != scipy.view(np.int64))
    assert differ.size == 0, [(cutoff[i], mean[i], port[i], scipy[i])
                              for i in differ[:5]]
    temme = sum(_in_temme_region(k + 1.0, m) for k, m in zip(cutoff, mean))
    assert temme >= 3_000
    assert all(reached.values()), reached


@pytest.mark.parametrize("k, m", [
    (-1.0, 4.0), (-1.0, 0.0), (0.0, 0.0), (5.0, 0.0), (-0.5, 1.0),
    (5.0, math.nan), (0.0, math.nan), (5.0, math.inf), (0.0, math.inf),
    (5.0, 1e308), (4095.0, 1e308), (5.0, 5e-324), (0.0, 5e-324),
    (0.0, 1e-310), (4095.0, 4096.0), (25.0, -1.0),
    (math.nan, 3.0), (math.inf, 3.0), (math.inf, math.inf),
])
def test_pdtrc_matches_scipy_at_the_edges(k, m):
    assert _same(_cephes.pdtrc(k, m), special.pdtrc(k, m))


def test_poisson_tail_edges_need_no_scipy_and_raise_nothing():
    # cutoff -1 and a NaN alpha give NaN, which no tail bound admits
    assert math.isnan(poisson_tail(2.0, -1))
    assert math.isnan(poisson_tail(complex(math.nan, 0.0), 10))
    assert poisson_tail(0.0, 10) == 0.0
    assert poisson_tail(1e200 + 1e200j, 40) == 1.0  # |alpha|^2 overflows
    assert poisson_tail(1e154, 40) == special.pdtrc(40, 1e308)


def test_lgam_matches_gammaln():
    n = np.arange(MAX_REGISTER_DIM + 1)
    table = np.array([_cephes.lgam(k + 1.0) for k in range(n.size)])
    assert np.array_equal(table, special.gammaln(n + 1.0))

    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(0.0, 13.0, 2000),
                        rng.uniform(13.0, 2000.0, 2000),
                        10.0 ** rng.uniform(3.0, 306.0, 500),
                        [0.0, 5e-324, 2.0, 3.0, 13.0, 1000.0, 1e8, 2e8,
                         2.6e305, math.inf, math.nan]])
    for v in x:
        assert _same(_cephes.lgam(float(v)), special.gammaln(v)), v


def test_erf_and_erfc_match_scipy():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(-10.0, 10.0, 4000),
                        [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 27.0, -27.0,
                         30.0, math.nan]])
    for v in x:
        assert _same(_cephes._erf(float(v)), special.erf(v)), v
        assert _same(_cephes._erfc(float(v)), special.erfc(v)), v


# golden (alpha, cutoff) pairs, benchmark pairs, and the local amplitudes
# alpha / sqrt(2) that coherent-factorization builds
@pytest.mark.parametrize("alpha, cutoff", [
    (2.0, 24), (10.0, 160), (3.0, 40), (3.0, 30), (15.0, 330), (20.0, 540),
    (25.0, 800), (2.0 / math.sqrt(2), 24), (3.0 / math.sqrt(2), 40),
    (1.3 - 2.9j, 30), (0.0, 5),
])
def test_coherent_amplitudes_equal_the_gammaln_formula(alpha, cutoff):
    n = np.arange(cutoff + 1)
    mag = np.abs(alpha)
    if mag == 0.0:
        expected = np.zeros(cutoff + 1, dtype=complex)
        expected[0] = 1.0
    else:
        log_mag = -0.5 * mag**2 + n * np.log(mag) - 0.5 * special.gammaln(n + 1.0)
        expected = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    assert np.array_equal(coherent_amplitudes(alpha, cutoff), expected)


def test_log_factorial_table_grows_once_under_concurrent_callers(monkeypatch):
    # cli batch --jobs N builds coherent states on several threads at once
    monkeypatch.setattr(operators, "_LOG_FACTORIALS", [])
    cutoffs = [5, 800, 40, 330, 1, 160, 540, 24] * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(operators._log_factorials, cutoffs,
                                   timeout=120))
    finally:
        sys.setswitchinterval(interval)
    full = [_cephes.lgam(n + 1.0) for n in range(max(cutoffs) + 1)]
    assert operators._LOG_FACTORIALS == full
    for cutoff, table in zip(cutoffs, tables):
        assert table.tolist() == full[: cutoff + 1]
