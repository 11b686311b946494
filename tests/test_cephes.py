"""Checks of what replaced the cephes port: ``coherent_amplitudes``, with
log n! from ``math.lgamma`` in the shared table, against
``scipy.special.gammaln``; that table's growth under concurrent callers; and
the edges of ``poisson_tail``. scipy is a test dependency only. The tail
against ``scipy.stats.poisson.sf`` is checked in ``test_operators.py``."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from qwave import operators
from qwave.fock import MAX_REGISTER_DIM
from qwave.operators import coherent_amplitudes, poisson_tail


def test_poisson_tail_edges_need_no_scipy_and_raise_nothing():
    # cutoff -1 and a NaN alpha give NaN, which no tail bound admits
    assert math.isnan(poisson_tail(2.0, -1))
    assert math.isnan(poisson_tail(complex(math.nan, 0.0), 10))
    assert poisson_tail(0.0, 10) == 0.0
    assert poisson_tail(1e200 + 1e200j, 40) == 1.0  # |alpha|^2 overflows
    assert poisson_tail(math.inf, 40) == 1.0
    assert poisson_tail(1e154, 40) == 1.0


# golden (alpha, cutoff) pairs, benchmark pairs, the local amplitudes
# alpha / sqrt(2) that coherent-factorization builds, and the register limit
@pytest.mark.parametrize("alpha, cutoff", [
    (2.0, 24), (10.0, 160), (3.0, 40), (3.0, 30), (15.0, 330), (20.0, 540),
    (25.0, 800), (2.0 / math.sqrt(2), 24), (3.0 / math.sqrt(2), 40),
    (1.3 - 2.9j, 30), (0.0, 5), (60.0, MAX_REGISTER_DIM - 1),
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
    np.testing.assert_allclose(coherent_amplitudes(alpha, cutoff), expected,
                               rtol=1e-10, atol=0.0)


def test_log_factorial_table_grows_once_under_concurrent_callers(monkeypatch):
    # cli batch --jobs N builds coherent states on several threads at once
    monkeypatch.setattr(operators, "_LOG_FACTORIALS", np.zeros(0))
    cutoffs = [5, 800, 40, 330, 1, 160, 540, 24] * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(operators._log_factorials, cutoffs,
                                   timeout=120))
    finally:
        sys.setswitchinterval(interval)
    full = [math.lgamma(n + 1.0) for n in range(max(cutoffs) + 1)]
    assert operators._LOG_FACTORIALS.tolist() == full
    assert not operators._LOG_FACTORIALS.flags.writeable
    for cutoff, table in zip(cutoffs, tables):
        assert table.tolist() == full[: cutoff + 1]
