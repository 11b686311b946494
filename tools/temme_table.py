"""Print the d table of Temme's uniform asymptotic expansion of the
incomplete gamma function, as ``qwave._cephes`` holds it.

The expansion (DLMF 8.12.3 and 8.12.4; N. M. Temme, SIAM J. Math. Anal.
10, 757, 1979) writes igam(a, x) and igamc(a, x) through
erfc(+-eta sqrt(a/2)) and a double sum of d[k][n] eta**n / a**k, where
eta(lam) = sign(lam) sqrt(2 (lam - log(1 + lam))) and lam = x/a - 1. The
table's coefficients come from DLMF 8.12.12 and 8.12.13:

* d[0][n] = (n + 2) alpha[n + 2], where alpha are the coefficients of lam
  as a power series in eta. Here they are exact rationals: eta/lam is the
  square root of a power series with rational coefficients, and the
  reversion uses Lagrange's formula in ``fractions.Fraction``;
* d[k][n] = (-1)**k g[k] d[0][n] + (n + 2) d[k - 1][n + 2], with g the
  Stirling coefficients of DLMF 5.11.3 and 5.11.5, computed as scipy's
  ``_precompute/gammainc_asy.py`` computes them.

The rows and the recurrence are evaluated at 50 significant digits, and
each coefficient is printed with ``mpmath.nstr(x, 17)``, as scipy prints
the table it compiles; a 17-digit decimal names one double. Needs mpmath;
takes about half a minute on one core::

    python3 tools/temme_table.py > table.txt
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

K = 25  # rows: powers of 1/a
N = 25  # columns: powers of eta
M = N + 2 * K  # d[0] terms the recurrence reads


def series_mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    """First ``n`` coefficients of the product of two power series."""
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] += ai * bj
    return out


def eta_over_lam(n: int) -> list[Fraction]:
    """First ``n`` coefficients of eta(lam)/lam = sqrt(s(lam)), where
    2 (lam - log(1 + lam)) = lam**2 s(lam) and s(0) = 1."""
    s = [Fraction(2 * (-1) ** j, j + 2) for j in range(n)]
    r = [Fraction(1)]
    for j in range(1, n):
        cross = sum((r[i] * r[j - i] for i in range(1, j)), Fraction(0))
        r.append((s[j] - cross) / 2)
    return r


def reversion(n: int) -> list[Fraction]:
    """alpha[0..n-1]: lam = sum alpha[j] eta**j, by Lagrange inversion,
    alpha[j] = [eta**(j-1)] (lam/eta)**j / j."""
    ratio = eta_over_lam(n)
    inv = [Fraction(1)]  # lam/eta = 1/ratio, as a series in lam
    for j in range(1, n):
        inv.append(-sum((ratio[i] * inv[j - i] for i in range(1, j + 1)),
                        Fraction(0)))
    alpha = [Fraction(0)]
    power = [Fraction(1)]
    for j in range(1, n):
        power = series_mul(power, inv, n)
        alpha.append(power[j - 1] / j)
    return alpha


def compute_a(n: int) -> list:
    """a_k of DLMF 5.11.6, as scipy's precompute script has them."""
    a = [mp.sqrt(2) / 2]
    for k in range(1, n):
        ak = a[-1] / k
        for j in range(1, len(a)):
            ak -= a[j] * a[-j] / (j + 1)
        ak /= a[0] * (1 + mp.mpf(1) / (k + 1))
        a.append(ak)
    return a


def compute_g(n: int) -> list:
    """g_k of DLMF 5.11.3 and 5.11.5, as scipy's precompute script has them."""
    a = compute_a(2 * n)
    return [mp.sqrt(2) * mp.rf(0.5, k) * a[2 * k] for k in range(n)]


def compute_d() -> list[list]:
    alpha = reversion(M + 2)
    d0 = [Fraction(-1, 3)] + [(n + 2) * alpha[n + 2] for n in range(1, M)]
    d = [[mp.mpf(x.numerator) / x.denominator for x in d0]]
    g = compute_g(K)
    for k in range(1, K):
        d.append([(-1) ** k * g[k] * d[0][n] + (n + 2) * d[k - 1][n + 2]
                  for n in range(M - 2 * k)])
    return [row[:N] for row in d]


def main() -> None:
    with mp.workdps(50):
        d = compute_d()
        print("_D = (")
        for row in d:
            cells = [mp.nstr(x, 17, min_fixed=0, max_fixed=0) + ","
                     for x in row]
            print("    (")
            for i in range(0, N, 3):
                print("        " + " ".join(cells[i:i + 3]))
            print("    ),")
        print(")")


if __name__ == "__main__":
    main()
