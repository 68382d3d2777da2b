"""Reference values for the Bessel-kernel workload.

I0 comes from ``mpmath.besseli``.  K0 and K1 come from the convergent
series of DLMF 10.31.1, summed with extra working digits that absorb its
cancellation (the terms grow like e^t while K decays like e^-t).  The
series is used instead of ``mpmath.besselk`` because the latter takes up
to seconds per call at 120 digits for t between about 3 and 100, which
would make a reference for every kernel call unaffordable; the benchmark's
tests check the series against ``mpmath.besselk``.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp


def _k_series(order: int, t):
    """K0 or K1 at the current working precision (t is an mpf)."""
    z2 = t * t / 4
    euler = mp.euler
    term = mp.mpf(1)          # (t^2/4)^m / (m! (m+order)!)
    harmonic = mp.mpf(0)      # H_m
    harmonic_n = mp.mpf(0)    # H_{m+order}
    if order == 1:
        harmonic_n = mp.mpf(1)
    i_sum = mp.mpf(0)
    psi_sum = mp.mpf(0)
    m = 0
    while True:
        i_sum += term
        psi_sum += (harmonic + harmonic_n - 2 * euler) * term
        if m > 0 and term < mp.eps * i_sum:
            break
        m += 1
        term *= z2 / (m * (m + order))
        harmonic += mp.mpf(1) / m
        harmonic_n += mp.mpf(1) / (m + order)
    log_half = mp.log(t / 2)
    if order == 0:
        # K0 = -ln(t/2) I0 + sum psi(m+1) (t^2/4)^m / (m!)^2
        return -log_half * i_sum + psi_sum / 2
    # K1 = 1/t + ln(t/2) I1 - (t/4) sum (psi(m+1) + psi(m+2)) ...
    i1 = t / 2 * i_sum
    return 1 / t + log_half * i1 - t / 4 * psi_sum


def bessel_reference(kind: str, t: float, digits: int):
    """I0, K0 or K1 at the float t, accurate to ``digits`` digits."""
    guard = 10 + (int(2 * t / math.log(10)) if kind != "I0" else 0)
    with mp.workdps(digits + guard):
        x = mp.mpf(t)
        if kind == "I0":
            value = mpmath.besseli(0, x)
        elif kind in ("K0", "K1"):
            value = _k_series(int(kind[1]), x)
        else:
            raise ValueError(f"unknown Bessel kind {kind!r}")
    with mp.workdps(digits):
        return +value
