"""Independent ground truth for the Hurwitz zeta function on Re s > 1.

Provides an Euler-Maclaurin evaluation of the full function used as
acceptance oracle, and the truncation-error model that bounds the
accessible parameter domain.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .core import _check_a, _check_count, _check_sigma, _require
from .errors import OutOfDomain

__all__ = [
    "hurwitz_zeta",
    "n_min",
    "tail_bound",
]

# guard band below which the Euler-Maclaurin oracle refuses to evaluate
_SIGMA_GUARD = 1.0 + 1e-6

# B_{2k} / (2k)! for k = 1, 2, 3; the first neglected coefficient (B_8/8!)
# sizes the adaptive cutoff
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0)
_B8_OVER_8F = 1.0 / 1209600.0

# the oracle refuses an |s| that needs more explicit terms than this
_EM_MAX_TERMS = 10**7

# below this Re s no product -s ln(n + a) overflows: |ln(n + a)| <= 745 in doubles
_HEAD_SAFE_SIGMA = 1e305

# ln(n + a) tables up to this length stay cached after the call; a longer one
# (up to _EM_MAX_TERMS entries, 80 MB) is built for the call alone
_CACHED_TERMS = 2**16


@functools.lru_cache(maxsize=1)
def _log_table(a: float, n_terms: int) -> np.ndarray:
    """Read-only ln(n + a), n = 0..n_terms-1; along a line scan a is fixed and M rarely changes."""
    logs = np.log(np.arange(n_terms, dtype=float) + a)
    logs.flags.writeable = False
    return logs


def _head(s: complex, a: float, n_terms: int) -> complex:
    """sum_{n < n_terms} (n + a)**(-s) as exp(-s ln(n + a)), cheaper than numpy's complex power."""
    logs = _log_table(a, n_terms) if n_terms <= _CACHED_TERMS else _log_table.__wrapped__(a, n_terms)
    if s.real < _HEAD_SAFE_SIGMA:  # entering np.errstate costs a fifth of a typical call
        return complex(np.exp(-s * logs).sum())
    # here the product -s ln(n + a) may overflow to -inf, and exp takes it to the
    # term's correct value 0; an overflow to +inf is refused by the caller
    with np.errstate(over="ignore"):
        return complex(np.exp(-s * logs).sum())


def hurwitz_zeta(s: complex, a: float) -> complex:
    """Hurwitz zeta by explicit summation plus Euler-Maclaurin tail.

    M explicit terms, integral term (M+a)**(1-s)/(s-1), half-term, and
    Bernoulli corrections through B_6; M is chosen so the first neglected
    (B_8) correction is below 1e-13 in absolute value.  Restricted to a
    finite number s (not a str, None or an int beyond the double range) with
    Re s > 1 (with a small guard band), M <= 10**7 and a finite value.
    """
    _check_a(a)
    _require("s", s, cmath.isfinite, "be finite")
    s = complex(s)
    if s.real <= _SIGMA_GUARD:
        raise OutOfDomain(f"Re s = {s.real} outside convergence strip (need > {_SIGMA_GUARD})")

    # size M from the first neglected (B_8) correction:
    #   |B_8/8!| * prod_{j=0}^{6} |s+j| * (M+a)^(1 - Re s - 8) < 1e-13
    prod = 1.0
    try:
        for j in range(7):
            prod *= abs(s + j)
    except OverflowError:  # |s + j| itself exceeds the double range
        raise OutOfDomain(f"s = {s} is out of double range") from None
    target = 1e-13
    scaled = _B8_OVER_8F * prod / target
    if math.isfinite(scaled):
        m = math.ceil(scaled ** (1.0 / (s.real + 7.0))) + 1
    else:
        # from |s| ~ 5e43 the scaled product overflows; its logarithm does not
        log_prod = sum(math.log(abs(s + j)) for j in range(7))
        m = math.ceil(math.exp((math.log(_B8_OVER_8F / target) + log_prod) / (s.real + 7.0))) + 1
    if not m <= _EM_MAX_TERMS:
        raise OutOfDomain(f"|s| = {abs(s):.3e} needs {m:.3e} Euler-Maclaurin terms (limit {_EM_MAX_TERMS:.0e})")
    m = max(m, 16)

    head = _head(s, a, m)
    x = m + a
    try:
        x_s = x ** (-s)  # x**(1-s) and x**(-s-1) follow as x * x_s and x_s / x
    except (OverflowError, ZeroDivisionError):  # Python's complex power: modulus or phase out of range
        raise OutOfDomain(f"s = {s} is out of double range") from None
    tail = x * x_s / (s - 1.0) + 0.5 * x_s
    factor = s * x_s / x
    # once x**(-s-1) underflows to 0 the corrections vanish; skipping them keeps an
    # overflowing (s+1)(s+2) (Re s > ~1e154) from turning 0 * inf into nan
    if factor:
        tail += _EM_COEFFS[0] * factor
        factor *= (s + 1.0) * (s + 2.0) / (x * x)
        tail += _EM_COEFFS[1] * factor
        factor *= (s + 3.0) * (s + 4.0) / (x * x)
        tail += _EM_COEFFS[2] * factor
    value = head + tail
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OutOfDomain(f"zeta({s}, {a}) overflows double precision")
    return value


def n_min(sigma: float) -> float:
    """Minimum truncation order (sigma-1)**(-1/(sigma-1)) for small error."""
    _check_sigma(sigma)
    try:
        return float((sigma - 1.0) ** (-1.0 / (sigma - 1.0)))
    except OverflowError:  # diverges as sigma -> 1+
        return float("inf")


def tail_bound(sigma: float, a: float, n_terms: int) -> float:
    """Rigorous integral bound on |zeta(s,a) - truncated sum|, any t.

    The tail sum over n >= N of (n+a)**(-sigma) is dominated by the
    integral from N-1+a, giving (N-1+a)**(1-sigma)/(sigma-1).
    """
    _check_a(a)
    _check_sigma(sigma)
    try:
        return (_check_count("n_terms", n_terms) - 1 + a) ** (1.0 - sigma) / (sigma - 1.0)
    except OverflowError:  # N - 1 + a < 1 raised to a huge negative power
        return math.inf
