import math

import mpmath
import numpy as np
import pytest

from zetachain import (
    OutOfDomain,
    ValidationError,
    accessible_domain,
    hurwitz_zeta,
    n_min,
    tail_bound,
)
from zetachain import zetaref
from zetachain.zetaref import _EM_MAX_TERMS


def test_dirichlet_exact_rational_sum():
    assert abs(zetaref._head(2.0, 1.0, 5) - 5269.0 / 3600.0) < 1e-15


def test_dirichlet_single_term():
    assert abs(zetaref._head(3.0 + 1.0j, 0.7, 1) - 0.7 ** -(3.0 + 1.0j)) < 1e-15


def test_dirichlet_approaches_half_shift_limit():
    # zeta(2, 1/2) = 3 zeta(2) = pi^2 / 2
    val = zetaref._head(2.0, 0.5, 10**6)
    assert abs(val - math.pi**2 / 2.0) < 1e-5


def test_hurwitz_classical_constants():
    assert abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0) < 1e-12
    assert abs(hurwitz_zeta(4.0, 1.0) - math.pi**4 / 90.0) < 1e-12
    assert abs(hurwitz_zeta(2.0, 0.5) - math.pi**2 / 2.0) < 1e-12


def test_hurwitz_reflection_identity():
    # zeta(s, 1/2) = (2^s - 1) zeta(s, 1)
    for s in (1.5, 2.0, 3.0 + 7.0j, 1.1 + 40.0j):
        lhs = hurwitz_zeta(s, 0.5)
        rhs = (2.0**s - 1.0) * hurwitz_zeta(s, 1.0)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("sigma", [1.05, 1.5, 2.0, 4.0, 10.0])
@pytest.mark.parametrize("t", [0.0, 1.0, 13.7, 100.0])
@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
def test_hurwitz_against_mpmath(sigma, t, a):
    s = sigma + 1j * t
    ours = hurwitz_zeta(s, a)
    ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), a))
    assert abs(ours - ref) < 1e-12 * abs(ref)


# the zeta_scan benchmark's region: a in [0.05, 1], sigma in [1.05, 5], t in [0, 50]
@pytest.mark.parametrize("sigma", [1.05, 2.5, 5.0])
@pytest.mark.parametrize("t", [0.0, 25.0, 50.0])
@pytest.mark.parametrize("a", [0.05, 0.3, 1.0])
def test_hurwitz_against_mpmath_on_the_line_scan(sigma, t, a):
    s = sigma + 1j * t
    ours = hurwitz_zeta(s, a)
    ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), a))
    assert abs(ours - ref) < 1e-12 * abs(ref)


def test_line_scan_grid_reaches_the_largest_cutoff(monkeypatch):
    # s = 1.05 + 50i, the region's corner, takes M = 219 explicit terms: no draw
    # of the scan needs more (they reach M ~ 215)
    terms = []
    head = zetaref._head
    monkeypatch.setattr(zetaref, "_head", lambda s, a, m: terms.append(m) or head(s, a, m))
    hurwitz_zeta(1.05 + 50j, 0.05)
    assert terms == [219]


def test_hurwitz_is_bit_identical_whatever_the_call_order():
    # the ln(n + a) table is cached per (a, M); no order of calls may leak into a value
    calls = [(2.5 + 25j, 0.3), (1.05 + 50j, 0.05), (5.0, 1.0), (2.5 + 25j, 0.05), (1.05 + 50j, 0.3), (5.0, 1.0)]
    zetaref._log_table.cache_clear()
    first = [hurwitz_zeta(s, a) for s, a in calls]
    for order in (calls[::-1], calls[1::2] + calls[::2]):
        zetaref._log_table.cache_clear()
        again = {(s, a): hurwitz_zeta(s, a) for s, a in order}
        assert [again[call] for call in calls] == first
    assert first[2] == first[5]


def test_cached_log_table_is_read_only():
    table = zetaref._log_table(0.3, 20)
    assert zetaref._log_table(0.3, 20) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0.0


def test_long_log_tables_are_not_kept():
    zetaref._log_table.cache_clear()
    zetaref._head(2.0, 0.5, zetaref._CACHED_TERMS + 1)
    assert zetaref._log_table.cache_info().currsize == 0


def test_hurwitz_out_of_domain():
    with pytest.raises(OutOfDomain):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(OutOfDomain):
        hurwitz_zeta(0.5 + 14.0j, 1.0)
    # |Im s| = 1e300 asks for ~1e234 explicit terms, 1e12 for ~1e10
    for t in (1e300, 1e12):
        with pytest.raises(OutOfDomain, match="Euler-Maclaurin terms"):
            hurwitz_zeta(complex(2.0, t), 0.5)


@pytest.mark.parametrize("t", [1e44, 1e300])
def test_hurwitz_refusal_names_a_finite_term_count(t):
    # the Pochhammer product of the cutoff estimate overflows here; its logarithm does not
    with pytest.raises(OutOfDomain, match="Euler-Maclaurin terms") as err:
        hurwitz_zeta(complex(2.0, t), 0.5)
    count = float(str(err.value).split(" needs ")[1].split(" ")[0])
    assert _EM_MAX_TERMS < count < math.inf


def test_hurwitz_cutoff_from_logarithms_still_evaluates():
    # |s| ~ 1e50 overflows the product, but at sigma = 400 ~30 terms suffice:
    # the value is the n = 0 term 1**(-s) = 1 to within 2**(-400)
    s = complex(400.0, 1e50)
    assert hurwitz_zeta(s, 1.0) == pytest.approx(1.0, abs=1e-100)


@pytest.mark.parametrize("s", [1e155, 1e200, 1e300])
def test_hurwitz_at_a_1_where_the_bernoulli_factor_overflows(s):
    # zeta(s, 1) = 1 + 2**(-s) + ... is 1 in double precision; (s+1)(s+2) overflows
    # from s ~ 1.3e154 while the correction factor s * x**(-s-1) has underflowed to 0
    assert hurwitz_zeta(s, 1.0) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e300, 1e308])
def test_hurwitz_at_a_1_and_huge_s_evaluates_without_a_warning(s):
    # -s ln(n + a) overflows to -inf from n = 2 at s = 1e308; exp makes it the exact 0
    assert hurwitz_zeta(s, 1.0) == 1.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("s", [1100.0, 1.5e308])
def test_hurwitz_refuses_a_value_beyond_double_range(s):
    # 0.5**(-1100) is 2**1100 > 1.8e308
    with pytest.raises(OutOfDomain, match="overflows double precision"):
        hurwitz_zeta(s, 0.5)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("s", [complex(1.7e308, 1.7e308), complex(1e308, 1e308)])
def test_hurwitz_refuses_s_out_of_double_range(s, a):
    # |s| itself overflows at the first s; the phase Im(s) * ln(M + a) of the tail at the second
    with pytest.raises(OutOfDomain, match="out of double range"):
        hurwitz_zeta(s, a)


@pytest.mark.parametrize("s", [math.inf, complex(2.0, math.inf), complex(math.nan, 1.0), complex(2.0, math.nan)])
def test_hurwitz_rejects_non_finite_s(s):
    with pytest.raises(ValidationError, match="finite"):
        hurwitz_zeta(s, 0.5)


def test_n_min_reference_values():
    assert n_min(1.5) == 4.0
    assert abs(n_min(1.2) - 3125.0) < 1e-10 * 3125.0
    assert 55.0 <= n_min(1.3) < 56.0
    assert n_min(2.0) == 1.0
    assert abs(n_min(3.0) - 2.0**-0.5) < 1e-15


def test_n_min_ties_truncation_error_to_one():
    # the leading-order truncation error N**(1 - sigma) / (sigma - 1) is 1 at N = n_min
    for sigma in (1.1, 1.3, 1.5, 2.0):
        assert abs(n_min(sigma) ** (1.0 - sigma) / (sigma - 1.0) - 1.0) < 1e-12


def test_n_min_rejects_bad_sigma():
    with pytest.raises(ValidationError):
        n_min(1.0)


@pytest.mark.parametrize("sigma,a,n", [(2.0, 1.0, 5), (1.5, 0.5, 20), (3.0, 0.25, 3)])
@pytest.mark.parametrize("t", [0.0, 5.0, 30.0])
def test_tail_bound_dominates_truncation(sigma, a, n, t):
    s = sigma + 1j * t
    err = abs(zetaref._head(s, a, n) - hurwitz_zeta(s, a))
    assert err <= tail_bound(sigma, a, n)


@pytest.mark.parametrize("a,n", [(0.5, 1), (1.0, 5)])
def test_tail_bound_refuses_an_infinite_sigma(a, n):
    # the formula gave inf / inf = nan at N - 1 + a < 1, and 0 / inf = 0 elsewhere
    with pytest.raises(ValidationError, match="sigma must be finite"):
        tail_bound(math.inf, a, n)


def test_tail_bound_is_inf_where_the_power_overflows():
    # 0.5**(1 - 1e308) is beyond the double range, where Python's float power raises
    assert tail_bound(1e308, 0.5, 1) == math.inf
    # above N - 1 + a = 1 the same power underflows to 0, as the tail itself does
    assert tail_bound(1e308, 0.5, 2) == 0.0


@pytest.mark.parametrize("n_terms", [0, -3, 2.5, 0.5, math.nan, math.inf, -math.inf, 3 + 0j, "5"])
def test_n_terms_must_be_a_positive_integer(n_terms):
    # tail_bound(1.5, 0.5, 0) was complex, and a fractional or non-finite count
    # gave nan or a number taken for a bound
    with pytest.raises(ValidationError, match="n_terms must be a positive integer"):
        tail_bound(1.5, 0.5, n_terms)


def test_integral_float_n_terms_counts_as_integer():
    assert tail_bound(2.0, 1.0, 5.0) == tail_bound(2.0, 1.0, 5) == 0.2
    assert tail_bound(2.0, 1.0, np.int64(5)) == 0.2


def test_truncation_converges_monotonically_at_real_s():
    sigma, a = 1.8, 0.5
    exact = hurwitz_zeta(sigma, a)
    errs = [abs(zetaref._head(sigma, a, n) - exact) for n in (2, 4, 8, 16, 64, 256)]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


def test_accessible_domain_with_cutoff():
    (point,) = accessible_domain([1.5], t_coh=10.0)
    assert point.n_min == 4.0
    assert point.t_max == 10.0
    assert point.feasible


def test_accessible_domain_saturates_near_one():
    (point,) = accessible_domain([1.000001], n_cap=10**6)
    assert not point.feasible
    assert point.n_min == 10**6


def test_accessible_domain_unbounded_window():
    (point,) = accessible_domain([3.0])
    assert abs(point.n_min - 2.0**-0.5) < 1e-15
    assert math.isinf(point.t_max)
    assert point.feasible
