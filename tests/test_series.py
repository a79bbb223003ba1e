import contextlib
import io
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp, nstr

from polyvol import (
    ParameterError,
    SizeError,
    eigen_residual,
    graph_from_dsl,
    rvf_volume,
    series_partial,
    series_target,
    trace_quadrature,
)
from polyvol.cli import _decimal_str, main
from polyvol.closed import cycle_volume
from polyvol.series import (
    _PI,
    MAX_SERIES_TERMS,
    WORKING_DPS,
    series_error_bound,
    series_tail_bound,
)


def series_reference(n, terms, dps=WORKING_DPS):
    """The former kernel, kept as the oracle: an mpf sum, term by term."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for k in range(terms, 0, -1):
            total += mp.mpf(1) / (4 * k + 1) ** n + mp.mpf(1) / (1 - 4 * k) ** n
        return total + 1


@pytest.mark.parametrize("n", [*range(2, 11), 30, 501])
def test_fixed_point_sum_matches_the_mpf_reference(n):
    for terms in (1, 10, 1000, 20_000):
        with mp.workdps(WORKING_DPS):
            partial = mp.mpf(str(series_partial(n, terms)))
        assert abs(partial - series_reference(n, terms)) < 1e-40, terms


def test_classical_values():
    with mp.workdps(30):
        assert abs(mp.mpf(str(series_partial(2, 200_000))) - mp.pi**2 / 8) < 1e-5
        assert abs(mp.mpf(str(series_partial(3, 10_000))) - mp.pi**3 / 32) < 1e-9
        assert abs(mp.mpf(str(series_partial(4, 1_000))) - mp.pi**4 / 96) < 1e-9


def test_targets_match_cycle_volumes():
    with mp.workdps(30):
        assert abs(mp.mpf(str(series_target(3))) - mp.pi**3 / 32) < 1e-25
        assert abs(mp.mpf(str(series_target(4))) - mp.pi**4 / 96) < 1e-25
        # n = 2 uses the cycle formula's extension vol(C_2) = 1/2
        assert abs(mp.mpf(str(series_target(2))) - mp.pi**2 / 8) < 1e-25


def test_pi_literal_has_64_correct_digits():
    with mp.workdps(70):
        assert len(_PI.as_tuple().digits) == 64
        assert abs(mp.mpf(str(_PI)) - mp.pi) < mp.mpf(10) ** -63


@pytest.mark.parametrize("n", [2, 3, 7, 30, 501])
def test_target_matches_the_mpf_closed_form(n):
    v = cycle_volume(n)
    with mp.workdps(WORKING_DPS + 20):
        want = mp.pi**n * v.numerator / v.denominator / 2**n
        assert abs(mp.mpf(str(series_target(n))) / want - 1) < mp.mpf(10) ** -(WORKING_DPS - 1)


@pytest.mark.parametrize(
    "n, terms",
    # series 2 --terms 1, the benchmark's warm-up call and its light-calls series
    [(2, 1), (3, 10), (3, 1000), (4, 1000), (5, 1000), (6, 1000)],
)
def test_printed_difference_is_right_to_its_last_digit(n, terms):
    with mp.workdps(WORKING_DPS):
        diff = abs(series_reference(n, terms) - mp.pi**n * cycle_volume(n) / 2**n)
    with mp.workdps(30):
        want = nstr(diff, 25)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["series", str(n), "--terms", str(terms)]) == 0
    assert out.getvalue().splitlines()[2] == f"absolute difference       = {want}"


def mpf_partial_and_target(n, terms):
    """The partial sum and its limit by mpf at 120 digits."""
    with mp.workdps(120):
        return series_reference(n, terms, 120), mp.pi**n * cycle_volume(n) / 2**n


@pytest.mark.parametrize(
    "n, terms, want",
    [
        (13, 1000, "7.402278842478e-48"),
        (16, 1000, "3.0812e-56"),
        (7, 1000, "3.041092673866388471581699e-26"),
        (30, 1, "4.439051838281402031880142e-26"),
        (501, 1, "< 1e-60"),
    ],
)
def test_every_printed_difference_digit_matches_mpmath_at_120_digits(n, terms, want):
    # past the 50 digits the partial sum and target once carried, where the
    # difference printed 7.42e-48, 0.0 and 25-digit values with a wrong last digit
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["series", str(n), "--terms", str(terms)]) == 0
    got = out.getvalue().splitlines()[2].removeprefix("absolute difference       = ")
    assert got == want
    partial, target = mpf_partial_and_target(n, terms)
    with mp.workdps(120):
        diff = abs(partial - target)
        if got.startswith("< "):
            assert diff < mp.mpf(got[2:])
        else:
            digits = len(got.partition("e")[0].replace(".", "").lstrip("0"))
            assert nstr(diff, digits) == got


@pytest.mark.parametrize("digits", [1, 5, 12, 24])
@pytest.mark.parametrize("text", ["3.041092673866e-26", "0.0000123456789", "7e-48", "123456.75"])
def test_decimal_str_has_nstrs_layout_at_fewer_digits(text, digits):
    with mp.workdps(60):
        want = nstr(mp.mpf(text), digits)
    assert _decimal_str(Decimal(text), digits) == want


def test_error_bound_covers_the_partial_sum_and_the_target():
    for n, terms in ((2, 10), (3, 1000), (12, 1), (200, 5)):
        partial, target = mpf_partial_and_target(n, terms)
        with mp.workdps(120):
            err = mp.mpf(str(series_partial(n, terms))) - partial
            err -= mp.mpf(str(series_target(n))) - target
            assert abs(err) < mp.mpf(str(series_error_bound(n, terms)))


@pytest.mark.parametrize(
    "text",
    [
        "0", "-0.5", "1", "12300000", "0.1", "1e-7", "1.5e-8", "9.87654321e-8",
        "1e24", "9.5e24", "1e25", "-3.25e40", "1234567890123456789012345678",
        "9.99999999999999999999999999", "0.0000009999999999999999999999999",
        "3.14159265358979323846264338327950", "2.7e-300",
    ],
)
def test_decimal_str_has_nstrs_layout(text):
    with mp.workdps(60):
        want = nstr(mp.mpf(text), 25)
    assert _decimal_str(Decimal(text)) == want


def test_parameter_validation():
    with pytest.raises(ParameterError):
        series_partial(1, 100)
    with pytest.raises(ParameterError):
        series_partial(3, 0)
    with pytest.raises(ParameterError):
        trace_quadrature(3, 50)
    with pytest.raises(ParameterError):
        eigen_residual(6, 2000)
    with pytest.raises(ParameterError):
        eigen_residual(0, 500)


def test_terms_bound_admits_the_n2_check_and_rejects_more():
    assert MAX_SERIES_TERMS >= 200_000
    with pytest.raises(SizeError, match="MAX_SERIES_TERMS"):
        series_partial(3, MAX_SERIES_TERMS + 1)
    with pytest.raises(ParameterError):
        series_target(1)


def test_tail_bound_invariant():
    assert series_tail_bound(3, 10) == Fraction(1, 800)
    for n in (2, 3, 4, 5):
        target = series_target(n)
        for terms in (100, 1000):
            err = abs(series_partial(n, terms) - target)
            assert err <= series_tail_bound(n, terms)


def test_trace_quadrature_values():
    for n, dsl in ((3, "cycle:3"), (4, "cycle:4"), (5, "cycle:5")):
        vol = float(rvf_volume(graph_from_dsl(dsl)))
        assert abs(trace_quadrature(n, 2000) - vol) < 5e-3
    assert abs(trace_quadrature(2, 2000) - 0.5) < 5e-3


def test_trace_error_decreases_with_grid():
    for n, vol in ((3, 0.25), (4, 1 / 6)):
        errors = [abs(trace_quadrature(n, grid) - vol) for grid in (500, 1000, 2000)]
        assert errors[0] > errors[1] > errors[2]


def test_eigen_residuals():
    assert eigen_residual(0, 5000) < 1e-4
    assert eigen_residual(1, 5000) < 1e-3
    assert eigen_residual(-1, 5000) < 1e-3


def test_eigenvalue_scale_sanity():
    # lambda_0 = 2/pi: applying T to the k=0 eigenfunction at t=0 gives
    # the full integral of cos(pi t / 2), which is 2/pi
    lam = 2 / math.pi
    assert abs(lam - 0.6366197723675814) < 1e-15
