import math

import pytest
from mpmath import mp

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
from polyvol.series import MAX_SERIES_TERMS, WORKING_DPS, series_tail_bound


def series_reference(n, terms):
    """The former kernel, kept as the oracle: an mpf sum, term by term."""
    with mp.workdps(WORKING_DPS):
        total = mp.mpf(0)
        for k in range(terms, 0, -1):
            total += mp.mpf(1) / (4 * k + 1) ** n + mp.mpf(1) / (1 - 4 * k) ** n
        return total + 1


@pytest.mark.parametrize("n", [*range(2, 11), 30, 501])
def test_fixed_point_sum_matches_the_mpf_reference(n):
    for terms in (1, 10, 1000, 20_000):
        assert abs(series_partial(n, terms) - series_reference(n, terms)) < 1e-40, terms


def test_classical_values():
    with mp.workdps(30):
        assert abs(series_partial(2, 200_000) - mp.pi**2 / 8) < 1e-5
        assert abs(series_partial(3, 10_000) - mp.pi**3 / 32) < 1e-9
        assert abs(series_partial(4, 1_000) - mp.pi**4 / 96) < 1e-9


def test_targets_match_cycle_volumes():
    with mp.workdps(30):
        assert abs(series_target(3) - mp.pi**3 / 32) < 1e-25
        assert abs(series_target(4) - mp.pi**4 / 96) < 1e-25
        # n = 2 uses the cycle formula's extension vol(C_2) = 1/2
        assert abs(series_target(2) - mp.pi**2 / 8) < 1e-25


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
