import math

import numpy as np
import pytest

from thermoform import (RealizedSequence, chebyshev_model,
                        chebyshev_pressure_exact, classify,
                        doubling_grid_model, gurevich_estimate,
                        hofbauer_doubling_model, manneville_pomeau_model,
                        mp_induced_model, mp_preimage_ladder, periodic_points,
                        renewal_zn, sarig_series_diagnostic, solve_pressure,
                        two_slope_kink, zn_sum)
from thermoform.sequences import build_tail, normalize, realize_model

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)


def test_chebyshev_pressure_exact_values():
    assert chebyshev_pressure_exact(-1.0) == pytest.approx(LOG4)
    assert chebyshev_pressure_exact(0.0) == pytest.approx(LOG2)
    assert chebyshev_pressure_exact(2.0) == pytest.approx(-LOG2)
    # kink: the two branches cross at t = -1
    for t in (-1.5, -1.0, 0.5):
        assert chebyshev_pressure_exact(t) == pytest.approx(
            max(-t * LOG4, (1 - t) * LOG2))


def test_chebyshev_fixed_points():
    pts = periodic_points(chebyshev_model(), 1)
    xs = sorted(s.point for s in pts.samples)
    assert xs == pytest.approx([0.0, 0.75], abs=1e-12)
    derivs = sorted(math.exp(s.log_deriv) for s in pts.samples)
    assert derivs == pytest.approx([2.0, 4.0], abs=1e-9)


def test_chebyshev_counts_and_skips():
    for n in (2, 4, 8, 12):
        pts = periodic_points(chebyshev_model(), n)
        assert pts.skipped <= 2
        assert len(pts.samples) == 2 ** n - pts.skipped


def test_chebyshev_zn_values():
    model = chebyshev_model()
    z0 = zn_sum(model, 0.0, 6)
    assert z0.value == pytest.approx(2 ** 6, abs=1e-9)
    z1 = zn_sum(model, 1.0, 1)
    assert z1.value == pytest.approx(0.75, abs=1e-12)


def test_chebyshev_gurevich_exact_at_zero():
    est = gurevich_estimate(chebyshev_model(), 0.0, 8)
    assert np.allclose(est.raw, LOG2, atol=1e-9)
    assert est.extrapolated == pytest.approx(LOG2, abs=1e-9)


@pytest.mark.parametrize("t", [-2.0, 0.5, 2.0])
def test_chebyshev_gurevich_converges(t):
    est = gurevich_estimate(chebyshev_model(), t, 12)
    exact = chebyshev_pressure_exact(t)
    assert abs(est.raw[-1] - exact) <= 0.2
    assert abs(est.extrapolated - exact) <= 0.05


def test_two_slope_kink_recovers_chebyshev():
    ts = [-3.0, -2.5, -2.0, 0.5, 1.0, 1.5]
    ps = [gurevich_estimate(chebyshev_model(), t, 12).extrapolated for t in ts]
    t_star, s_left, s_right = two_slope_kink(ts, ps)
    assert abs(t_star + 1.0) <= 0.05
    assert s_left == pytest.approx(-LOG4, abs=0.02)
    assert s_right == pytest.approx(-LOG2, abs=0.02)


def test_mp_fixed_points_boundary_convention():
    pts = periodic_points(manneville_pomeau_model(0.5), 1)
    assert len(pts.samples) == 1  # x = 1 is excluded by the half-open domain
    s = pts.samples[0]
    assert s.point == pytest.approx(0.0, abs=1e-12)
    assert s.log_deriv == pytest.approx(0.0, abs=1e-12)  # parabolic
    assert pts.skipped == 1


def test_mp_ladder_decreasing():
    model = manneville_pomeau_model(0.5)
    ladder = mp_preimage_ladder(0.5, 80)
    assert ladder[0] == 0.5
    assert np.all(np.diff(ladder) < 0)
    # f(xi_{k+1}) = xi_k
    fwd = model.apply(ladder[1:])
    assert np.allclose(fwd, ladder[:-1], atol=1e-12)


def test_mp_induced_tail_slope():
    model = mp_induced_model(0.5, 200)
    # s_n ~ -(1 + 1/alpha) log n + const, slope within 15 percent
    assert abs(model.envelope.log_coeff - 3.0) / 3.0 <= 0.15
    ns = np.arange(50, 201)
    fit = np.polyfit(np.log(ns), model.s_values(ns), 1)
    assert abs(-fit[0] - 3.0) / 3.0 <= 0.15


def test_mp_pressure_values():
    model = mp_induced_model(0.5, 120)
    assert abs(solve_pressure(model, 1.0).pressure) <= 0.05
    assert solve_pressure(model, 0.0).pressure == pytest.approx(LOG2, abs=0.02)
    ps = [solve_pressure(model, float(t)).pressure for t in np.linspace(0, 1.5, 7)]
    assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))


def scalar_mp_level_values(alpha, n_levels):
    """Reference: bisect each level's return point on its own, scalar calls."""
    model = manneville_pomeau_model(alpha)
    ladder = mp_preimage_ladder(alpha, n_levels)
    s_vals = np.empty(n_levels)
    for n in range(1, n_levels + 1):
        left = 0.5 * (1.0 + ladder[n - 1])
        right = 0.5 * (1.0 + (ladder[n - 2] if n >= 2 else 1.0))

        def f_return(x):
            y = model.apply(np.asarray(x))
            for _ in range(n - 1):
                y = model.apply(y)
            return y

        a, b = left, right - 1e-15
        for _ in range(60):
            mid = 0.5 * (a + b)
            if float(f_return(mid)) < mid:
                a = mid
            else:
                b = mid
        xi = 0.5 * (a + b)
        orbit = np.empty(n)
        for i in range(n):
            orbit[i] = xi
            xi = float(model.apply(np.array(xi)))
        s_vals[n - 1] = -float(np.sum(np.log(model.deriv_abs(orbit))))
    return s_vals


@pytest.mark.parametrize("n_levels", [8, 33])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_mp_levels_match_scalar_reference_bitwise(alpha, n_levels):
    model = mp_induced_model(alpha, n_levels)
    built = model.s_values(np.arange(1, n_levels + 1))
    assert np.array_equal(built, scalar_mp_level_values(alpha, n_levels))


def test_mp_level_count_is_capped():
    with pytest.raises(ValueError, match="2000"):
        mp_induced_model(0.5, 2001)


def transient_grid_sequence():
    return RealizedSequence((-LOG4,) * 30, 3.0, 30)


def test_doubling_zn_matches_renewal_recursion():
    seq = transient_grid_sequence()
    interval = doubling_grid_model(seq)
    model = hofbauer_doubling_model(seq)
    dp = renewal_zn(model, 1.0, 14)
    for n in range(1, 15):
        z = zn_sum(interval, 1.0, n, (0.5, 1.0))
        assert abs(z.value - dp[n - 1]) <= 1e-10
        assert z.value == pytest.approx(2.0 ** (-n - 1), rel=1e-12)


def test_doubling_zn_general_sequence_two_routes():
    seq = normalize(build_tail(3.0, 1), 2.0)
    interval = doubling_grid_model(seq)
    model = hofbauer_doubling_model(seq)
    for t in (0.5, 1.0, 1.7):
        dp = renewal_zn(model, t, 10)
        for n in (1, 4, 7, 10):
            z = zn_sum(interval, t, n, (0.5, 1.0))
            assert abs(z.value - dp[n - 1]) <= 1e-10 * max(1.0, dp[n - 1])


def test_doubling_bad_base_lower_bound():
    seq = transient_grid_sequence()
    interval = doubling_grid_model(seq)
    for n in range(1, 15):
        z = zn_sum(interval, 1.0, n, (0.0, 0.5))
        assert z.value >= 1.0  # the fixed point contributes e^0 every period


def test_diagnostic_verdicts_by_base():
    seq = transient_grid_sequence()
    interval = doubling_grid_model(seq)
    model = hofbauer_doubling_model(seq)
    assert classify(model, 1.0).kind == "transient"
    good = sarig_series_diagnostic(interval, 1.0, 0.0, 14, (0.5, 1.0))
    assert good.verdict == "transient-like"
    assert good.rate == pytest.approx(-LOG2, abs=1e-6)
    bad = sarig_series_diagnostic(interval, 1.0, 0.0, 14, (0.0, 0.5))
    assert bad.verdict == "recurrent-like"


def test_diagnostic_on_renewal_models():
    seq = transient_grid_sequence()
    model = hofbauer_doubling_model(seq)
    diag = sarig_series_diagnostic(model, 1.0, 0.0, 16)
    assert diag.verdict == "transient-like"
    assert diag.rate == pytest.approx(-LOG2, abs=1e-6)
    # critical tail: rate near zero, polynomial exponent near -gamma
    crit = realize_model(normalize(build_tail(3.0, 1).with_head([-LOG2]), 1.0),
                         "hofbauer")
    diag2 = sarig_series_diagnostic(crit, 1.0, 0.0, 40)
    assert diag2.verdict == "recurrent-like"
    assert abs(diag2.rate) <= 0.02


def test_gurevich_doubling_counts():
    seq = transient_grid_sequence()
    interval = doubling_grid_model(seq)
    est = gurevich_estimate(interval, 0.0, 6)
    assert np.allclose(est.raw, LOG2, atol=1e-12)  # 2^n itineraries, zero potential
