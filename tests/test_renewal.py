import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from thermoform import (EnvelopeError, IndeterminateError, RenewalModel,
                        TailEnvelope, build_transfer_matrix, certified_G,
                        certified_series, classify, conformal_atom_masses,
                        cyr_sarig_witness, finite_truncation,
                        induced_equilibrium_weights, locate_flat_interval,
                        pressure_curve, pressure_derivative, renewal_zn,
                        smoothness_at_transition, solve_pressure, solve_rpf,
                        NULL_RECURRENT, POSITIVE_RECURRENT, TRANSIENT,
                        FIRST_ORDER, C1)
from thermoform import sequences as sq

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def geometric_model(c, grid=False):
    """m_n = 1 (or 2^(n-1)) with s_n = -c*n; closed forms are elementary."""
    s = lambda n: -c * np.asarray(n, dtype=float)
    env = TailEnvelope(-c, 0.0, 0.0, 0.0, 1)
    if grid:
        return RenewalModel(s, env, LOG2, -LOG2, LOG2, 0.0, "grid-geom")
    return RenewalModel(s, env, 0.0, 0.0, 0.0, 0.0, "geom")


def test_certified_G_geometric_closed_form():
    model = geometric_model(1.0)
    g = certified_G(model, 1.0, 0.0)
    exact = 1.0 / (math.e - 1.0)  # sum e^{-n}
    assert g.contains(exact) and g.width <= 1e-12


def test_certified_G_grid_closed_form():
    c = 0.8
    model = geometric_model(c, grid=True)
    # sum 2^(n-1) e^{-cn - n log 3} = x/(2(1-x)), x = 2 e^{-c}/3
    x = 2.0 * math.exp(-c) / 3.0
    exact = 0.5 * x / (1.0 - x)
    g = certified_G(model, 1.0, LOG3)
    assert g.contains(exact) and g.width <= 1e-12


def test_G_decreasing_in_p():
    model = geometric_model(0.5, grid=True)
    for t in (-1.0, 0.2, 1.7):
        # start above the convergence threshold of the term growth rate
        p_min = max(model.bad_set_pressure(t), LOG2 - 0.5 * t) + 1e-6
        ps = np.linspace(p_min, p_min + 3.0, 7)
        vals = [certified_G(model, t, float(p)) for p in ps]
        for a, b in zip(vals, vals[1:]):
            assert a.lower > b.upper


@pytest.mark.parametrize("c", [0.5, 1.0, 2.3])
def test_solve_pressure_geometric_oracles(c):
    plain = geometric_model(c)
    grid = geometric_model(c, grid=True)
    for t in np.linspace(-1.0, 3.0, 101):
        p1 = solve_pressure(plain, float(t), tol=1e-11).pressure
        assert abs(p1 - max(0.0, LOG2 - t * c)) <= 1e-9
        p2 = solve_pressure(grid, float(t), tol=1e-11).pressure
        assert abs(p2 - max(LOG2, LOG3 - t * c)) <= 1e-9


def test_pressure_floor_and_flat_set_match():
    model = geometric_model(1.0, grid=True)
    t_star = LOG3 - LOG2  # root of log3 - tc = log2
    for t in np.linspace(0.05, 2.0, 40):
        root = solve_pressure(model, float(t))
        assert root.pressure >= model.bad_set_pressure(float(t)) - 1e-12
        assert root.at_floor == (t >= t_star - 1e-9)


def test_classify_figure_rows_semantics():
    # sum e^{s_n} = 1 with finite mean: s_n = -n log 2
    critical = geometric_model(LOG2)
    cls = classify(critical, 1.0)
    assert cls.kind == POSITIVE_RECURRENT
    assert cls.root.pressure == 0.0
    assert cls.G.contains(1.0)
    # sum (n+1) e^{s_n} = sum (n+1) 2^-n = 3
    h_plus_g = cls.H.midpoint + cls.G.midpoint
    assert h_plus_g == pytest.approx(3.0, abs=1e-10)

    # transient row: sum e^{s_n} = 1/3 < 1 via s_n = -n log 4
    weak = geometric_model(math.log(4.0))
    cls2 = classify(weak, 1.0)
    assert cls2.kind == TRANSIENT and cls2.G.upper < 1.0


def test_classify_null_recurrent_tail():
    # s_n = kappa - 1.5 log n normalized so G(1, 0) = 1
    kappa = -math.log(float(np.sum(np.arange(1, 10 ** 7, dtype=float) ** -1.5)
                           + 2.0 / math.sqrt(10 ** 7)))
    model = RenewalModel(
        lambda n: kappa - 1.5 * np.log(np.asarray(n, dtype=float)),
        TailEnvelope(0.0, 1.5, kappa, 0.0, 1), 0.0, 0.0, 0.0, 0.0, "tail1.5")
    cls = classify(model, 1.0)
    assert cls.kind in (NULL_RECURRENT, TRANSIENT, POSITIVE_RECURRENT)
    # H certified divergent whenever the root sits on the floor
    if cls.root.at_floor and cls.G.contains(1.0):
        assert cls.kind == NULL_RECURRENT and cls.H.divergent


def test_derivative_geometric_exact():
    c = 0.7
    model = geometric_model(c)
    for t in (0.1, 0.5, 0.9):
        d = pressure_derivative(model, t)
        assert d.kind == "analytic"
        assert d.value == pytest.approx(-c, abs=1e-9)
        assert d.enclosure[0] <= -c <= d.enclosure[1]


def test_derivative_flat_interior_is_zero():
    model = geometric_model(1.0, grid=True)
    d = pressure_derivative(model, 2.0)
    assert d.kind == "flat" and d.value == 0.0


def test_locate_flat_interval_geometric():
    c = 1.3
    model = geometric_model(c, grid=True)
    t_star = (LOG3 - LOG2) / c
    flat = locate_flat_interval(model, (0.05, 3.0), tol=1e-7)
    assert flat is not None
    assert abs(flat.t_start - t_star) <= 1e-6
    assert flat.unbounded  # G(t, log2) keeps falling, no right boundary


def test_locate_flat_interval_absent():
    model = geometric_model(1.0)
    flat = locate_flat_interval(model, (0.01, 0.4), tol=1e-7)
    assert flat is None


def test_smoothness_geometric_boundary_first_order():
    c = 1.0
    model = geometric_model(c, grid=True)
    t_star = (LOG3 - LOG2) / c
    v = smoothness_at_transition(model, t_star)
    assert v.kind == FIRST_ORDER
    # one-sided slope equals -c: weights are geometric
    assert v.one_sided_slope[0] <= -c <= v.one_sided_slope[1]


def test_atom_masses_recurrent_boundary():
    model = geometric_model(LOG2)  # sum e^{s_n} = 1 exactly
    rep = conformal_atom_masses(model, 1.0)
    assert rep.verdict == "conservative-boundary"
    assert abs(rep.atom_clamped[1]) <= 1e-10


def test_atom_masses_transient():
    model = geometric_model(math.log(4.0))  # sum = 1/3
    rep = conformal_atom_masses(model, 1.0)
    assert rep.verdict == "dissipative"
    assert rep.atom[0] <= 2.0 / 3.0 <= rep.atom[1]
    # level masses are e^{s_n}
    assert rep.level_masses[0] == pytest.approx(0.25, abs=1e-14)
    factor = math.exp(model.s_values([1])[0])
    assert rep.preimage_mass[0] == pytest.approx((2.0 / 3.0) * factor, abs=1e-9)


def test_witness_matches_classification():
    cases = [(geometric_model(1.0), 0.3), (geometric_model(1.0), 1.5),
             (geometric_model(0.9, grid=True), 0.2),
             (geometric_model(0.9, grid=True), 1.4)]
    for model, t in cases:
        cls = classify(model, t)
        wit = cyr_sarig_witness(model, t)
        assert wit.transient == (cls.kind == TRANSIENT)
        if wit.transient:
            assert wit.u0 > 0
            assert abs(wit.delta_half) <= 1e-8
            assert wit.delta_double >= 1e-6
        else:
            assert wit.u0 == 0.0


def test_witness_closed_form_grid():
    c = 1.0
    model = geometric_model(c, grid=True)
    t = 1.0
    y = math.exp(-t * c)
    expected = -math.log(0.5 * y / (1.0 - y))
    wit = cyr_sarig_witness(model, t, verify=False)
    assert wit.u0 == pytest.approx(expected, abs=1e-10)


def test_equilibrium_weights_geometric():
    model = geometric_model(LOG2)  # w_n = 2^-n at t=1, p=0
    rep = induced_equilibrium_weights(model, 1.0, n_levels=40)
    assert np.allclose(rep.level_weights, 0.5 ** rep.levels, atol=1e-12)
    assert rep.tau_mean.contains(2.0) and rep.tau_mean.width < 1e-9
    assert rep.raw_total.contains(1.0)
    with pytest.raises(ValueError):
        induced_equilibrium_weights(geometric_model(2.0), 1.0)


def normalized_grid_model(gamma):
    from thermoform.sequences import GRID, build_tail, normalize, realize_model
    return realize_model(normalize(build_tail(gamma, 1), 2.0), GRID)


def test_atom_masses_normalized_grid_boundary():
    # the normalization pins G(1, log 2) = 1, so the atom vanishes at t = 1
    rep = conformal_atom_masses(normalized_grid_model(3.0), 1.0)
    assert rep.verdict == "conservative-boundary"
    assert abs(rep.atom_clamped[1]) <= 1e-10


def test_equilibrium_weights_grid_per_cylinder():
    model = normalized_grid_model(3.0)
    rep = induced_equilibrium_weights(model, 1.0, n_levels=2000)
    # each of the 2^(n-1) level cylinders carries e^{s_n - n log 2}
    s = model.s_values(rep.levels)
    assert np.allclose(rep.per_cylinder_weights,
                       np.exp(s - rep.levels * LOG2), rtol=1e-12)
    # total level mass approaches 1 (tail beyond the cut is ~n^-2)
    assert rep.level_weights.sum() == pytest.approx(1.0, abs=1e-6)
    assert rep.raw_total.contains(1.0)


def test_shifted_integral_flags_divergence():
    fine = induced_equilibrium_weights(normalized_grid_model(3.0), 1.0)
    assert fine.shifted_integral is not None
    infinite = induced_equilibrium_weights(normalized_grid_model(1.5), 1.0)
    assert infinite.tau_mean.divergent
    assert infinite.shifted_integral is None  # integral runs to -inf


def test_degenerate_flat_free_model():
    # s_n = 0 with grid multiplicities: G diverges at the floor for every t,
    # p(t) = log 3 via the divergence-certificate path
    model = RenewalModel(lambda n: np.zeros(np.shape(n)),
                         TailEnvelope(0.0, 0.0, 0.0, 0.0, 1),
                         LOG2, -LOG2, LOG2, 0.0, "degenerate")
    for t in (-1.0, 0.0, 2.0):
        root = solve_pressure(model, t)
        assert not root.at_floor
        assert root.pressure == pytest.approx(LOG3, abs=1e-9)


def test_renewal_zn_recursion():
    model = geometric_model(math.log(4.0))
    z = renewal_zn(model, 1.0, 12)
    assert np.allclose(z, 0.5 ** (np.arange(1, 13) + 1), rtol=1e-12)


def test_finite_truncation_monotone_to_root():
    model = geometric_model(1.0)
    t = 0.3
    target = solve_pressure(model, t, tol=1e-13).pressure
    prev = -math.inf
    for n_max in (25, 50, 100):
        shift, pot = finite_truncation(model, t, n_max)
        sol = solve_rpf(build_transfer_matrix(shift, pot), tol=1e-13)
        assert prev - 1e-13 <= sol.pressure <= target + 1e-12
        prev = sol.pressure
    assert target - prev <= 1e-6


def test_envelope_validation_rejects_lies():
    bad = RenewalModel(lambda n: -np.asarray(n, dtype=float),
                       TailEnvelope(0.0, 0.0, 0.0, 0.0, 1),  # claims s_n = 0
                       0.0, 0.0, 0.0, 0.0, "lie")
    with pytest.raises(EnvelopeError):
        certified_G(bad, 1.0, 0.0)


def test_wide_envelope_raises_indeterminate():
    # critical-exponent model normalized to G(1, 0) = 1, but with a tail
    # envelope loose enough that the enclosure straddles 1 irreparably
    kappa = -math.log(2.612375348685488)  # 1 / zeta(1.5)
    model = RenewalModel(
        lambda n: kappa - 1.5 * np.log(np.asarray(n, dtype=float)),
        TailEnvelope(0.0, 1.5, kappa, 0.01, 1), 0.0, 0.0, 0.0, 0.0, "loose")
    with pytest.raises(IndeterminateError):
        solve_pressure(model, 1.0)


def test_pressure_curve_assembly():
    model = geometric_model(1.0, grid=True)
    curve = pressure_curve(model, np.linspace(0.1, 2.0, 21))
    expected = np.maximum(LOG2, LOG3 - curve.t)
    assert np.allclose(curve.p, expected, atol=1e-9)
    assert set(curve.classes) <= {POSITIVE_RECURRENT, TRANSIENT}
    kinds = {k for k in curve.derivative_kinds}
    assert "flat" in kinds and "analytic" in kinds
    assert curve.transitions and curve.transitions[0]["kind"] == "onset-of-flat"
    assert abs(curve.transitions[0]["t"] - (LOG3 - LOG2)) < 1e-6


def test_abramov_truncation_consistency_grid():
    # the grid-multiplicity loop realization agrees with the engine root
    model = geometric_model(0.9, grid=True)
    t = 0.2
    target = solve_pressure(model, t, tol=1e-13).pressure
    shift, pot = finite_truncation(model, t, 120)
    sol = solve_rpf(build_transfer_matrix(shift, pot), tol=1e-13)
    assert sol.pressure <= target + 1e-12
    assert target - sol.pressure <= 1e-6


def counted_model(calls):
    """Geometric levels with an eps-wide wiggle, so G needs several doublings."""
    def s(n):
        n = np.asarray(n, dtype=float)
        calls.append(n)
        return -0.01 * n + 1e-3 * np.sin(n)
    return RenewalModel(s, TailEnvelope(-0.01, 0.0, 0.0, 1e-3, 1),
                        0.0, 0.0, 0.0, 0.0, "counted")


def test_s_table_evaluates_each_level_once():
    calls = []
    model = counted_model(calls)
    g1 = certified_G(model, 1.0, 0.0)
    g2 = certified_G(model, 0.5, 0.0)
    assert g2.n_terms > g1.n_terms > 1024  # both calls grow the table
    validation = np.arange(1, 1002)
    table_calls = [c for c in calls if not np.array_equal(c, validation)]
    assert len(calls) - len(table_calls) == 2  # one envelope validation
    levels = np.concatenate(table_calls)
    assert np.array_equal(levels, np.arange(1, g2.n_terms + 1))
    ns = np.arange(1, g2.n_terms + 1)
    assert np.array_equal(model.s_table(g2.n_terms), model.s_values(ns))


def test_s_table_concurrent_growth():
    model = counted_model([])
    reference = model.s_values(np.arange(1, 4097))
    sizes = [int(m) for m in np.random.default_rng(7).integers(1, 4097, 200)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            tables = list(pool.map(model.s_table, sizes))
    finally:
        sys.setswitchinterval(old)
    for m, table in zip(sizes, tables):
        assert np.array_equal(table, reference[:m])


def test_pressure_curve_threads_match_serial():
    def dfu():
        return sq.realize_model(sq.dfu_perturb(
            sq.normalize(sq.build_tail(3.0, 1), 2.0), 0.2), sq.GRID)
    grid = np.linspace(0.2, 2.0, 10)
    serial = pressure_curve(dfu(), grid)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            threaded = pressure_curve(dfu(), grid, map_fn=pool.map)
    finally:
        sys.setswitchinterval(old)
    for name in ("p", "derivatives", "G_values", "enclosure_widths"):
        assert np.array_equal(getattr(threaded, name), getattr(serial, name))
    assert threaded.classes == serial.classes
    assert threaded.derivative_kinds == serial.derivative_kinds
    assert threaded.transitions == serial.transitions
