import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from thermoform import (EnvelopeError, IndeterminateError,
                        LocallyConstantPotential, RenewalModel,
                        TailEnvelope, build_transfer_matrix, certified_G,
                        certified_series, classify, conformal_atom_masses,
                        cyr_sarig_witness, finite_truncation, flat_transitions,
                        locate_flat_interval,
                        pressure_curve, pressure_derivative, renewal_zn,
                        smoothness_at_transition, solve_pressure, solve_rpf,
                        NULL_RECURRENT, POSITIVE_RECURRENT, TRANSIENT,
                        FIRST_ORDER)
from thermoform import sequences as sq
from thermoform.transfer import cycle_components

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


def dfu_model():
    return sq.model_from_spec(sq.SequenceSpec("grid", gamma=3.0, delta=0.2))


def test_flat_set_past_the_left_end_is_unbounded():
    # the DFU window is [1, ~3.21586]; a bracket starting inside it has no onset
    model = dfu_model()
    flat = locate_flat_interval(model, (1.5, 4.5), tol=1e-9)
    assert flat.t_start == -math.inf and flat.start_bracket is None
    assert abs(flat.t_end - 3.21586) <= 1e-5
    found = flat_transitions(model, (1.5, 4.5), tol=1e-9)
    assert [tr["kind"] for tr in found] == ["end-of-flat"]
    assert found[0]["t"] == flat.t_end and found[0]["bracket"] == flat.end_bracket


def test_flat_set_past_both_ends_has_no_transitions():
    model = dfu_model()
    flat = locate_flat_interval(model, (1.5, 2.5), tol=1e-9)
    assert (flat.t_start, flat.start_bracket) == (-math.inf, None)
    assert (flat.t_end, flat.end_bracket) == (math.inf, None)
    assert flat_transitions(model, (1.5, 2.5), tol=1e-9) == []
    assert flat_transitions(model, (0.1, 0.5), tol=1e-9) is None


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


def normalized_grid_model(gamma):
    from thermoform.sequences import GRID, build_tail, normalize, realize_model
    return realize_model(normalize(build_tail(gamma, 1), 2.0), GRID)


def test_atom_masses_normalized_grid_boundary():
    # the normalization pins G(1, log 2) = 1, so the atom vanishes at t = 1
    rep = conformal_atom_masses(normalized_grid_model(3.0), 1.0)
    assert rep.verdict == "conservative-boundary"
    assert abs(rep.atom_clamped[1]) <= 1e-10


def test_shifted_integral_at_null_recurrent_zero_pressure():
    # the "sum=1, infinite mean return" row: p = 0, H diverges, and the
    # integral is t * sum s_n e^{t s_n}, which converges since log(n) n^-1.5 does
    mpmath = pytest.importorskip("mpmath")
    seq = sq.from_spec(sq.SequenceSpec("hofbauer", gamma=1.5, head=(-LOG2,),
                                       normalization_target=1.0))
    t = 1.0
    model = sq.realize_model(seq, sq.HOFBAUER)
    cls = classify(model, t)
    assert cls.H.divergent and cls.root.pressure == 0.0
    num = certified_series(model, t, 0.0, s_weight=True)
    with mpmath.workdps(40):
        heads = np.cumsum([mpmath.mpf(a) for a in seq.head])  # s_1..s_{n_cut}
        g, kappa, tail_from = seq.gamma * t, mpmath.mpf(seq.kappa), seq.n_cut + 1
        ref = sum(s * mpmath.exp(t * s) for s in heads)
        # sum_{n > n_cut} (kappa - gamma log n) e^{t kappa} n^{-gamma t}
        ref += mpmath.exp(t * kappa) * (kappa * mpmath.zeta(g, tail_from)
                                        + seq.gamma * mpmath.zeta(g, tail_from, derivative=1))
        ref = float(t * ref)
    lo, hi = t * num.lower, t * num.upper
    assert lo <= ref <= hi
    assert hi - lo <= 1e-10


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


def test_finite_truncation_pressures_rise_to_the_closed_form():
    model = geometric_model(1.0)
    t = 0.3
    pressures = []
    for n_max in (50, 100, 200, 400):
        shift, pot = finite_truncation(model, t, n_max)
        pressures.append(solve_rpf(build_transfer_matrix(shift, pot), tol=1e-13).pressure)
    # past depth ~100 the truncations agree with the root to rounding
    assert all(b >= a - 1e-13 for a, b in zip(pressures, pressures[1:]))
    assert abs(pressures[-1] - (LOG2 - t)) <= 1e-4


def test_truncation_matrix_matches_the_dict_potential_bitwise():
    # the per-symbol array finite_truncation builds gives the transfer matrix
    # a dict of (i,) -> value gives
    for n_max in (2, 30, 200):
        shift, pot = finite_truncation(geometric_model(1.0), 0.3, n_max)
        by_dict = LocallyConstantPotential(1, {(i,): float(v)
                                               for i, v in enumerate(pot.values.array)})
        assert pot == by_dict
        for scale in (1.0, 0.7):
            got = build_transfer_matrix(shift, pot.scaled(scale))
            want = build_transfer_matrix(shift, by_dict.scaled(scale))
            assert got.states == want.states and got.index == want.index
            for name in ("rows", "cols", "vals"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_large_truncation_never_goes_dense():
    shift, pot = finite_truncation(geometric_model(1.0), 0.3, 100)
    assert shift.alphabet_size == 4951
    with pytest.raises(ValueError):
        shift.dense()
    # components and primitivity walk the CSR arrays
    parts = cycle_components(shift, pot)
    assert len(parts) == 1 and parts[0][1] is shift
    tm = build_transfer_matrix(shift, pot)
    with pytest.raises(ValueError):
        tm.dense()
    assert abs(solve_rpf(tm, tol=1e-13).pressure - (LOG2 - 0.3)) <= 1e-12


def test_envelope_validation_rejects_lies():
    bad = RenewalModel(lambda n: -np.asarray(n, dtype=float),
                       TailEnvelope(0.0, 0.0, 0.0, 0.0, 1),  # claims s_n = 0
                       0.0, 0.0, 0.0, 0.0, "lie")
    with pytest.raises(EnvelopeError):
        certified_G(bad, 1.0, 0.0)


def loose_critical_model():
    """Critical-exponent model normalized to G(1, 0) = 1, but with a tail
    envelope loose enough that the enclosure straddles 1 irreparably."""
    kappa = -math.log(2.612375348685488)  # 1 / zeta(1.5)
    return RenewalModel(
        lambda n: kappa - 1.5 * np.log(np.asarray(n, dtype=float)),
        TailEnvelope(0.0, 1.5, kappa, 0.01, 1), 0.0, 0.0, 0.0, 0.0, "loose")


def test_wide_envelope_raises_indeterminate():
    with pytest.raises(IndeterminateError):
        solve_pressure(loose_critical_model(), 1.0)


def test_capped_series_says_so():
    # the loose model never meets tol; at its term cap it still encloses
    # G(1, 0) = 1 but reports that it stopped there
    g = certified_series(loose_critical_model(), 1.0, 0.0, tol=1e-12, cap=2048)
    assert g.tail_method == "capped" and g.n_terms == 2048
    assert g.width > 1e-12 and g.contains(1.0)
    assert certified_G(geometric_model(1.0), 1.0, 0.0).tail_method == "euler-maclaurin"


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


def count_H(monkeypatch):
    """Count evaluations of H (n_weight=1) per (t, p) made through the module."""
    import thermoform.renewal as rn

    counts = {}
    series = rn.certified_series

    def counting(model, t, p, **kwargs):
        if kwargs.get("n_weight", 0) == 1:
            counts[(t, p)] = counts.get((t, p), 0) + 1
        return series(model, t, p, **kwargs)

    monkeypatch.setattr(rn, "certified_series", counting)
    return counts


def test_H_evaluated_once_per_point(monkeypatch):
    counts = count_H(monkeypatch)
    # a recurrent floor point: the normalization pins G(1, log 2) = 1
    d = pressure_derivative(normalized_grid_model(3.0), 1.0)
    assert d.kind == "one-sided" and max(counts.values()) == 1
    assert d.recurrence.kind == POSITIVE_RECURRENT and d.recurrence.root.at_floor

    counts.clear()  # an off-floor point
    d = pressure_derivative(geometric_model(1.0), 0.3)
    assert d.kind == "analytic" and max(counts.values()) == 1
    assert not d.recurrence.root.at_floor

    counts.clear()  # a first-order flat boundary
    v = smoothness_at_transition(geometric_model(1.0, grid=True), LOG3 - LOG2)
    assert v.kind == FIRST_ORDER and list(counts.values()) == [1]

    counts.clear()  # every grid point of a DFU curve, on and off the floor
    dfu = sq.realize_model(sq.dfu_perturb(
        sq.normalize(sq.build_tail(3.0, 1), 2.0), 0.2), sq.GRID)
    curve = pressure_curve(dfu, np.linspace(0.25, 4.5, 6))
    assert {TRANSIENT, POSITIVE_RECURRENT} <= set(curve.classes)
    assert max(counts.values()) == 1
    for t, p in zip(curve.t, curve.p):
        assert counts.get((float(t), float(p)), 0) <= 1
