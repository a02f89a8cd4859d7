import itertools
import math
import time

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from thermoform import (FiniteShift, LocallyConstantPotential, NotMixingError,
                        birkhoff_sum, build_transfer_matrix, cycle_shift,
                        cylinder_weight,
                        decompose_components, disjoint_union,
                        enumerate_periodic_words, full_shift, golden_mean_shift,
                        is_topologically_mixing, pressure_curve_finite,
                        renewal_shift, solve_rpf)
from thermoform.shifts import strong_period
from thermoform.transfer import cycle_components

GOLDEN = (1 + math.sqrt(5)) / 2


def bernoulli_setup(p):
    shift = full_shift(2)
    pot = LocallyConstantPotential.from_symbol_values(
        shift, [math.log(p), math.log(1 - p)])
    return shift, pot


def test_build_matrix_full_shift_zero():
    shift = full_shift(2)
    tm = build_transfer_matrix(shift, LocallyConstantPotential.constant(shift, 0.0))
    assert np.allclose(tm.dense(), np.ones((2, 2)))


def test_build_matrix_bernoulli_columns():
    shift, pot = bernoulli_setup(0.3)
    tm = build_transfer_matrix(shift, pot)
    dense = tm.dense()
    # column = source state, scaled by exp(potential at the source)
    assert np.allclose(dense[:, 0], 0.3)
    assert np.allclose(dense[:, 1], 0.7)


def test_build_matrix_renewal_pattern():
    shift = renewal_shift(6)
    tm = build_transfer_matrix(shift, LocallyConstantPotential.constant(shift, 0.0))
    assert np.allclose(tm.dense(), shift.dense().T)


def test_trace_equals_periodic_sum():
    rng = np.random.default_rng(5)
    shift = golden_mean_shift()
    for depth in (1, 2):
        if depth == 2:
            words = [(x, y) for x in range(2) for y in range(2) if (x, y) != (1, 1)]
        else:
            words = [(0,), (1,)]
        pot = LocallyConstantPotential(depth, {w: float(rng.normal(scale=0.4))
                                               for w in words}, shift)
        tm = build_transfer_matrix(shift, pot)
        for n in range(1, 9):
            direct = sum(math.exp(birkhoff_sum(pot, w))
                         for w in enumerate_periodic_words(shift, n))
            assert tm.trace_power(n) == pytest.approx(direct, rel=1e-12)


def test_rpf_full_shift_log2():
    shift = full_shift(2)
    sol = solve_rpf(build_transfer_matrix(shift, LocallyConstantPotential.constant(shift, 0.0)))
    assert abs(sol.pressure - math.log(2)) <= 1e-12
    assert np.allclose(sol.h, sol.h[0])
    assert np.allclose(sol.m, 0.5)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_rpf_bernoulli(p):
    shift, pot = bernoulli_setup(p)
    sol = solve_rpf(build_transfer_matrix(shift, pot))
    assert abs(sol.pressure) <= 1e-10
    assert sol.mu == pytest.approx([p, 1 - p], abs=1e-10)
    # deeper cylinder masses are products
    for word in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 1, 1)]:
        expected = math.prod(p if s == 0 else 1 - p for s in word)
        assert cylinder_weight(sol, word) == pytest.approx(expected, abs=1e-10)


def test_rpf_golden_mean():
    shift = golden_mean_shift()
    sol = solve_rpf(build_transfer_matrix(shift, LocallyConstantPotential.constant(shift, 0.0)))
    assert sol.pressure == pytest.approx(math.log(GOLDEN), abs=1e-12)


def test_rpf_duality_residuals():
    shift, pot = bernoulli_setup(0.25)
    tol = 1e-12
    sol = solve_rpf(build_transfer_matrix(shift, pot), tol=tol)
    tm = sol.matrix.dense()
    lam = math.exp(sol.pressure)
    assert np.max(np.abs(tm @ sol.h - lam * sol.h)) <= tol * max(lam, 1) * 2
    assert np.max(np.abs(sol.m @ tm - lam * sol.m)) <= tol * max(lam, 1) * 2


def test_rpf_rejects_nonmixing():
    both = disjoint_union(full_shift(2), full_shift(2))
    with pytest.raises(NotMixingError):
        solve_rpf(build_transfer_matrix(both, LocallyConstantPotential.constant(both, 0.0)))
    cyc = cycle_shift(3)
    with pytest.raises(NotMixingError):
        solve_rpf(build_transfer_matrix(cyc, LocallyConstantPotential.constant(cyc, 0.0)))


def chain_entropy(sol):
    """Entropy of the equilibrium chain plus potential average (oracle)."""
    tm = sol.matrix.dense()
    lam = math.exp(sol.pressure)
    size = tm.shape[0]
    ent = 0.0
    for src in range(size):
        for dst in range(size):
            if tm[dst, src] > 0:
                prob = tm[dst, src] * sol.m[dst] / (lam * sol.m[src])
                ent -= sol.mu[src] * prob * math.log(prob)
    return ent


def test_variational_identity():
    rng = np.random.default_rng(17)
    for shift in (full_shift(2), golden_mean_shift(), full_shift(3)):
        vals = [float(rng.normal(scale=0.6)) for _ in range(shift.alphabet_size)]
        pot = LocallyConstantPotential.from_symbol_values(shift, vals)
        sol = solve_rpf(build_transfer_matrix(shift, pot))
        phi_avg = float(sol.mu @ np.array([pot(w) for w in sol.matrix.states]))
        assert chain_entropy(sol) + phi_avg == pytest.approx(sol.pressure, abs=1e-8)


def test_pressure_curve_finite_convex_and_exact():
    shift = full_shift(2)
    zero = LocallyConstantPotential.constant(shift, 0.0)
    curve, _ = pressure_curve_finite(shift, zero, np.linspace(-2, 2, 9))
    ts, ps = curve.t, curve.p
    assert np.allclose(ps, math.log(2), atol=1e-12)

    shift, pot = bernoulli_setup(0.4)
    curve, _ = pressure_curve_finite(shift, pot, [1.0])
    ts, ps, ds = curve.t, curve.p, curve.derivatives
    assert ps[0] == pytest.approx(0.0, abs=1e-10)

    gm = golden_mean_shift()
    gpot = LocallyConstantPotential.from_symbol_values(gm, [0.0, -1.0])
    curve, _ = pressure_curve_finite(gm, gpot, [0.0, 1.0])
    ts, ps = curve.t, curve.p
    assert ps[0] == pytest.approx(math.log(GOLDEN), abs=1e-12)
    # Perron root of [[1, e^-1], [1, 0]] by the quadratic formula
    root = 0.5 * (1 + math.sqrt(1 + 4 * math.exp(-1)))
    assert ps[1] == pytest.approx(math.log(root), abs=1e-12)


def test_pressure_curve_finite_mixing_is_the_direct_solve():
    shift, pot = bernoulli_setup(0.35)
    ts = [-1.0, 0.5, 2.0]
    curve, mixing = pressure_curve_finite(shift, pot, ts)
    assert mixing is True
    for t, p, width in zip(ts, curve.p, curve.enclosure_widths):
        sol = solve_rpf(build_transfer_matrix(shift, pot.scaled(t)))
        assert p == sol.pressure and width == sol.residual
    for other in (cycle_shift(2), disjoint_union(full_shift(2), full_shift(2))):
        zero = LocallyConstantPotential.constant(other, 0.0)
        assert pressure_curve_finite(other, zero, ts)[1] is False


def nonmixing_setup():
    both = disjoint_union(full_shift(2), full_shift(2))
    psi = LocallyConstantPotential.from_symbol_values(both, [-1, -1, -2, -2])
    return both, psi


def test_decompose_nonmixing_formula():
    both, psi = nonmixing_setup()
    ts = np.linspace(-2, 2, 11)
    curve, _ = pressure_curve_finite(both, psi, ts)
    ts_out, ps = curve.t, curve.p
    counts = np.array([1 + (c == "non-unique-equilibrium") for c in curve.classes])
    expected = np.maximum(-ts, -2 * ts) + math.log(2)
    assert np.allclose(ps, expected, atol=1e-10)
    assert counts[ts == 0.0] == 2
    assert all(counts[ts != 0.0] == 1)


def test_decompose_single_component_matches_solver():
    golden = golden_mean_shift()
    for (shift, pot), t in ((bernoulli_setup(0.35), 1.0),
                            ((golden, LocallyConstantPotential.from_symbol_values(
                                golden, [-0.7, 0.2])), 1.5)):
        dec = decompose_components(shift, pot, t=t)
        direct = solve_rpf(build_transfer_matrix(shift, pot.scaled(t)))
        assert len(dec.components) == 1
        comp = dec.components[0]  # the same iteration, bitwise
        assert dec.pressure == direct.pressure and comp.residual == direct.residual
        for name in ("h", "m", "mu"):
            assert getattr(comp.solution, name).tobytes() == getattr(direct, name).tobytes()


def test_decompose_handles_periodic_component():
    cyc = cycle_shift(2)
    dec = decompose_components(cyc, LocallyConstantPotential.constant(cyc, 0.0))
    assert dec.pressure == pytest.approx(0.0, abs=1e-10)


def test_periodic_component_reports_its_residual():
    cyc = cycle_shift(3)
    pot = LocallyConstantPotential.from_symbol_values(cyc, [-0.4, 0.3, -1.2])
    comp = decompose_components(cyc, pot, tol=1e-12).components[0]
    assert comp.solution is None
    # the T^3 iteration's relative miss at tol, in units of the Perron root e^P
    assert 0.0 <= comp.residual <= 1e-12 * math.exp(comp.pressure)


def timed(fn):
    started = time.monotonic()
    out = fn()
    assert time.monotonic() - started <= 0.1
    return out


@pytest.mark.parametrize("values", [[-20.0, -20.0], [-30.0, -30.0], [-36.0, -36.0],
                                    [-40.0, -40.0], [0.0, -20.0], [0.0, -40.0],
                                    [10.0] * 120, [-10.0] * 120])
def test_cycle_component_pressure_is_the_mean_value(values):
    # T^d is the scalar prod(exp(values)) on a d-cycle, so p = mean(values) at
    # any scale: weights far below 1, unequal weights, lambda^120 past the
    # float range either way
    cyc = cycle_shift(len(values))
    pot = LocallyConstantPotential.from_symbol_values(cyc, values)
    dec = timed(lambda: decompose_components(cyc, pot, t=1.0))
    assert abs(dec.pressure - sum(values) / len(values)) <= 1e-12
    assert dec.components[0].solution is None and dec.kind == "positive-recurrent"


@pytest.mark.parametrize("values", [(-40.0, -43.0), (-20.0, -23.0), (0.3, -1.0)])
def test_golden_mean_root_at_any_scale(values):
    # T = [[a, b], [a, 0]] has Perron root (a + sqrt(a^2 + 4ab)) / 2
    a, b = (math.exp(v) for v in values)
    shift = golden_mean_shift()
    tm = build_transfer_matrix(shift, LocallyConstantPotential.from_symbol_values(shift, values))
    sol = timed(lambda: solve_rpf(tm))
    assert abs(sol.pressure - math.log(0.5 * (a + math.sqrt(a * a + 4 * a * b)))) <= 1e-12
    lam = math.exp(sol.pressure)  # the stop is relative to lambda, however small
    assert np.max(np.abs(tm.dense() @ sol.h - lam * sol.h)) <= 1e-12 * lam * 2


def test_underflowed_weights_are_no_edges():
    # exp(-800) is 0.0, so symbol 1 loses its edges: the nonzero graph is the
    # loop at 0 and the transient edge 0 -> 1, of period 1, so the iteration
    # gives p = 0 with its solution; solve_rpf, on the same graph, finds it
    # reducible
    shift = full_shift(2)
    pot = LocallyConstantPotential.from_symbol_values(shift, [0.0, -800.0])
    comp = decompose_components(shift, pot, t=1.0).components[0]
    assert comp.pressure == 0.0 and comp.residual == 0.0
    assert comp.solution.mu.tolist() == [1.0, 0.0]
    with pytest.raises(NotMixingError, match="reducible"):
        solve_rpf(build_transfer_matrix(shift, pot))


def test_underflow_leaving_a_periodic_class_takes_its_period():
    # on an aperiodic graph the nonzero weights leave a 2-cycle of weights
    # 1 and e^-1 (depth 2: states 01 and 10) or 1 and 1 (depth 1 at t = 80);
    # a period-1 iteration would oscillate on it
    shift = full_shift(2)
    deep = LocallyConstantPotential(2, {(0, 0): -800.0, (1, 1): -800.0, (0, 1): 0.0,
                                        (1, 0): -1.0}, shift)
    dec = timed(lambda: decompose_components(shift, deep, t=1.0))
    assert abs(dec.pressure + 0.5) <= 1e-12 and dec.components[0].solution is None
    graph = FiniteShift.from_edges(3, [0, 1, 1, 2, 2], [1, 0, 2, 0, 2])
    flat = LocallyConstantPotential.from_symbol_values(graph, [0.0, 0.0, -10.0])
    dec = timed(lambda: decompose_components(graph, flat, t=80.0))
    assert abs(dec.pressure) <= 1e-12 and dec.components[0].solution is None


def test_non_finite_estimates_stop_at_once():
    shift = full_shift(2)
    under = LocallyConstantPotential.from_symbol_values(shift, [-800.0, -800.0])
    with pytest.raises(FloatingPointError, match="Perron estimate is 0.0"):
        timed(lambda: decompose_components(shift, under))
    over = LocallyConstantPotential.from_symbol_values(shift, [0.0, 400.0])
    with pytest.raises(FloatingPointError, match="overflow"):
        decompose_components(shift, over, t=2.0)


def test_depth_one_states_are_built_on_first_use():
    shift = full_shift(3)
    tm = build_transfer_matrix(shift, LocallyConstantPotential.constant(shift, 0.0))
    assert tm.size == 3 and "states" not in vars(tm) and "index" not in vars(tm)
    assert tm.states == [(0,), (1,), (2,)]
    assert tm.index == {(0,): 0, (1,): 1, (2,): 2}


def two_component_setup():
    """Components {0, 1} and {2, 3, 4}, both aperiodic, unequal pressures."""
    shift = FiniteShift(5, np.array([[1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 1, 0],
                                     [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]]))
    pot = LocallyConstantPotential.from_symbol_values(shift, [-0.3, -1.1, -0.2, -0.7, -1.3])
    return shift, pot


def test_nonmixing_curve_reports_the_maximizer_residual():
    shift, pot = two_component_setup()
    ts = [-1.0, 0.0, 1.0, 2.0]
    curve, mixing = pressure_curve_finite(shift, pot, ts)
    assert mixing is False
    for t, width in zip(ts, curve.enclosure_widths):
        dec = decompose_components(shift, pot, t=t)
        assert dec.unique_maximizer
        assert width == dec.components[dec.maximizers[0]].residual
    # at t = 1 the maximizer's residual is nonzero; it used to read 0
    assert 0.0 < curve.enclosure_widths[2] <= 1e-11


# -- graph code against plain-Python references -----------------------------

@st.composite
def digraphs(draw):
    """0/1 matrices on 1-8 vertices with no empty row and no empty column."""
    n = draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    bits = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    t = (np.array(bits).reshape(n, n) < density).astype(np.int8)
    for i in range(n):
        if not t[i].any():
            t[i, draw(st.integers(0, n - 1))] = 1
    for j in range(n):
        if not t[:, j].any():
            t[draw(st.integers(0, n - 1)), j] = 1
    return t


def closure_components(t):
    """Cycle-carrying strongly connected components from a Boolean closure."""
    n = len(t)
    reach = np.eye(n, dtype=bool) | t.astype(bool)
    for k in range(n):  # Warshall
        reach |= reach[:, [k]] & reach[[k], :]
    comps, seen = [], set()
    for i in range(n):
        if i in seen:
            continue
        comp = [j for j in range(n) if reach[i, j] and reach[j, i]]
        seen.update(comp)
        if t[np.ix_(comp, comp)].any():
            comps.append(comp)
    return comps, bool(reach.all())


def python_bfs_period(t) -> int:
    """Period of a strongly connected digraph: BFS levels from vertex 0, then
    the gcd of level[u] + 1 - level[v] over the edges, one vertex at a time."""
    n = len(t)
    succ = [[int(j) for j in np.nonzero(t[i])[0]] for i in range(n)]
    level = [-1] * n
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in range(n):
        for v in succ[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    return g


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_components_match_transitive_closure(t):
    shift = FiniteShift(len(t), t)
    zero = LocallyConstantPotential.constant(shift, 0.0)
    expected, _ = closure_components(t)
    parts = cycle_components(shift, zero)
    assert [symbols for symbols, _, _ in parts] == expected
    for symbols, sub_shift, _ in parts:
        assert np.array_equal(sub_shift.dense(), t[np.ix_(symbols, symbols)])


def boolean_scan(t, n_max):
    """(mixing, power): the smallest N <= n_max with t^N all-positive, by plain
    Boolean matrix powers."""
    base = t.astype(np.int64)
    power = base.copy()
    for n in range(1, n_max + 1):
        if power.all():
            return True, n
        power = ((power @ base) > 0).astype(np.int64)
    return False, None


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_mixing_verdict_matches_boolean_scan(t):
    m = len(t)
    shift = FiniteShift(m, t)
    # Wielandt: a primitive matrix's Boolean powers are all positive by
    # exponent (m-1)^2 + 1, so the scan decides primitivity outright
    assert is_topologically_mixing(shift) is boolean_scan(t, (m - 1) ** 2 + 1)[0]


@settings(max_examples=200, deadline=None)
@given(digraphs(), st.integers(1, 4))
def test_periodic_words_match_brute_force(t, n):
    m = len(t)
    shift = FiniteShift(m, t)
    closed = [w for w in itertools.product(range(m), repeat=n)
              if all(t[w[i], w[(i + 1) % n]] for i in range(n))]
    assert enumerate_periodic_words(shift, n) == closed


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_primitivity_matches_python_bfs(t):
    shift = FiniteShift(len(t), t)
    rows, cols = np.nonzero(t)
    _, strong = closure_components(t)
    expected = python_bfs_period(t) if strong else 0
    assert strong_period(len(t), rows, cols) == expected
    tm = build_transfer_matrix(shift, LocallyConstantPotential.constant(shift, -0.5))
    if expected == 1:
        solve_rpf(tm)
    else:
        with pytest.raises(NotMixingError):
            solve_rpf(tm)


def test_long_cycle_curve_is_not_mixing_within_budget():
    shift = cycle_shift(120)
    started = time.monotonic()
    curve, mixing = pressure_curve_finite(
        shift, LocallyConstantPotential.constant(shift, -1.0), [0.5, 1.0, 1.5])
    assert time.monotonic() - started <= 2.0
    assert mixing is False
    assert curve.warnings == ["shift is not mixing; component maximum reported"]
    assert np.allclose(curve.p, -np.array([0.5, 1.0, 1.5]), atol=1e-12)
