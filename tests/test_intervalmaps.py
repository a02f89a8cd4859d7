import math
import time

from hypothesis import given, settings, strategies as st
import mpmath
import numpy as np
import pytest

from thermoform import (RealizedSequence, chebyshev_model,
                        chebyshev_pressure_exact, doubling_grid_model,
                        gurevich_estimate, hofbauer_doubling_model,
                        manneville_pomeau_model, mp_induced_model,
                        mp_preimage_ladder, periodic_points, renewal_zn,
                        solve_pressure, two_slope_kink, zn_sum)
from thermoform.intervalmaps import _dyadic_codes_below, _mp_level_values
from thermoform.sequences import build_tail, normalize

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
    xs = sorted(pts.points.tolist())
    assert xs == pytest.approx([0.0, 0.75], abs=1e-12)
    derivs = sorted(math.exp(ld) for ld in pts.log_derivs.tolist())
    assert derivs == pytest.approx([2.0, 4.0], abs=1e-9)


def test_chebyshev_counts_and_skips():
    for n in (2, 4, 8, 12):
        pts = periodic_points(chebyshev_model(), n)
        assert pts.skipped <= 2
        assert len(pts.points) == 2 ** n - pts.skipped


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


@pytest.mark.parametrize("n", [14, 16])
def test_chebyshev_periodic_points_match_the_closed_form(n):
    # x = sin^2(theta) turns f into theta -> 2 theta, so 2^n theta = +-theta (mod pi)
    plus = np.arange(2 ** (n - 1)) / (2 ** n - 1)
    minus = np.arange(1, 2 ** (n - 1) + 1) / (2 ** n + 1)
    exact = np.sort(np.sin(np.pi * np.concatenate([plus, minus])) ** 2)
    pset = periodic_points(chebyshev_model(), n)
    assert pset.skipped == 0 and len(pset.points) == 2 ** n
    assert np.max(np.abs(np.sort(pset.points) - exact)) <= 1e-11


def test_two_slope_kink_recovers_chebyshev():
    ts = [-3.0, -2.5, -2.0, 0.5, 1.0, 1.5]
    ps = [gurevich_estimate(chebyshev_model(), t, 12).extrapolated for t in ts]
    t_star, s_left, s_right = two_slope_kink(ts, ps)
    assert abs(t_star + 1.0) <= 0.05
    assert s_left == pytest.approx(-LOG4, abs=0.02)
    assert s_right == pytest.approx(-LOG2, abs=0.02)


def test_mp_fixed_points_boundary_convention():
    pts = periodic_points(manneville_pomeau_model(0.5), 1)
    assert len(pts.points) == 1  # x = 1 is excluded by the half-open domain
    assert pts.points[0] == pytest.approx(0.0, abs=1e-12)
    assert pts.log_derivs[0] == pytest.approx(0.0, abs=1e-12)  # parabolic
    assert pts.skipped == 1


def test_mp_zn_at_zero_counts_every_orbit_but_one():
    model = manneville_pomeau_model(0.5)
    for n in range(1, 15):
        z = zn_sum(model, 0.0, n)
        assert (z.value, z.skipped) == (2 ** n - 1, 1)  # x = 1 is left out


def test_mp_gurevich_at_zero_is_log2():
    est = gurevich_estimate(manneville_pomeau_model(0.5), 0.0, 12)
    assert abs(est.extrapolated - LOG2) <= 1e-5


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


def reference_mp_ladder(alpha, n_levels):
    """Reference: xi_{k+1} = inverse(0, xi_k), one 0-d array bisection per level."""
    model = manneville_pomeau_model(alpha)
    xi = [0.5]
    for _ in range(n_levels):
        xi.append(float(model.inverse(0, np.array(xi[-1]))))
    return np.array(xi)


MP_LADDER_ALPHAS = [0.05, 0.3, 0.5, 0.9, 3.7]
# the benchmark's alpha range, where a ladder on Python's ** drifts in the last bit
MP_DRAWN_ALPHAS = np.random.default_rng(15).uniform(0.48, 0.52, 20).tolist()


@pytest.mark.parametrize("alpha", MP_LADDER_ALPHAS + MP_DRAWN_ALPHAS)
def test_mp_ladder_matches_inverse_bitwise(alpha):
    reference = reference_mp_ladder(alpha, 120)  # level k depends on level k-1 only
    for n_levels in (8, 49, 120):
        assert np.array_equal(mp_preimage_ladder(alpha, n_levels),
                              reference[:n_levels + 1])


@pytest.mark.parametrize("alpha", MP_LADDER_ALPHAS)
def test_mp_s_table_matches_inverse_ladder_bitwise(alpha):
    model = manneville_pomeau_model(alpha)
    reference = reference_mp_ladder(alpha, 120)
    for n_levels in (8, 49, 120):
        built = mp_induced_model(alpha, n_levels).s_values(np.arange(1, n_levels + 1))
        assert np.array_equal(built, _mp_level_values(model, reference[:n_levels + 1]))


def test_mp_ladder_of_2000_levels_is_fast():
    started = time.perf_counter()
    mp_preimage_ladder(0.5, 2000)
    assert time.perf_counter() - started <= 0.6


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


@pytest.mark.parametrize("alpha", [1023.9, math.inf, math.nan, 1024, 10 ** 400])
def test_mp_alpha_past_the_float_range_is_refused(alpha):
    with pytest.raises(ValueError, match="alpha"):
        mp_induced_model(alpha, 8)
    with pytest.raises(ValueError, match="alpha"):
        mp_preimage_ladder(alpha, 8)


def test_mp_level_count_is_capped():
    with pytest.raises(ValueError, match="2000"):
        mp_induced_model(0.5, 2001)


def transient_grid_sequence():
    return RealizedSequence((-LOG4,) * 30, 3.0, 30)


def test_first_return_model_by_kind():
    seq = transient_grid_sequence()
    grid = doubling_grid_model(seq).first_return(150)
    ns = np.arange(1, 60)
    assert np.array_equal(grid.s_values(ns), hofbauer_doubling_model(seq).s_values(ns))
    mp = manneville_pomeau_model(0.5).first_return(40)
    assert np.array_equal(mp.s_values(ns), mp_induced_model(0.5, 40).s_values(ns))
    with pytest.raises(ValueError, match="no first-return"):
        chebyshev_model().first_return(150)


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


def test_gurevich_doubling_counts():
    seq = transient_grid_sequence()
    interval = doubling_grid_model(seq)
    est = gurevich_estimate(interval, 0.0, 6)
    assert np.allclose(est.raw, LOG2, atol=1e-12)  # 2^n itineraries, zero potential


def test_zn_sum_caps_the_period():
    model = doubling_grid_model(RealizedSequence((-1.0,), 3.0, 1))
    with pytest.raises(ValueError, match="22"):
        zn_sum(model, 1.0, 23)
    with pytest.raises(ValueError, match="22"):
        zn_sum(chebyshev_model(), 1.0, 23)


def grid_orbit_sums(seq, n):
    """S_n of the level potential at every period-n itinerary (exact bits).

    The 2^n-array route the renewal block sums of zn_sum replaced, kept as
    the reference.  The potential value along the orbit is a_k where k is
    the cyclic run of zeros ahead of the current position; the all-zero word
    (the fixed point at 0) contributes 0.  With table[c] that value at the
    n-bit word c, S_n at c sums table over the n left rotations of c.  The
    words of bit length j are the block [2^(j-1), 2^j), whose leading-zero
    run is n - j.  Rotating left by i swaps the top i bits (hi) with the low
    n - i bits (lo), so row hi, column lo of the sums viewed as
    2^i x 2^(n-i) takes table viewed as 2^(n-i) x 2^i, transposed: the same
    values added in the same order as word by word.
    """
    table = np.zeros(1 << n)
    for j in range(1, n + 1):
        table[1 << (j - 1):1 << j] = seq.a(n - j)
    total = np.zeros(1 << n)
    for i in range(n):
        total.reshape(1 << i, 1 << (n - i))[...] += table.reshape(1 << (n - i), 1 << i).T
    return total


def orbit_sums_per_rotation(seq, n):
    """The per-rotation loop grid_orbit_sums replaced, kept as the reference."""
    codes = np.arange(1 << n, dtype=np.int64)
    mask = (1 << n) - 1
    a_vals = np.array([seq.a(k) for k in range(n + 1)])
    total = np.zeros(len(codes))
    for i in range(n):
        rolled = ((codes << i) | (codes >> (n - i))) & mask if i else codes
        nonzero = rolled > 0
        bl = np.zeros(len(codes), dtype=np.int64)
        bl[nonzero] = np.frexp(rolled[nonzero].astype(float))[1]
        run = np.where(nonzero, n - bl, 0)
        total += np.where(nonzero, a_vals[run], 0.0)
    return total


def orbit_sum_brute_force(seq, word):
    """S_n at one word: a_k per position, k the cyclic run of zeros ahead."""
    n = len(word)
    if not any(word):
        return 0.0
    total = 0.0
    for i in range(n):
        k = 0
        while word[(i + k) % n] == 0:
            k += 1
        total += seq.a(k)
    return total


@pytest.mark.parametrize("seq", [normalize(build_tail(3.0, 1), 2.0),
                                 transient_grid_sequence()])
def test_grid_orbit_sums_by_transposes(seq):
    for n in range(1, 17):
        sums = grid_orbit_sums(seq, n)
        assert sums.tobytes() == orbit_sums_per_rotation(seq, n).tobytes()
        if n <= 10:
            for c in range(1 << n):
                word = [(c >> (n - 1 - i)) & 1 for i in range(n)]
                assert sums[c] == pytest.approx(orbit_sum_brute_force(seq, word),
                                                rel=1e-12, abs=1e-12)


def zn_sum_by_mask(model, t, n, base):
    """The mask-based doubling-grid Z_n that the code-range slice replaced,
    kept as the reference: every point built, weighted and masked."""
    lo, hi = base
    codes = np.arange(1 << n, dtype=np.int64)
    pts = codes.astype(float) / float((1 << n) - 1)
    pts = np.where(codes == (1 << n) - 1, np.nextafter(1.0, 0.0), pts)
    weights = np.exp(t * grid_orbit_sums(model.seq, n))
    keep = (pts >= lo) & (pts < hi)
    return float(np.sum(weights[keep])), int(keep.sum())


def zn_sum_per_sample(model, t, n, base):
    """The per-sample loop of the smooth-kind Z_n, kept as the reference."""
    lo, hi = base
    pset = periodic_points(model, n)
    total, count = 0.0, 0
    for point, log_deriv in zip(pset.points.tolist(), pset.log_derivs.tolist()):
        if lo <= point < hi:
            total += math.exp(-t * log_deriv)
            count += 1
    return total, count


ZN_BASES = [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0 + 1e-12), (0.3, 0.7), (1 / 3, 2 / 3)]


class ZnOracle:
    """Doubling-grid Z_n at 50 digits from the exact level values: the head
    as stored, the tail gamma log(k/(k+1)) and s_l their exact sums.

    Per word (cut into cyclic 0^k 1 blocks) for n <= 10; beyond that by the
    renewal recursion R_j = sum_l w_l R_(j-l), summed over the dyadic blocks
    below c1 minus those below c0, each by the general prefix formula.
    """

    N = 22

    def __init__(self, seq, t):
        with mpmath.workdps(50):
            a = [mpmath.mpf(seq.a(k)) if k < seq.n_cut or seq.gamma is None
                 else mpmath.mpf(seq.gamma) * mpmath.log(mpmath.mpf(k) / (k + 1))
                 for k in range(self.N)]
            s = np.cumsum([mpmath.mpf(0)] + a)
            self.w = [None] + [mpmath.exp(mpmath.mpf(t) * s[k]) for k in range(1, self.N + 1)]
            self.r = [mpmath.mpf(1)]
            for j in range(1, self.N + 1):
                self.r.append(sum(self.w[k] * self.r[j - k] for k in range(1, j + 1)))

    def word(self, code, n):
        ones = [i for i in range(n) if code >> (n - 1 - i) & 1]
        if not ones:
            return mpmath.mpf(1)
        out = self.w[ones[0] + n - ones[-1]]  # the block through the wrap
        for i, j in zip(ones, ones[1:]):
            out *= self.w[j - i]
        return out

    def block(self, prefix, m, f):
        w, r = self.w, self.r
        if prefix == 0:
            return 1 + sum(k * w[m + k] * r[f - k] for k in range(1, f + 1))
        ones = [i for i in range(m) if prefix >> (m - 1 - i) & 1]
        p, z = ones[0], m - 1 - ones[-1]
        c = mpmath.fprod(w[j - i] for i, j in zip(ones, ones[1:]))
        inner = sum(w[z + u + 1] * r[j] * w[p + (f - 1 - j - u) + 1]
                    for j in range(f) for u in range(f - j))
        return c * (w[p + z + f + 1] + inner)

    def below(self, c, n):
        """Z_n over the codes below c: a block per set bit of c."""
        if c >> n:
            return self.block(0, 0, n)
        return sum((self.block(c >> (f + 1) << 1, n - f, f) for f in range(n) if c >> f & 1),
                   mpmath.mpf(0))

    def __call__(self, n, c0, c1):
        with mpmath.workdps(50):
            if n <= 10:
                return sum((self.word(c, n) for c in range(c0, c1)), mpmath.mpf(0))
            return self.below(c1, n) - self.below(c0, n)


def assert_zn_encloses(oracle, z, c0):
    ref, value = oracle(z.n, c0, c0 + z.in_base), mpmath.mpf(z.value)
    assert value * (1 - z.rel_err) <= ref <= value * (1 + z.rel_err)


@pytest.mark.parametrize("base", ZN_BASES)
def test_doubling_zn_code_range_matches_mask_bitwise(base):
    seq = normalize(build_tail(3.0, 1), 2.0)
    model = doubling_grid_model(seq)
    for t in (0.5, 1.0, 1.7):
        oracle = ZnOracle(seq, t)
        for n in range(1, 17):
            z = zn_sum(model, t, n, base)
            _, in_base = zn_sum_by_mask(model, t, n, base)
            assert z.in_base == in_base and z.skipped == 0
            assert_zn_encloses(oracle, z, _dyadic_codes_below(base[0], n))


@pytest.mark.parametrize("seq", [normalize(build_tail(3.0, 1), 2.0), transient_grid_sequence(),
                                 RealizedSequence((-1.4,) * 30, 2.8, 30),
                                 RealizedSequence((0.3, -2.0, 0.7), None, 3)],
                         ids=["normalized", "transient", "head-30", "zero-tail"])
@pytest.mark.parametrize("base", ZN_BASES)
def test_doubling_zn_lies_in_its_certified_enclosure(seq, base):
    model = doubling_grid_model(seq)
    for t in (-0.8, 1.7):
        oracle = ZnOracle(seq, t)
        for n in range(1, 23):
            z = zn_sum(model, t, n, base)
            assert 0 < z.rel_err < 1e-10
            assert_zn_encloses(oracle, z, _dyadic_codes_below(base[0], n))


@settings(max_examples=40, deadline=None)
@given(head_value=st.floats(-2.0, 1.0), head_count=st.integers(1, 12),
       gamma=st.one_of(st.none(), st.floats(1.5, 4.0)), t=st.floats(-2.0, 2.0),
       ends=st.lists(st.floats(-0.1, 1.1), min_size=2, max_size=2, unique=True),
       n=st.integers(1, 10))
def test_doubling_zn_matches_per_word_orbit_sums(head_value, head_count, gamma, t, ends, n):
    seq = RealizedSequence((head_value,) * head_count, gamma, head_count)
    lo, hi = sorted(ends)
    z = zn_sum(doubling_grid_model(seq), t, n, (lo, hi))
    top = (1 << n) - 1
    codes = [c for c in range(top + 1)
             if lo <= (c / top if c < top else math.nextafter(1.0, 0.0)) < hi]
    words = [[c >> (n - 1 - i) & 1 for i in range(n)] for c in codes]
    ref = sum(math.exp(t * orbit_sum_brute_force(seq, word)) for word in words)
    assert z.in_base == len(codes)
    assert z.value == pytest.approx(ref, rel=1e-12)


def test_doubling_zn_to_period_22_is_fast():
    model = doubling_grid_model(normalize(build_tail(3.0, 1), 2.0))
    started = time.perf_counter()
    for base in ZN_BASES:
        for n in range(1, 23):
            zn_sum(model, 1.0, n, base)
    assert time.perf_counter() - started <= 0.5


def test_doubling_zn_overflow_raises():
    model = doubling_grid_model(RealizedSequence((-1.4,) * 30, 3.0, 30))
    with pytest.raises(FloatingPointError, match="overflow"):
        zn_sum(model, -800.0, 4)
    assert zn_sum(model, 800.0, 4, (0.5, 1.0)).value == 0.0  # underflow stays 0


def test_doubling_zn_base_edge_on_a_point():
    # for even n, 1/3 = ((2^n - 1)/3) / (2^n - 1) is a period-n point and sits
    # in the half-open base [1/3, 2/3), while 2/3 is a point left out
    model = doubling_grid_model(transient_grid_sequence())
    for n in (2, 4, 8, 16):
        third = ((1 << n) - 1) // 3
        assert third / float((1 << n) - 1) == 1 / 3
        assert zn_sum(model, 1.0, n, (1 / 3, 2 / 3)).in_base == third
        assert zn_sum(model, 1.0, n, (1 / 3, 1 / 3)).in_base == 0
        # the all-ones word sits at nextafter(1, 0)
        below_one = math.nextafter(1.0, 0.0)
        assert zn_sum(model, 1.0, n, (below_one, 2.0)).in_base == 1
        assert zn_sum(model, 1.0, n, (0.0, below_one)).in_base == (1 << n) - 1


@pytest.mark.parametrize("model", [chebyshev_model(), manneville_pomeau_model(0.5)],
                         ids=["chebyshev", "mp"])
@pytest.mark.parametrize("base", ZN_BASES)
def test_smooth_zn_matches_per_sample_loop_bitwise(model, base):
    n_top = 16 if model.kind == "chebyshev" else 10
    for n in range(1, n_top + 1):
        for t in (-2.0, 0.5, 1.0):
            z = zn_sum(model, t, n, base)
            assert (z.value, z.in_base) == zn_sum_per_sample(model, t, n, base)


@pytest.mark.parametrize("model", [chebyshev_model(),
                                   doubling_grid_model(transient_grid_sequence())],
                         ids=["chebyshev", "doubling"])
def test_zn_infinite_base_is_the_whole_domain(model):
    for n in (1, 5, 12):
        whole = zn_sum(model, 0.7, n)
        assert zn_sum(model, 0.7, n, (-math.inf, math.inf)) == whole
        assert zn_sum(model, 0.7, n, (0.0, math.inf)) == whole


def test_periodic_points_arrays_in_code_order():
    pset = periodic_points(chebyshev_model(), 6)
    assert np.all(np.diff(pset.codes) > 0)
    assert len(pset.codes) == len(pset.points) == len(pset.log_derivs)
    assert not pset.points.flags.writeable
    # the doubling map runs the same pull-back; x = 1 is left out of [0, 1)
    grid = periodic_points(doubling_grid_model(transient_grid_sequence()), 6)
    assert np.array_equal(grid.codes, np.arange(63)) and grid.skipped == 1
    assert np.max(np.abs(grid.points - grid.codes / 63.0)) <= 1e-15
    assert np.all(np.diff(grid.points) > 0)
