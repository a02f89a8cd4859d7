"""Concrete interval maps: Chebyshev, Manneville-Pomeau, coded doubling map.

Periodic orbits are found per itinerary: the coding cell is pulled back
through inverse branches and the fixed point of the n-fold composition is
bisected inside it (vectorized across all 2^n itineraries).  The doubling
map uses exact dyadic arithmetic instead: the period-n point of itinerary w
is w/(2^n - 1) and orbit sums of the level potential are pure bit counting,
which is what makes the two-route partition-sum comparison exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .renewal import RenewalModel, TailEnvelope, renewal_zn
from .sequences import RealizedSequence, realize_model, HOFBAUER

LOG2 = math.log(2.0)

CHEBYSHEV = "chebyshev"
MANNEVILLE_POMEAU = "manneville_pomeau"
DOUBLING_GRID = "doubling_grid"

_BISECT_STEPS = 60
MP_MAX_LEVELS = 2000


@dataclass(frozen=True)
class IntervalMapModel:
    """A two-branch interval map with monotone branches onto the domain.

    The domain is [0, 1) except for Chebyshev, where x = 1 is kept (it is
    pre-fixed, never periodic).  The weight of a periodic sample at
    parameter t is exp(-t log|Df^n|) for the smooth kinds and
    exp(t * S_n(level potential)) for the coded doubling map.
    """

    kind: str
    alpha: float | None = None
    seq: RealizedSequence | None = None

    def __post_init__(self):
        if self.kind not in (CHEBYSHEV, MANNEVILLE_POMEAU, DOUBLING_GRID):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == MANNEVILLE_POMEAU and not (self.alpha and self.alpha > 0):
            raise ValueError("manneville_pomeau needs alpha > 0")
        if self.kind == DOUBLING_GRID and self.seq is None:
            raise ValueError("doubling_grid needs a realized sequence")

    # -- dynamics ----------------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == CHEBYSHEV:
            return 4.0 * x * (1.0 - x)
        if self.kind == MANNEVILLE_POMEAU:
            a = self.alpha
            left = x * (1.0 + (2.0 ** a) * x ** a)
            return np.where(x < 0.5, left, 2.0 * x - 1.0)
        return np.where(x < 0.5, 2.0 * x, 2.0 * x - 1.0)

    def deriv_abs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == CHEBYSHEV:
            return np.abs(4.0 - 8.0 * x)
        if self.kind == MANNEVILLE_POMEAU:
            a = self.alpha
            left = 1.0 + (2.0 ** a) * (1.0 + a) * x ** a
            return np.where(x < 0.5, left, 2.0)
        return np.full_like(x, 2.0)

    def inverse(self, branch: int, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind == CHEBYSHEV:
            root = np.sqrt(np.maximum(1.0 - y, 0.0))
            return 0.5 * (1.0 - root) if branch == 0 else 0.5 * (1.0 + root)
        if self.kind == DOUBLING_GRID:
            return 0.5 * (y + branch)
        if branch == 1:
            return 0.5 * (y + 1.0)
        lo = np.zeros_like(y)
        hi = np.full_like(y, 0.5)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            too_low = self.apply(mid) < y
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        return 0.5 * (lo + hi)

    def branch_decreasing(self, branch: int) -> bool:
        return self.kind == CHEBYSHEV and branch == 1

    @property
    def right_closed(self) -> bool:
        return self.kind == CHEBYSHEV


def chebyshev_model() -> IntervalMapModel:
    return IntervalMapModel(CHEBYSHEV)


def manneville_pomeau_model(alpha: float) -> IntervalMapModel:
    return IntervalMapModel(MANNEVILLE_POMEAU, alpha=alpha)


def doubling_grid_model(seq: RealizedSequence) -> IntervalMapModel:
    return IntervalMapModel(DOUBLING_GRID, seq=seq)


def chebyshev_pressure_exact(t: float) -> float:
    """max(-t log 4, (1-t) log 2): flat fixed-point branch vs acim branch."""
    return max(-t * math.log(4.0), (1.0 - t) * LOG2)


@dataclass(frozen=True)
class PeriodicOrbitSample:
    itinerary: tuple
    point: float
    log_deriv: float  # log |Df^n| at the point


@dataclass(frozen=True)
class PeriodicPointSet:
    n: int
    samples: list
    skipped: int


def _itineraries(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def _dyadic_points(codes: np.ndarray, n: int) -> np.ndarray:
    """Period-n points of the doubling map, one per itinerary.

    The all-ones word codes the supremum of [1/2, 1); it is represented just
    below 1 so half-open base membership matches the shift picture.
    """
    pts = codes.astype(float) / float((1 << n) - 1)
    return np.where(codes == (1 << n) - 1, np.nextafter(1.0, 0.0), pts)


def _bits(codes: np.ndarray, n: int, i: int) -> np.ndarray:
    return (codes >> (n - 1 - i)) & 1


@lru_cache(maxsize=128)
def periodic_points(model: IntervalMapModel, n: int, n_max: int = 22) -> PeriodicPointSet:
    """One sample per admissible length-n itinerary, skips logged.

    Degenerate cells (no sign change for the n-fold composition, or roots
    excluded by the half-open domain) are counted in `skipped`.  Results are
    cached per (model, n); the points do not depend on the parameter t.
    """
    if not 1 <= n <= n_max:
        raise ValueError(f"n must be in [1, {n_max}]")
    codes = _itineraries(n)

    if model.kind == DOUBLING_GRID:
        pts = _dyadic_points(codes, n)
        samples = [PeriodicOrbitSample(tuple(int(b) for b in np.binary_repr(c, n)),
                                       float(p), n * LOG2)
                   for c, p in zip(codes, pts)]
        return PeriodicPointSet(n, samples, 0)

    lo = np.zeros(len(codes))
    hi = np.ones(len(codes))
    for i in range(n - 1, -1, -1):
        b = _bits(codes, n, i)
        new_a = np.where(b == 0, model.inverse(0, lo), model.inverse(1, lo))
        new_b = np.where(b == 0, model.inverse(0, hi), model.inverse(1, hi))
        lo = np.minimum(new_a, new_b)
        hi = np.maximum(new_a, new_b)

    def f_n(x):
        for _ in range(n):
            x = model.apply(x)
        return x

    h_lo = f_n(lo) - lo
    h_hi = f_n(hi) - hi
    a, b = lo.copy(), hi.copy()
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        hm = f_n(mid) - mid
        same = np.sign(hm) == np.sign(h_lo)
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    roots = 0.5 * (a + b)
    # endpoint roots (fixed point at 0 sits on its cell boundary)
    roots = np.where(np.abs(h_lo) <= 1e-12, lo, roots)
    roots = np.where(np.abs(h_hi) <= 1e-12, hi, roots)
    roots = np.where(np.abs(roots) <= 1e-15, 0.0, roots)

    ok = np.abs(f_n(roots) - roots) <= 1e-9
    if not model.right_closed:
        ok &= roots < 1.0 - 1e-12
    x = roots.copy()
    log_deriv = np.zeros(len(roots))
    degenerate = np.zeros(len(roots), dtype=bool)
    for _ in range(n):
        d = model.deriv_abs(x)
        degenerate |= d < 1e-300
        log_deriv += np.log(np.maximum(d, 1e-300))
        x = model.apply(x)
    ok &= ~degenerate
    samples = [PeriodicOrbitSample(tuple(int(b) for b in np.binary_repr(c, n)),
                                   float(p), float(ld))
               for c, p, ld, good in zip(codes, roots, log_deriv, ok) if good]
    return PeriodicPointSet(n, samples, int(len(codes) - len(samples)))


def _grid_orbit_sums(seq: RealizedSequence, n: int) -> np.ndarray:
    """S_n of the level potential at every period-n itinerary (exact bits).

    The potential value along the orbit is a_k where k is the cyclic run of
    zeros ahead of the current position; the all-zero word (the fixed point
    at 0) contributes 0.
    """
    codes = _itineraries(n)
    mask = (1 << n) - 1
    a_vals = np.array([seq.a(k) for k in range(n + 1)])
    total = np.zeros(len(codes))
    for i in range(n):
        rolled = ((codes << i) | (codes >> (n - i))) & mask if i else codes
        nonzero = rolled > 0
        # leading-zero run of an n-bit word: n - bit_length
        bl = np.zeros(len(codes), dtype=np.int64)
        bl[nonzero] = np.frexp(rolled[nonzero].astype(float))[1]
        run = np.where(nonzero, n - bl, 0)
        total += np.where(nonzero, a_vals[run], 0.0)
    return total


@dataclass(frozen=True)
class ZnResult:
    n: int
    value: float
    in_base: int
    skipped: int


def zn_sum(model: IntervalMapModel, t: float, n: int,
           base: tuple[float, float] | None = None) -> ZnResult:
    """Periodic-orbit partition sum over points in the base interval.

    Weights are |Df^n|^(-t) for the smooth kinds and exp(t * S_n phi) for
    the coded doubling map.  The base is half-open [lo, hi).
    """
    if base is None:
        base = (0.0, 1.0 + 1e-12)
    lo, hi = float(base[0]), float(base[1])
    if model.kind == DOUBLING_GRID:
        codes = _itineraries(n)
        pts = _dyadic_points(codes, n)
        weights = np.exp(t * _grid_orbit_sums(model.seq, n))
        keep = (pts >= lo) & (pts < hi)
        return ZnResult(n, float(np.sum(weights[keep])), int(keep.sum()), 0)
    pset = periodic_points(model, n)
    total = 0.0
    count = 0
    for s in pset.samples:
        if lo <= s.point < hi:
            total += math.exp(-t * s.log_deriv)
            count += 1
    return ZnResult(n, total, count, pset.skipped)


@dataclass(frozen=True)
class GurevichEstimate:
    ns: np.ndarray
    raw: np.ndarray        # (1/n) log Z_n
    extrapolated: float    # Aitken delta-squared of the last triple
    spread: float          # max oscillation over the last three raw terms
    skipped: int

    @property
    def value(self) -> float:
        return self.extrapolated


def gurevich_estimate(model: IntervalMapModel, t: float, n_max: int) -> GurevichEstimate:
    """Pressure estimate from whole-domain periodic sums up to n_max."""
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    ns = np.arange(1, n_max + 1)
    raw = np.empty(n_max)
    skipped = 0
    for i, n in enumerate(ns):
        z = zn_sum(model, t, int(n))
        skipped += z.skipped
        raw[i] = math.log(z.value) / n if z.value > 0 else -math.inf
    x0, x1, x2 = raw[-3], raw[-2], raw[-1]
    d1, d2 = x1 - x0, x2 - x1
    extrap = x2 if abs(d2 - d1) < 1e-15 else x2 - d2 * d2 / (d2 - d1)
    spread = float(max(raw[-3:]) - min(raw[-3:]))
    return GurevichEstimate(ns, raw, float(extrap), spread, skipped)


def two_slope_kink(ts, ps, n_left: int = 3, n_right: int = 3):
    """Intersection of the lines fitted to the left and right ends of a curve.

    Returns (t_star, left_slope, right_slope); the input should sample the
    asymptotic linear branches on both sides of a suspected kink.
    """
    ts = np.asarray(ts, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if len(ts) < n_left + n_right:
        raise ValueError("not enough points for the two-slope fit")
    s1, c1 = np.polyfit(ts[:n_left], ps[:n_left], 1)
    s2, c2 = np.polyfit(ts[-n_right:], ps[-n_right:], 1)
    if abs(s1 - s2) < 1e-12:
        raise ArithmeticError("slopes too close; no kink resolved")
    return (c2 - c1) / (s1 - s2), float(s1), float(s2)


INCONCLUSIVE = "inconclusive"
TRANSIENT_LIKE = "transient-like"
RECURRENT_LIKE = "recurrent-like"


@dataclass(frozen=True)
class SarigDiagnostic:
    verdict: str
    rate: float             # fitted exponential rate of e^{-nP} Z_n
    rate_stderr: float
    poly_exponent: float    # fitted power of n
    ns: np.ndarray
    lambdas: np.ndarray


def sarig_series_diagnostic(model, t: float, pressure: float, n_max: int,
                            base: tuple[float, float] | None = None) -> SarigDiagnostic:
    """Heuristic recurrence check from the decay of lambda_n = e^{-nP} Z_n.

    Fits log lambda_n = c + rate*n + beta*log n over the last half of the
    range; transient-like iff the rate's 2-sigma band sits below zero.  This
    is the blunt screening tool: it is base-set dependent for interval
    models, which the certified engine is not.
    """
    if n_max < 6:
        raise ValueError("n_max must be >= 6 for a meaningful fit")
    ns = np.arange(1, n_max + 1, dtype=float)
    if isinstance(model, RenewalModel):
        zn = renewal_zn(model, t, n_max)
    elif isinstance(model, IntervalMapModel):
        zn = np.array([zn_sum(model, t, int(n), base).value for n in ns])
    else:
        raise TypeError("model must be a RenewalModel or IntervalMapModel")
    lam = np.exp(-ns * pressure) * zn
    sel = ns >= n_max // 2
    if np.any(lam[sel] <= 0):
        return SarigDiagnostic(INCONCLUSIVE, math.nan, math.nan, math.nan, ns, lam)
    y = np.log(lam[sel])
    x = np.column_stack([np.ones(sel.sum()), ns[sel], np.log(ns[sel])])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    dof = max(len(y) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    try:
        cov = sigma2 * np.linalg.inv(x.T @ x)
        stderr = math.sqrt(max(cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        return SarigDiagnostic(INCONCLUSIVE, float(coef[1]), math.nan,
                               float(coef[2]), ns, lam)
    rate = float(coef[1])
    verdict = TRANSIENT_LIKE if rate + 2.0 * stderr < 0 else RECURRENT_LIKE
    return SarigDiagnostic(verdict, rate, stderr, float(coef[2]), ns, lam)


def mp_preimage_ladder(alpha: float, n_levels: int) -> np.ndarray:
    """xi_0 = 1/2 and f(xi_{k+1}) = xi_k down the left branch (decreasing to 0)."""
    model = manneville_pomeau_model(alpha)
    ladder = np.empty(n_levels + 1)
    ladder[0] = 0.5
    for k in range(n_levels):
        ladder[k + 1] = float(model.inverse(0, np.array(ladder[k])))
    return ladder


def _mp_level_values(model: IntervalMapModel, ladder: np.ndarray) -> np.ndarray:
    """-log|DF| at the periodic point of every level branch, levels 1..L at once.

    Row n-1 of every array belongs to level n, whose branch
    [ (1 + xi_{n-1})/2, (1 + xi_{n-2})/2 ) returns to [1/2, 1) after n steps.
    The levels are bisected together; level n stops moving after its n-th
    step, so the rows still moving at step k are those from k on.  The
    arithmetic per level is the same as bisecting each level on its own, and
    each level's log-derivative sum keeps its own summation order.
    """
    n_levels = len(ladder) - 1
    left = 0.5 * (1.0 + ladder[:-1])
    right = 0.5 * (1.0 + np.concatenate(([1.0], ladder[:-2])))
    a, b = left, right - 1e-15
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        y = mid.copy()
        for k in range(n_levels):
            y[k:] = model.apply(y[k:])
        below = y < mid
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    y = 0.5 * (a + b)
    orbit = np.empty((n_levels, n_levels))
    for i in range(n_levels):
        orbit[i:, i] = y[i:]
        y[i:] = model.apply(y[i:])
    return np.array([-float(np.sum(np.log(model.deriv_abs(orbit[n - 1, :n]))))
                     for n in range(1, n_levels + 1)])


def mp_induced_model(alpha: float, n_levels: int = 200) -> RenewalModel:
    """First-return model of the Manneville-Pomeau map on [1/2, 1).

    Level n returns after n steps through the parabolic side; its induced
    value is -log|DF| at the periodic point of the level branch (a locally
    constant stand-in, no distortion constant claimed).  The tail envelope is
    fitted on the upper half of the computed levels and the fitted shape
    extends the model beyond them; the fit residual is reported as the
    envelope eps.  The build holds a levels x levels orbit array, so the
    level count is capped at MP_MAX_LEVELS.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_levels < 8:
        raise ValueError("need at least 8 levels")
    if n_levels > MP_MAX_LEVELS:
        raise ValueError(f"at most {MP_MAX_LEVELS} levels, got {n_levels}")
    s_vals = np.empty(n_levels + 1)  # index = level, entry 0 unused
    s_vals[1:] = _mp_level_values(manneville_pomeau_model(alpha),
                                  mp_preimage_ladder(alpha, n_levels))

    n_start = max(n_levels // 2, 2)
    ns_fit = np.arange(n_start, n_levels + 1, dtype=float)
    x_fit = np.column_stack([np.ones(len(ns_fit)), -np.log(ns_fit)])
    coef, *_ = np.linalg.lstsq(x_fit, s_vals[n_start:], rcond=None)
    offset, log_coeff = float(coef[0]), float(coef[1])
    eps = float(np.max(np.abs(s_vals[n_start:] - (offset - log_coeff * np.log(ns_fit)))))
    envelope = TailEnvelope(0.0, log_coeff, offset, eps + 1e-12, n_start)

    table = s_vals.copy()

    def s_fn(n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.int64)
        out = np.where(n <= n_levels, table[np.minimum(n, n_levels)],
                       offset - log_coeff * np.log(np.maximum(n, 1)))
        return out

    return RenewalModel(s_fn, envelope, mult_slope=0.0, mult_offset=0.0,
                        bad_entropy=0.0, bad_value=0.0,
                        label=f"mp(alpha={alpha}, levels={n_levels})")


def hofbauer_doubling_model(seq: RealizedSequence) -> RenewalModel:
    """First-return model of the doubling map on [1/2, 1) with level values seq.

    Identical to the hofbauer realization of the sequence; named here as the
    interval-map construction.
    """
    return realize_model(seq, HOFBAUER)
