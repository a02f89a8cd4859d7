"""Certified induced-pressure engine for renewal-type countable shifts.

A model is a family of first-return loops: level n carries multiplicity m_n
and induced value s_n (nats), so the induced partition function at inverse
pressure p is

    G(t, p) = sum_{n>=1} m_n exp(t s_n - n p).

The pressure of t*phi is the bad-set floor p_B(t) when G(t, p_B) <= 1 and
otherwise the unique root p of G(t, p) = 1 above the floor.  Recurrence is
read off G and the expected return time H(t, p) = sum n m_n exp(t s_n - n p):
transient iff G < 1 certified at the floor, positive recurrent iff H is
certified finite, null recurrent iff H is certified divergent.

Every series verdict is an enclosure: explicit terms up to an adaptive cut
plus an Euler-Maclaurin tail bound driven by the model's envelope

    s_n = slope*n - log_coeff*log(n) + offset + eps_n,  |eps_n| <= eps

for n >= n_start, with log m_n = mult_slope*n + mult_offset exactly.

The transience call is the induced criterion: a certified G < 1 at the floor
means the first-return weights are strictly sub-normalized, so no
conservative conformal normalization exists and mass leaks to the bad set.
Taking that as the definition of transience for the full system is a
modeling assumption of this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .errors import EnvelopeError, ConvergenceError, IndeterminateError
from .series import (CertifiedSum, INF, iv_add, iv_div_pos, iv_scale,
                     tail_log_power_exp, tail_power_exp)
from .shifts import FiniteShift, LocallyConstantPotential
import scipy.sparse as sp

DEFAULT_SUM_TOL = 1e-12
DEFAULT_ROOT_TOL = 1e-10
_SERIES_CAP = 1 << 21


@dataclass(frozen=True)
class TailEnvelope:
    """Eventual shape of the induced values: s_n ~ slope*n - log_coeff*log n + offset."""

    slope: float
    log_coeff: float
    offset: float
    eps: float
    n_start: int

    def center(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.slope * n - self.log_coeff * np.log(n) + self.offset


@dataclass(frozen=True)
class RenewalModel:
    """Abstract first-return model: multiplicities, induced values, floor.

    `s` must accept an integer ndarray and return induced values; it has to
    agree with the envelope beyond n_start.  It must also be elementwise: the
    value at level n depends on n alone, never on the other levels asked for
    in the same call, because the model's level table evaluates `s` in
    blocks of new levels (see `s_table`).  log m_n = mult_slope*n +
    mult_offset holds exactly (m_n = 1 and m_n = 2^(n-1) are the two shapes
    realized by the sequence families).  The floor is affine,
    p_B(t) = bad_entropy + t*bad_value, and both families have bad_value = 0
    because the potential vanishes on the bad set.
    """

    s: object
    envelope: TailEnvelope
    mult_slope: float = 0.0
    mult_offset: float = 0.0
    bad_entropy: float = 0.0
    bad_value: float = 0.0
    label: str = ""
    # s_1..s_len, grown by s_table; None until the envelope has been validated
    _s_table: np.ndarray | None = field(default=None, init=False, compare=False,
                                        repr=False)

    def s_values(self, n) -> np.ndarray:
        return np.asarray(self.s(np.asarray(n, dtype=np.int64)), dtype=float)

    def s_table(self, m: int) -> np.ndarray:
        """s_1..s_m, read from the model's level table.

        The first call validates the envelope.  The table grows by evaluating
        `s` on the levels it does not yet hold; a grown table is a new array
        swapped in whole, never written in place, so concurrent callers can at
        worst repeat work.  The returned view is read-only.
        """
        table = self._s_table
        if table is None:
            _validate_envelope(self)
            table = np.empty(0)
        if len(table) < m:
            new = self.s_values(np.arange(len(table) + 1, m + 1, dtype=np.int64))
            table = np.concatenate((table, new))
            table.setflags(write=False)
            current = self._s_table
            if current is None or len(current) < m:
                object.__setattr__(self, "_s_table", table)
        return table[:m]

    def log_mult(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.mult_slope * n + self.mult_offset

    def bad_set_pressure(self, t: float) -> float:
        return self.bad_entropy + t * self.bad_value

    def with_log_weight_shift(self, u: float) -> "RenewalModel":
        """Add u to every level's log-weight (a bonus on the base cylinder)."""
        return replace(self, mult_offset=self.mult_offset + u,
                       label=f"{self.label}+shift({u:.6g})")


def _validate_envelope(model: RenewalModel) -> bool:
    e = model.envelope
    ns = np.arange(e.n_start, e.n_start + 1001, dtype=np.int64)
    devs = np.abs(model.s_values(ns) - e.center(ns))
    slack = 1e-9 * (1.0 + np.abs(model.s_values(ns)).max())
    worst = float(devs.max())
    if worst > e.eps + slack:
        raise EnvelopeError(
            f"envelope violated: |s_n - shape| reaches {worst:.3e} > eps={e.eps:.3e} "
            f"on n in [{e.n_start}, {e.n_start + 1000}]; supply a larger n_start or eps")
    return True


def certified_series(model: RenewalModel, t: float, p: float, *,
                     n_weight: int = 0, s_weight: bool = False,
                     tol: float = DEFAULT_SUM_TOL, cap: int = _SERIES_CAP) -> CertifiedSum:
    """Enclosure of sum n^n_weight * [s_n] * m_n exp(t s_n - n p).

    n_weight in {0, 1}; with s_weight the terms carry a factor s_n (signed).
    Divergence is certified from the envelope's lower side.
    """
    if n_weight not in (0, 1):
        raise ValueError("n_weight must be 0 or 1")
    e = model.envelope
    m = max(e.n_start + 1, 1024)
    s_head = model.s_table(m)
    rho = model.mult_slope + t * e.slope - p
    a_w = -t * e.log_coeff  # polynomial exponent of the weights
    c_up = model.mult_offset + t * e.offset + abs(t) * e.eps
    c_lo = model.mult_offset + t * e.offset - abs(t) * e.eps

    if not s_weight:
        a_tail = a_w + n_weight
        if rho > 0 or (rho == 0.0 and a_tail >= -1.0):
            ns = np.arange(1, 65, dtype=np.int64)
            logw = model.log_mult(ns) + t * s_head[:64] - ns * p
            partial = float(np.sum(ns ** n_weight * np.exp(np.minimum(logw, 690.0))))
            return CertifiedSum(partial, INF, 64, "divergent")
    else:
        # callers establish convergence of sum n*w before asking for sum s*w
        if rho > 0 or (rho == 0.0 and a_w + 1.0 >= -1.0):
            raise ValueError("s-weighted series requested in a divergent regime")

    while True:
        ns = np.arange(1, m + 1, dtype=np.int64)
        sv = model.s_table(m)
        w = np.exp(model.log_mult(ns) + t * sv - ns * p)
        if s_weight:
            partial = float(np.sum(sv * w))
            fp_slack = 1e-14 * float(np.sum(np.abs(sv) * w)) + 1e-300
            t0 = _weight_tail(a_w, rho, m + 1, c_lo, c_up)
            t1 = _weight_tail(a_w + 1.0, rho, m + 1, c_lo, c_up)
            tl = _weight_log_tail(a_w, rho, m + 1, c_lo, c_up)
            tail = iv_add(iv_add(iv_scale(e.slope, t1), iv_scale(e.offset, t0)),
                          iv_scale(-e.log_coeff, tl))
            tail = iv_add(tail, (-e.eps * t0[1], e.eps * t0[1]))
        else:
            partial = float(np.sum(ns ** n_weight * w))
            fp_slack = 1e-14 * partial + 1e-300
            tail = _weight_tail(a_w + n_weight, rho, m + 1, c_lo, c_up)
        lower = partial + tail[0] - fp_slack
        upper = partial + tail[1] + fp_slack
        width = upper - lower
        if width <= tol * (1.0 + min(abs(lower), abs(upper))) or m >= cap:
            method = "euler-maclaurin"
            return CertifiedSum(lower, upper, int(m), method)
        m *= 2


def _weight_tail(a: float, rho: float, m_from: int, c_lo: float, c_up: float):
    lo, hi = tail_power_exp(a, rho, m_from)
    return (math.exp(c_lo) * lo, math.exp(c_up) * hi)


def _weight_log_tail(a: float, rho: float, m_from: int, c_lo: float, c_up: float):
    lo, hi = tail_log_power_exp(a, rho, m_from)
    return (math.exp(c_lo) * lo, math.exp(c_up) * hi)


def certified_G(model: RenewalModel, t: float, p: float,
                tol: float = DEFAULT_SUM_TOL) -> CertifiedSum:
    """Enclosure of the induced partition sum G(t, p)."""
    return certified_series(model, t, p, n_weight=0, tol=tol)


@dataclass(frozen=True)
class PressureRoot:
    t: float
    pressure: float
    lo: float
    hi: float
    at_floor: bool
    G: CertifiedSum  # at the floor when at_floor, else at the returned root
    iterations: int = 0

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _g_side(g: CertifiedSum, boundary_tol: float) -> str:
    """'above' / 'below' / 'boundary' of G relative to 1."""
    if g.lower > 1.0:
        return "above"
    if g.upper < 1.0:
        return "below"
    if g.width <= boundary_tol:
        return "boundary"
    return "wide"


def solve_pressure(model: RenewalModel, t: float, tol: float = DEFAULT_ROOT_TOL,
                   sum_tol: float = DEFAULT_SUM_TOL) -> PressureRoot:
    """Pressure of t*phi: the floor p_B(t), or the root of G(t, .) = 1 above it.

    G is strictly decreasing in p, so bisection with certified comparisons
    against 1 gives an enclosure of width <= tol (or the width at which the
    G enclosure itself pins the root).
    """
    p_floor = model.bad_set_pressure(t)
    boundary_tol = max(8.0 * sum_tol, 1e-12)
    g_floor = certified_G(model, t, p_floor, tol=sum_tol)
    side = _g_side(g_floor, boundary_tol)
    if side in ("below", "boundary"):
        return PressureRoot(t, p_floor, p_floor, p_floor, True, g_floor)
    if side == "wide":
        raise IndeterminateError(
            f"G(t={t}, p_B) = [{g_floor.lower}, {g_floor.upper}] straddles 1 "
            "with width above tolerance; tighten sum_tol")

    step = max(1.0, abs(p_floor))
    hi = p_floor + step
    g_hi = certified_G(model, t, hi, tol=sum_tol)
    n_expand = 0
    while _g_side(g_hi, boundary_tol) == "above":
        step *= 2.0
        hi = p_floor + step
        n_expand += 1
        if n_expand > 60:
            raise ConvergenceError("could not bracket the pressure root from above")
        g_hi = certified_G(model, t, hi, tol=sum_tol)

    lo = p_floor
    iterations = 0
    g_mid = g_hi
    while hi - lo > tol and iterations < 200:
        mid = 0.5 * (lo + hi)
        g_mid = certified_G(model, t, mid, tol=sum_tol)
        side = _g_side(g_mid, boundary_tol)
        if side == "above":
            lo = mid
        elif side == "below":
            hi = mid
        elif side == "boundary":
            lo = max(lo, mid - 0.25 * tol)
            hi = min(hi, mid + 0.25 * tol)
            break
        else:
            g_mid = certified_G(model, t, mid, tol=sum_tol / 16.0)
            side = _g_side(g_mid, boundary_tol)
            if side == "above":
                lo = mid
            elif side == "below":
                hi = mid
            else:
                lo = max(lo, mid - 0.25 * tol)
                hi = min(hi, mid + 0.25 * tol)
                break
        iterations += 1
    p = 0.5 * (lo + hi)
    return PressureRoot(t, p, lo, hi, False, certified_G(model, t, p, tol=sum_tol),
                        iterations)


POSITIVE_RECURRENT = "positive-recurrent"
NULL_RECURRENT = "null-recurrent"
TRANSIENT = "transient"


@dataclass(frozen=True)
class RecurrenceClass:
    kind: str
    G: CertifiedSum
    H: CertifiedSum | None  # expected return time; None for transient
    root: PressureRoot

    def __str__(self) -> str:
        return self.kind


def classify(model: RenewalModel, t: float, root: PressureRoot | None = None,
             sum_tol: float = DEFAULT_SUM_TOL) -> RecurrenceClass:
    """Sarig-style trichotomy computed from certified G and H enclosures.

    Transient iff G at the solved pressure is certified < 1 (only possible on
    the floor).  Otherwise G = 1 within tolerance and the class is positive
    or null recurrent according to the certified finiteness of H.
    """
    if root is None:
        root = solve_pressure(model, t, sum_tol=sum_tol)
    g = root.G
    if root.at_floor and g.upper < 1.0:
        return RecurrenceClass(TRANSIENT, g, None, root)
    h = certified_series(model, t, root.pressure, n_weight=1, tol=sum_tol)
    kind = NULL_RECURRENT if h.divergent else POSITIVE_RECURRENT
    return RecurrenceClass(kind, g, h, root)


@dataclass(frozen=True)
class Derivative:
    kind: str  # analytic | one-sided | zero-limit | flat
    value: float
    enclosure: tuple[float, float]
    tau_mean: CertifiedSum | None

    def __float__(self) -> float:
        return self.value


def _ratio_at(model: RenewalModel, t: float, p: float, sum_tol: float):
    num = certified_series(model, t, p, s_weight=True, tol=sum_tol)
    den = certified_series(model, t, p, n_weight=1, tol=sum_tol)
    return iv_div_pos((num.lower, num.upper), (den.lower, den.upper)), den


def pressure_derivative(model: RenewalModel, t: float, root: PressureRoot | None = None,
                        sum_tol: float = DEFAULT_SUM_TOL) -> Derivative:
    """dp/dt via the induced weights w_n = m_n exp(t s_n - n p).

    On the analytic branch this is (sum s_n w_n) / (sum n w_n) exactly; in
    flat interior it is 0; at a recurrent floor point it is the one-sided
    slope, or a zero-limit flag when the return time diverges (the C^1 case).
    """
    if root is None:
        root = solve_pressure(model, t, sum_tol=sum_tol)
    if root.at_floor:
        if root.G.upper < 1.0:
            return Derivative("flat", 0.0, (0.0, 0.0), None)
        h = certified_series(model, t, root.pressure, n_weight=1, tol=sum_tol)
        if h.divergent:
            return Derivative("zero-limit", 0.0, (0.0, 0.0), h)
        ratio, h = _ratio_at(model, t, root.pressure, sum_tol)
        return Derivative("one-sided", 0.5 * (ratio[0] + ratio[1]), ratio, h)
    r_mid, h = _ratio_at(model, t, root.pressure, sum_tol)
    r_hi, _ = _ratio_at(model, t, root.hi, sum_tol)
    pad = abs(0.5 * (r_hi[0] + r_hi[1]) - 0.5 * (r_mid[0] + r_mid[1]))
    enclosure = (min(r_mid[0], r_hi[0]) - pad, max(r_mid[1], r_hi[1]) + pad)
    return Derivative("analytic", 0.5 * (enclosure[0] + enclosure[1]), enclosure, h)


@dataclass(frozen=True)
class FlatInterval:
    t_start: float
    start_bracket: tuple[float, float]
    t_end: float  # math.inf when the flat region runs past the search bracket
    end_bracket: tuple[float, float] | None

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.t_end)


def _floor_status(model: RenewalModel, t: float, sum_tol: float) -> int:
    """+1 outside the flat set (G > 1), -1 inside (G <= 1), 0 at the boundary."""
    g = certified_G(model, t, model.bad_set_pressure(t), tol=sum_tol)
    side = _g_side(g, max(8.0 * sum_tol, 1e-12))
    if side == "above":
        return 1
    if side == "below":
        return -1
    if side == "boundary":
        return 0
    raise IndeterminateError(f"flat-boundary test indeterminate at t={t}")


def _floor_g_mid(model: RenewalModel, t: float, sum_tol: float) -> float:
    g = certified_G(model, t, model.bad_set_pressure(t), tol=sum_tol)
    return g.midpoint if not g.divergent else INF


def locate_flat_interval(model: RenewalModel, bracket: tuple[float, float],
                         tol: float = 1e-8,
                         sum_tol: float = DEFAULT_SUM_TOL) -> FlatInterval | None:
    """Boundaries of {t : pressure sticks at the floor} inside the bracket.

    The flat set is an interval because G(t, p_B) is convex in t for an
    affine floor.  Returns None when no interior point of the bracket is
    certified flat.  A right boundary beyond the bracket is reported as inf.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not t_lo < t_hi:
        raise ValueError("bracket must satisfy t_lo < t_hi")
    s_lo = _floor_status(model, t_lo, sum_tol)
    s_hi = _floor_status(model, t_hi, sum_tol)

    witness = None
    if s_lo <= 0:
        witness = t_lo
    elif s_hi <= 0:
        witness = t_hi
    else:
        a, b = t_lo, t_hi
        for _ in range(200):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if _floor_g_mid(model, m1, sum_tol) <= _floor_g_mid(model, m2, sum_tol):
                b = m2
            else:
                a = m1
            if b - a < max(tol, 1e-12):
                break
        cand = 0.5 * (a + b)
        if _floor_status(model, cand, sum_tol) <= 0:
            witness = cand
        else:
            return None

    if s_lo > 0:
        a, b = t_lo, witness  # a outside, b inside
        while b - a > tol:
            mid = 0.5 * (a + b)
            if _floor_status(model, mid, sum_tol) > 0:
                a = mid
            else:
                b = mid
        t_start, start_br = b, (a, b)
    else:
        t_start, start_br = t_lo, (t_lo, t_lo)

    if s_hi > 0:
        a, b = witness, t_hi  # a inside, b outside
        while b - a > tol:
            mid = 0.5 * (a + b)
            if _floor_status(model, mid, sum_tol) > 0:
                b = mid
            else:
                a = mid
        return FlatInterval(t_start, start_br, a, (a, b))
    return FlatInterval(t_start, start_br, INF, None)


FIRST_ORDER = "first-order"
C1 = "C1"


@dataclass(frozen=True)
class SmoothnessVerdict:
    kind: str  # first-order | C1
    tau_mean: CertifiedSum
    one_sided_slope: tuple[float, float] | None


def smoothness_at_transition(model: RenewalModel, t_star: float,
                             sum_tol: float = DEFAULT_SUM_TOL) -> SmoothnessVerdict:
    """First-order (kink) versus C^1 at a flat boundary point.

    The verdict is the certified finiteness of the expected return time at
    (t_star, floor): finite return time forces a nonzero one-sided slope
    against the flat side's zero slope; divergence makes the slope limit 0.
    """
    p = model.bad_set_pressure(t_star)
    h = certified_series(model, t_star, p, n_weight=1, tol=sum_tol)
    if h.divergent:
        return SmoothnessVerdict(C1, h, None)
    ratio, _ = _ratio_at(model, t_star, p, sum_tol)
    return SmoothnessVerdict(FIRST_ORDER, h, ratio)


@dataclass(frozen=True)
class AtomReport:
    levels: np.ndarray
    level_masses: np.ndarray
    atom: tuple[float, float]          # raw enclosure of 1 - sum of level masses
    atom_clamped: tuple[float, float]  # clamped to [0, 1]
    verdict: str                       # dissipative | no-atom | conservative-boundary
    preimage_mass: tuple[float, float]  # atom * exp(t*s_1)


def conformal_atom_masses(model: RenewalModel, t: float, n_levels: int = 64,
                          sum_tol: float = DEFAULT_SUM_TOL) -> AtomReport:
    """Level masses of the floor-normalized conformal measure and its atom.

    The level-n mass is m_n exp(t s_n - n p_B(t)); the bad-set atom is the
    deficit 1 - sum.  A certified positive atom witnesses dissipativity; a
    certified negative deficit means no atom; an enclosure straddling zero at
    width <= tolerance reports the conservative boundary, otherwise the
    result is indeterminate.
    """
    p = model.bad_set_pressure(t)
    total = certified_G(model, t, p, tol=sum_tol)
    if total.divergent:
        raw = (-INF, 1.0 - total.lower)
    else:
        raw = (1.0 - total.upper, 1.0 - total.lower)
    if raw[1] <= 0.0:
        verdict = "no-atom"
    elif raw[0] > 0.0:
        verdict = "dissipative"
    elif raw[1] - raw[0] <= max(64.0 * sum_tol, 1e-10):
        verdict = "conservative-boundary"
    else:
        raise IndeterminateError(
            f"atom enclosure [{raw[0]:.3e}, {raw[1]:.3e}] straddles 0 too widely")
    clamped = (min(max(raw[0], 0.0), 1.0), min(max(raw[1], 0.0), 1.0))
    ns = np.arange(1, n_levels + 1, dtype=np.int64)
    masses = np.exp(model.log_mult(ns) + t * model.s_values(ns) - ns * p)
    s1 = float(model.s_values(np.array([1]))[0])
    factor = math.exp(t * s1)
    return AtomReport(ns, masses, raw, clamped, verdict,
                      (clamped[0] * factor, clamped[1] * factor))


@dataclass(frozen=True)
class WitnessReport:
    u0: float
    u0_enclosure: tuple[float, float]
    transient: bool
    pressure: float
    delta_half: float | None    # pressure change after adding u0/2 per return
    delta_double: float | None  # pressure change after adding 2*u0 per return


def cyr_sarig_witness(model: RenewalModel, t: float, root: PressureRoot | None = None,
                      verify: bool = True, tol: float = DEFAULT_ROOT_TOL,
                      sum_tol: float = DEFAULT_SUM_TOL) -> WitnessReport:
    """Size of the base-cylinder bonus that starts raising the pressure.

    Adding u per first return multiplies G by e^u, so the critical bonus is
    u0 = -log G(t, p(t)): zero for recurrent parameters and strictly positive
    exactly on the transient set.  With verify=True the shifted models at
    u0/2 and 2*u0 are re-solved to confirm constancy below and strict
    increase above the threshold.
    """
    if root is None:
        root = solve_pressure(model, t, tol=tol, sum_tol=sum_tol)
    g = root.G
    enclosure = (-math.log(g.upper), -math.log(g.lower))
    transient = root.at_floor and g.upper < 1.0
    u0 = 0.5 * (enclosure[0] + enclosure[1]) if transient else 0.0
    delta_half = delta_double = None
    if verify and transient:
        half = solve_pressure(model.with_log_weight_shift(0.5 * u0), t,
                              tol=tol, sum_tol=sum_tol)
        double = solve_pressure(model.with_log_weight_shift(2.0 * u0), t,
                                tol=tol, sum_tol=sum_tol)
        delta_half = half.pressure - root.pressure
        delta_double = double.pressure - root.pressure
    return WitnessReport(u0, enclosure, transient, root.pressure,
                         delta_half, delta_double)


@dataclass(frozen=True)
class WeightsReport:
    levels: np.ndarray
    level_weights: np.ndarray          # w_n = m_n exp(t s_n - n p)
    per_cylinder_weights: np.ndarray   # w_n / m_n
    raw_total: CertifiedSum            # G at the solved pressure (1 when recurrent)
    tau_mean: CertifiedSum             # sum n w_n, possibly divergent
    shifted_integral: tuple[float, float] | None  # int (t*Phi - tau*p), None = -inf


def induced_equilibrium_weights(model: RenewalModel, t: float, n_levels: int = 64,
                                sum_tol: float = DEFAULT_SUM_TOL) -> WeightsReport:
    """Equilibrium weights of the induced full shift at a recurrent parameter.

    Raises ValueError on transient input.  The per-level weight w_n sums to 1
    by G = 1; each of the m_n cylinders at level n carries w_n / m_n.  The
    report includes the mean return time and the integral of the
    pressure-shifted induced potential (flagged -inf when the return time
    diverges while the pressure is positive).
    """
    cls = classify(model, t, sum_tol=sum_tol)
    if cls.kind == TRANSIENT:
        raise ValueError("equilibrium weights are undefined for a transient parameter")
    p = cls.root.pressure
    ns = np.arange(1, n_levels + 1, dtype=np.int64)
    w = np.exp(model.log_mult(ns) + t * model.s_values(ns) - ns * p)
    per_cyl = np.exp(t * model.s_values(ns) - ns * p)
    h = cls.H
    if h is not None and not h.divergent:
        num = certified_series(model, t, p, s_weight=True, tol=sum_tol)
        integral = iv_add(iv_scale(t, (num.lower, num.upper)),
                          iv_scale(-p, (h.lower, h.upper)))
    elif p == 0.0:
        num = certified_series(model, t, p, s_weight=True, tol=sum_tol)
        integral = iv_scale(t, (num.lower, num.upper))
    else:
        integral = None  # diverges to -inf
    return WeightsReport(ns, w, per_cyl, cls.G, h, integral)


@dataclass(frozen=True)
class PressureCurve:
    """Pressure, classes and derivatives over a t grid, plus transitions."""

    t: np.ndarray
    p: np.ndarray
    classes: list
    derivatives: np.ndarray
    derivative_kinds: list
    G_values: np.ndarray          # G at the solved pressure (1 on recurrent set)
    enclosure_widths: np.ndarray  # widths of the pressure-root brackets
    transitions: list             # dicts: t, kind, smoothness, bracket
    warnings: list

    def rows(self):
        for i in range(len(self.t)):
            yield (float(self.t[i]), float(self.p[i]), self.classes[i],
                   float(self.derivatives[i]), float(self.G_values[i]),
                   float(self.enclosure_widths[i]))


def _curve_point(model, t, root_tol, sum_tol):
    root = solve_pressure(model, t, tol=root_tol, sum_tol=sum_tol)
    cls = classify(model, t, root=root, sum_tol=sum_tol)
    der = pressure_derivative(model, t, root=root, sum_tol=sum_tol)
    g = root.G.midpoint if not root.G.divergent else INF
    return root, cls, der, g


def pressure_curve(model: RenewalModel, t_grid, root_tol: float = DEFAULT_ROOT_TOL,
                   sum_tol: float = DEFAULT_SUM_TOL, with_transitions: bool = True,
                   map_fn=map) -> PressureCurve:
    """Solve, classify and differentiate across a grid; locate transitions.

    `map_fn` may be a thread pool's map; points are independent and results
    are merged in grid order.  Floor domination and convexity of the solved
    curve are validated before returning.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if len(ts) < 1:
        raise ValueError("empty t grid")
    results = list(map_fn(lambda t: _curve_point(model, float(t), root_tol, sum_tol), ts))
    p = np.array([r[0].pressure for r in results])
    widths = np.array([r[0].width for r in results])
    classes = [r[1].kind for r in results]
    ders = np.array([r[2].value for r in results])
    der_kinds = [r[2].kind for r in results]
    gs = np.array([r[3] for r in results])

    warnings: list[str] = []
    floor = np.array([model.bad_set_pressure(float(t)) for t in ts])
    if np.any(p < floor - 1e-12):
        raise ArithmeticError("solved pressure dipped below the floor")
    if len(ts) >= 3:
        slopes = np.diff(p) / np.diff(ts)
        worst = float(np.min(np.diff(slopes))) if len(slopes) > 1 else 0.0
        if worst < -1e-9:
            raise ArithmeticError(f"pressure curve failed convexity check ({worst:.2e})")

    transitions: list[dict] = []
    if with_transitions and len(ts) >= 2:
        flat = locate_flat_interval(model, (float(ts[0]), float(ts[-1])),
                                    tol=max(root_tol, 1e-9), sum_tol=sum_tol)
        if flat is not None:
            v_start = smoothness_at_transition(model, flat.t_start, sum_tol=sum_tol)
            transitions.append({"t": flat.t_start, "kind": "onset-of-flat",
                                "smoothness": v_start.kind,
                                "bracket": flat.start_bracket})
            if not flat.unbounded:
                v_end = smoothness_at_transition(model, flat.t_end, sum_tol=sum_tol)
                transitions.append({"t": flat.t_end, "kind": "end-of-flat",
                                    "smoothness": v_end.kind,
                                    "bracket": flat.end_bracket})
                if v_start.kind == FIRST_ORDER and v_end.kind == C1:
                    warnings.append(
                        "endpoint smoothness violates the finite-return-time "
                        "monotonicity; numerical inconsistency")
                elif v_start.kind != v_end.kind:
                    warnings.append(
                        "flat-interval endpoints have different smoothness "
                        f"({v_start.kind} at onset, {v_end.kind} at end)")
    return PressureCurve(ts, p, classes, ders, der_kinds, gs, widths,
                         transitions, warnings)


def renewal_zn(model: RenewalModel, t: float, n_max: int) -> np.ndarray:
    """Partition sums through the base via the renewal convolution.

    Z_n = sum over compositions n_1 + ... + n_k = n of prod m_i exp(t s_i),
    computed by the recursion Z_n = sum_j v_j Z_{n-j}.  Index 0 of the
    returned array is Z_1.
    """
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    v = np.exp(model.log_mult(ns) + t * model.s_values(ns))
    z = np.zeros(n_max + 1)
    z[0] = 1.0
    for n in range(1, n_max + 1):
        z[n] = float(v[:n][::-1] @ z[:n])
    return z[1:]


def finite_truncation(model: RenewalModel, t: float, n_max: int):
    """Realize loops of length <= n_max as a finite Markov shift.

    One base vertex with a self-loop (level 1) plus a chain of n-1 vertices
    per level n >= 2; the level weight m_n exp(t s_n) sits on the first chain
    vertex as a depth-1 potential value (the base carries level 1's weight).
    The Perron root of the result solves the truncated renewal equation, so
    its pressure increases to the engine's root as n_max grows.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    log_w = model.log_mult(ns) + t * model.s_values(ns)
    n_vertices = 1 + int(np.sum(ns[1:] - 1))
    rows, cols = [0], [0]  # base self-loop = level 1
    phi = np.zeros(n_vertices)
    phi[0] = log_w[0]
    nxt = 1
    for n in range(2, n_max + 1):
        first = nxt
        chain = list(range(first, first + n - 1))
        nxt = first + n - 1
        rows.append(0)
        cols.append(chain[0])
        for a, b in zip(chain, chain[1:]):
            rows.append(a)
            cols.append(b)
        rows.append(chain[-1])
        cols.append(0)
        phi[chain[0]] = log_w[n - 1] - log_w[0]
    data = np.ones(len(rows), dtype=np.int8)
    trans = sp.csr_matrix((data, (rows, cols)), shape=(n_vertices, n_vertices))
    shift = FiniteShift(n_vertices, trans)
    potential = LocallyConstantPotential(1, {(i,): float(phi[i]) for i in range(n_vertices)})
    return shift, potential
