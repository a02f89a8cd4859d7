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
from .shifts import FiniteShift, LocallyConstantPotential, SymbolValues

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

    # exponent of the heaviest tail term: n^n_weight * w, or for s*w the
    # envelope's slope*n*w (log(n)*w, one order lighter, when the slope is 0)
    a_top = a_w + (float(e.slope != 0.0) if s_weight else n_weight)
    if rho > 0 or (rho == 0.0 and a_top >= -1.0):
        if s_weight:  # callers establish convergence before asking for sum s*w
            raise ValueError("s-weighted series requested in a divergent regime")
        ns = np.arange(1, 65, dtype=np.int64)
        logw = model.log_mult(ns) + t * s_head[:64] - ns * p
        partial = float(np.sum(ns ** n_weight * np.exp(np.minimum(logw, 690.0))))
        return CertifiedSum(partial, INF, 64, "divergent")

    while True:
        ns = np.arange(1, m + 1, dtype=np.int64)
        sv = model.s_table(m)
        with np.errstate(over="ignore"):  # an overflow shows as an inf partial sum
            w = np.exp(model.log_mult(ns) + t * sv - ns * p)
        if s_weight:
            partial = float(np.sum(sv * w))
            fp_slack = 1e-14 * float(np.sum(np.abs(sv) * w)) + 1e-300
            t0 = _weight_tail(tail_power_exp, a_w, rho, m + 1, c_lo, c_up)
            tl = _weight_tail(tail_log_power_exp, a_w, rho, m + 1, c_lo, c_up)
            tail = iv_scale(e.offset, t0)
            if e.slope != 0.0:
                t1 = _weight_tail(tail_power_exp, a_w + 1.0, rho, m + 1, c_lo, c_up)
                tail = iv_add(iv_scale(e.slope, t1), tail)
            tail = iv_add(tail, iv_scale(-e.log_coeff, tl))
            tail = iv_add(tail, (-e.eps * t0[1], e.eps * t0[1]))
        else:
            partial = float(np.sum(ns ** n_weight * w))
            fp_slack = 1e-14 * partial + 1e-300
            tail = _weight_tail(tail_power_exp, a_w + n_weight, rho, m + 1, c_lo, c_up)
        lower = partial + tail[0] - fp_slack
        upper = partial + tail[1] + fp_slack
        width = upper - lower
        if width <= tol * (1.0 + min(abs(lower), abs(upper))):
            return CertifiedSum(lower, upper, int(m), "euler-maclaurin")
        if m >= cap:  # still an enclosure, but wider than tol
            return CertifiedSum(lower, upper, int(m), "capped")
        m *= 2


def _weight_tail(tail, a: float, rho: float, m_from: int, c_lo: float, c_up: float):
    lo, hi = tail(a, rho, m_from)
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

    @property
    def transient(self) -> bool:
        """G certified below 1 at the floor: the first-return weights leak mass."""
        return self.at_floor and self.G.upper < 1.0


def _g_side(g: CertifiedSum, boundary_tol: float) -> str:
    """'above' / 'below' / 'boundary' of G relative to 1."""
    if g.lower > 1.0:
        return "above"
    if g.upper < 1.0:
        return "below"
    if g.width <= boundary_tol:
        return "boundary"
    return "wide"


def _on_floor(model: RenewalModel, t: float, sum_tol: float) -> tuple[bool, CertifiedSum]:
    """Whether the pressure at t is the floor p_B(t), with the G(t, p_B) read there.

    On the floor means G(t, p_B) certified below 1 or pinned to 1 within the
    boundary tolerance; an enclosure straddling 1 more widely is indeterminate.
    """
    g = certified_G(model, t, model.bad_set_pressure(t), tol=sum_tol)
    side = _g_side(g, max(8.0 * sum_tol, 1e-12))
    if side == "wide":
        raise IndeterminateError(
            f"G(t={t}, p_B) = [{g.lower}, {g.upper}] straddles 1 "
            "with width above tolerance; tighten sum_tol")
    return side != "above", g


def solve_pressure(model: RenewalModel, t: float, tol: float = DEFAULT_ROOT_TOL,
                   sum_tol: float = DEFAULT_SUM_TOL) -> PressureRoot:
    """Pressure of t*phi: the floor p_B(t), or the root of G(t, .) = 1 above it.

    G is strictly decreasing in p, so bisection with certified comparisons
    against 1 gives an enclosure of width <= tol (or the width at which the
    G enclosure itself pins the root).
    """
    p_floor = model.bad_set_pressure(t)
    at_floor, g_floor = _on_floor(model, t, sum_tol)
    if at_floor:
        return PressureRoot(t, p_floor, p_floor, p_floor, True, g_floor)

    boundary_tol = max(8.0 * sum_tol, 1e-12)
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
        if side == "wide":
            g_mid = certified_G(model, t, mid, tol=sum_tol / 16.0)
            side = _g_side(g_mid, boundary_tol)
        if side == "above":
            lo = mid
        elif side == "below":
            hi = mid
        else:  # boundary, or still wide at the tighter tolerance
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
NON_UNIQUE = "non-unique-equilibrium"  # curve label where equilibria tie


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
    if root.transient:
        return RecurrenceClass(TRANSIENT, root.G, None, root)
    h = certified_series(model, t, root.pressure, n_weight=1, tol=sum_tol)
    kind = NULL_RECURRENT if h.divergent else POSITIVE_RECURRENT
    return RecurrenceClass(kind, root.G, h, root)


@dataclass(frozen=True)
class Derivative:
    kind: str  # analytic | one-sided | zero-limit | flat
    value: float
    enclosure: tuple[float, float]
    recurrence: RecurrenceClass  # the class the derivative's branch was read from

    def __float__(self) -> float:
        return self.value


def _slope(model: RenewalModel, t: float, p: float, h: CertifiedSum, sum_tol: float):
    """Enclosure of (sum s_n w_n) / H at (t, p), given the enclosure h of H there."""
    num = certified_series(model, t, p, s_weight=True, tol=sum_tol)
    return iv_div_pos((num.lower, num.upper), (h.lower, h.upper))


def pressure_derivative(model: RenewalModel, t: float, root: PressureRoot | None = None,
                        sum_tol: float = DEFAULT_SUM_TOL) -> Derivative:
    """dp/dt via the induced weights w_n = m_n exp(t s_n - n p).

    The branch is read off the recurrence class at t.  On the analytic branch
    this is (sum s_n w_n) / (sum n w_n) exactly; in flat interior (transient)
    it is 0; at a recurrent floor point it is the one-sided slope, or a
    zero-limit flag when the return time diverges (the C^1 case).
    """
    cls = classify(model, t, root=root, sum_tol=sum_tol)
    root, h = cls.root, cls.H
    if cls.kind == TRANSIENT:
        return Derivative("flat", 0.0, (0.0, 0.0), cls)
    if root.at_floor:
        if h.divergent:
            return Derivative("zero-limit", 0.0, (0.0, 0.0), cls)
        ratio = _slope(model, t, root.pressure, h, sum_tol)
        return Derivative("one-sided", 0.5 * (ratio[0] + ratio[1]), ratio, cls)
    r_mid = _slope(model, t, root.pressure, h, sum_tol)
    h_hi = certified_series(model, t, root.hi, n_weight=1, tol=sum_tol)
    r_hi = _slope(model, t, root.hi, h_hi, sum_tol)
    pad = abs(0.5 * (r_hi[0] + r_hi[1]) - 0.5 * (r_mid[0] + r_mid[1]))
    enclosure = (min(r_mid[0], r_hi[0]) - pad, max(r_mid[1], r_hi[1]) + pad)
    return Derivative("analytic", 0.5 * (enclosure[0] + enclosure[1]), enclosure, cls)


@dataclass(frozen=True)
class FlatInterval:
    t_start: float  # -math.inf when the flat set runs past the left end of the bracket
    start_bracket: tuple[float, float] | None
    t_end: float  # math.inf when the flat set runs past the right end of the bracket
    end_bracket: tuple[float, float] | None

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.t_end)


def _floor_g_mid(model: RenewalModel, t: float, sum_tol: float) -> float:
    g = certified_G(model, t, model.bad_set_pressure(t), tol=sum_tol)
    return g.midpoint if not g.divergent else INF


def _flat_boundary(model: RenewalModel, flat: float, off: float, tol: float,
                   sum_tol: float) -> tuple[float, tuple[float, float]]:
    """Bisect between a flat t and an off-floor t: the flat end and the sorted bracket."""
    while abs(off - flat) > tol:
        mid = 0.5 * (flat + off)
        if _on_floor(model, mid, sum_tol)[0]:
            flat = mid
        else:
            off = mid
    return flat, (min(flat, off), max(flat, off))


def locate_flat_interval(model: RenewalModel, bracket: tuple[float, float],
                         tol: float = 1e-8,
                         sum_tol: float = DEFAULT_SUM_TOL) -> FlatInterval | None:
    """Boundaries of {t : pressure sticks at the floor} inside the bracket.

    The flat set is an interval because G(t, p_B) is convex in t for an
    affine floor.  None when neither end of the bracket nor the minimizer of
    G(t, p_B) on it is certified flat.  A boundary inside the bracket is the
    flat end of its bisection bracket (width <= tol); a flat set running past
    the left or right end gives t_start = -inf or t_end = inf and no bracket.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not t_lo < t_hi:
        raise ValueError("bracket must satisfy t_lo < t_hi")
    flat_lo = _on_floor(model, t_lo, sum_tol)[0]
    flat_hi = _on_floor(model, t_hi, sum_tol)[0]

    if flat_lo:
        witness = t_lo
    elif flat_hi:
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
        witness = 0.5 * (a + b)
        if not _on_floor(model, witness, sum_tol)[0]:
            return None

    start = (-INF, None) if flat_lo else _flat_boundary(model, witness, t_lo, tol, sum_tol)
    end = (INF, None) if flat_hi else _flat_boundary(model, witness, t_hi, tol, sum_tol)
    return FlatInterval(*start, *end)


FIRST_ORDER = "first-order"
C1 = "C1"
ONSET_OF_FLAT = "onset-of-flat"
END_OF_FLAT = "end-of-flat"


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
    return SmoothnessVerdict(FIRST_ORDER, h, _slope(model, t_star, p, h, sum_tol))


def flat_transitions(model: RenewalModel, bracket: tuple[float, float],
                     tol: float = 1e-8, sum_tol: float = DEFAULT_SUM_TOL) -> list[dict] | None:
    """The flat interval's boundaries inside the bracket, each with its smoothness.

    Entries (t, kind, bracket, smoothness): an "onset-of-flat" entry when the
    flat interval starts inside the bracket, then an "end-of-flat" entry when
    it ends inside it.  None when no point of the bracket is found flat (see
    locate_flat_interval); an empty list when the whole bracket is flat.
    """
    flat = locate_flat_interval(model, bracket, tol=tol, sum_tol=sum_tol)
    if flat is None:
        return None
    ends = [(ONSET_OF_FLAT, flat.t_start, flat.start_bracket),
            (END_OF_FLAT, flat.t_end, flat.end_bracket)]
    return [{"t": t, "kind": kind, "bracket": br,
             "smoothness": smoothness_at_transition(model, t, sum_tol=sum_tol).kind}
            for kind, t, br in ends if br is not None]


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


def cyr_sarig_witness(model: RenewalModel, t: float, verify: bool = True,
                      tol: float = DEFAULT_ROOT_TOL,
                      sum_tol: float = DEFAULT_SUM_TOL) -> WitnessReport:
    """Size of the base-cylinder bonus that starts raising the pressure.

    Adding u per first return multiplies G by e^u, so the critical bonus is
    u0 = -log G(t, p(t)): zero for recurrent parameters and strictly positive
    exactly on the transient set.  With verify=True the shifted models at
    u0/2 and 2*u0 are re-solved to confirm constancy below and strict
    increase above the threshold.
    """
    root = solve_pressure(model, t, tol=tol, sum_tol=sum_tol)
    enclosure = (-math.log(root.G.upper), -math.log(root.G.lower))
    u0 = 0.5 * (enclosure[0] + enclosure[1]) if root.transient else 0.0
    delta_half = delta_double = None
    if verify and root.transient:
        delta_half, delta_double = (
            solve_pressure(model.with_log_weight_shift(k * u0), t, tol=tol,
                           sum_tol=sum_tol).pressure - root.pressure for k in (0.5, 2.0))
    return WitnessReport(u0, enclosure, root.transient, root.pressure,
                         delta_half, delta_double)


@dataclass(frozen=True)
class PressureCurve:
    """Pressure, classes and derivatives over a t grid, plus transitions.

    Every curve function of the package (renewal, finite shift, Chebyshev)
    returns one.
    """

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


def check_curve(ts: np.ndarray, ps: np.ndarray, floor: np.ndarray | None = None) -> None:
    """Floor domination and convexity, which every solved pressure curve must show."""
    if floor is not None and np.any(ps < floor - 1e-12):
        raise ArithmeticError("solved pressure dipped below the floor")
    if len(ts) >= 3:
        worst = float(np.min(np.diff(np.diff(ps) / np.diff(ts))))
        if worst < -1e-9:
            raise ArithmeticError(f"pressure curve failed convexity check ({worst:.2e})")


def _curve_point(model, t, root_tol, sum_tol) -> Derivative:
    root = solve_pressure(model, t, tol=root_tol, sum_tol=sum_tol)
    return pressure_derivative(model, t, root=root, sum_tol=sum_tol)


def pressure_curve(model: RenewalModel, t_grid, root_tol: float = DEFAULT_ROOT_TOL,
                   sum_tol: float = DEFAULT_SUM_TOL) -> PressureCurve:
    """Solve, classify and differentiate across a grid; locate transitions.

    Floor domination and convexity of the solved curve are validated before
    returning.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if len(ts) < 1:
        raise ValueError("empty t grid")
    ders = [_curve_point(model, float(t), root_tol, sum_tol) for t in ts]
    roots = [d.recurrence.root for d in ders]
    p = np.array([r.pressure for r in roots])
    widths = np.array([r.width for r in roots])
    gs = np.array([r.G.midpoint if not r.G.divergent else INF for r in roots])
    classes = [d.recurrence.kind for d in ders]
    check_curve(ts, p, np.array([model.bad_set_pressure(float(t)) for t in ts]))

    transitions: list[dict] = []
    warnings: list[str] = []
    if len(ts) >= 2:
        transitions = flat_transitions(model, (float(ts[0]), float(ts[-1])),
                                       tol=max(root_tol, 1e-9), sum_tol=sum_tol) or []
    if len(transitions) == 2:
        start, end = (tr["smoothness"] for tr in transitions)
        if start == FIRST_ORDER and end == C1:
            warnings.append("endpoint smoothness violates the finite-return-time "
                            "monotonicity; numerical inconsistency")
        elif start != end:
            warnings.append("flat-interval endpoints have different smoothness "
                            f"({start} at onset, {end} at end)")
    return PressureCurve(ts, p, classes, np.array([d.value for d in ders]),
                         [d.kind for d in ders], gs, widths, transitions, warnings)


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
    # level n's chain of n - 1 vertices runs from first[n - 2] to last[n - 2]
    first = 1 + np.concatenate([[0], np.cumsum(ns[1:-1] - 1)])
    last = first + ns[1:] - 2
    chain = np.arange(1, n_vertices)
    succ = chain + 1
    succ[last - 1] = 0  # each chain returns to the base
    shift = FiniteShift.from_edges(
        n_vertices, np.concatenate([np.zeros(n_max, dtype=np.int64), chain]),
        np.concatenate([[0], first, succ]))  # base self-loop = level 1
    phi = np.zeros(n_vertices)
    phi[0] = log_w[0]
    phi[first] = log_w[1:] - log_w[0]
    potential = LocallyConstantPotential(1, SymbolValues(phi))
    return shift, potential
