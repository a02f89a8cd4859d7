"""Transfer operators on finite Markov shifts and their Perron data.

States are admissible level-k cylinders.  With column C (source) and row C'
(target, C' follows C under the shift), the matrix entry is exp(phi(C)).
Then T h = lambda h recovers the density h, m T = lambda m the conformal
weights m, lambda = e^P, and trace(T^n) equals the period-n orbit sum of
exp of the Birkhoff sums.

A matrix is three numpy arrays, rows, cols and vals, in CSR order (by row,
then column).  T x is np.bincount(rows, weights=vals * x[cols]), which adds
each row's products in column order starting from zero, as a CSR product
does; x T is the same call on the entries reordered by column.  Components
come from breadth-first levels (shifts.bfs_levels).  The power iteration
runs on T^d, with d the lcm of the periods of the cycle-carrying classes of
T's nonzero graph, so the diagonal blocks of T^d are primitive; on a
periodic component they share the root lambda^d (Seneta 1981, Ch. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import ConvergenceError, NotMixingError
from .renewal import NON_UNIQUE, POSITIVE_RECURRENT, PressureCurve, check_curve
from .shifts import (DENSE_LIMIT, FiniteShift, LocallyConstantPotential,
                     SymbolValues, enumerate_admissible_words, is_admissible,
                     is_topologically_mixing, cyclic_classes, strong_period)

POWER_STEPS = 10 ** 6  # power-iteration cap of solve_rpf and decompose_components


@dataclass(frozen=True)
class TransferMatrix:
    size: int  # number of states
    rows: np.ndarray  # target state of each entry, entries in CSR order
    cols: np.ndarray  # source state
    vals: np.ndarray  # exp(phi(source))
    shift: FiniteShift
    potential: LocallyConstantPotential
    words: list | None = None  # the states past depth 1

    @cached_property
    def states(self) -> list:
        """Admissible words of the potential's depth, built on first use at depth 1."""
        return self.words or [(i,) for i in range(self.size)]

    @cached_property
    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    def dense(self) -> np.ndarray:
        """The (size, size) float matrix; refused above DENSE_LIMIT states."""
        if self.size > DENSE_LIMIT:
            raise ValueError(f"dense transfer matrix refused for {self.size} > "
                             f"{DENSE_LIMIT} states")
        out = np.zeros((self.size, self.size))
        out[self.rows, self.cols] = self.vals
        return out

    def trace_power(self, n: int) -> float:
        return float(np.trace(np.linalg.matrix_power(self.dense(), n)))


def build_transfer_matrix(shift: FiniteShift,
                          potential: LocallyConstantPotential) -> TransferMatrix:
    """Weighted cylinder-transition matrix for the given potential; its states
    are the admissible words of the potential's depth."""
    k = potential.depth
    if k == 1:
        # fast path: states are the symbols themselves
        m = shift.alphabet_size
        values = potential.values
        if isinstance(values, SymbolValues) and len(values) >= m:
            phi = values.array[:m]
        else:
            phi = np.array([potential((i,)) for i in range(m)], dtype=float)
        with np.errstate(over="raise"):  # as math.exp on the deeper path
            weights = np.exp(phi)
        src, dst = shift.edges()
        by_target = np.argsort(dst, kind="stable")  # sources stay sorted within a target
        src, dst = src[by_target], dst[by_target]
        return TransferMatrix(m, dst, src, weights[src], shift, potential)

    states = enumerate_admissible_words(shift, k)
    index = {w: i for i, w in enumerate(states)}
    rows, cols, vals = [], [], []
    for ci, w in enumerate(states):
        weight = math.exp(potential(w))
        for j in shift.successors(w[-1]):  # w[1:] + (j,) is admissible, so a state
            rows.append(index[w[1:] + (int(j),)])
            cols.append(ci)
            vals.append(weight)
    rows = np.array(rows, dtype=np.int64)
    by_row = np.argsort(rows, kind="stable")  # cols were appended in increasing order
    return TransferMatrix(len(states), rows[by_row], np.array(cols, dtype=np.int64)[by_row],
                          np.array(vals, dtype=float)[by_row], shift, potential, states)


@dataclass(frozen=True)
class RPFSolution:
    """Perron data: pressure (nats), density h, conformal weights m, and
    equilibrium weights mu = h*m renormalized."""

    pressure: float
    h: np.ndarray
    m: np.ndarray
    mu: np.ndarray
    residual: float
    iterations: int
    matrix: TransferMatrix


def _positive(x: float, what: str) -> float:
    if not 0.0 < x < math.inf:  # false for nan too
        raise FloatingPointError(f"power iteration: {what} is {x}; check exp(t * phi) "
                                 "for overflow, underflow or nan")
    return x


def _apply(rows, cols, vals, x: np.ndarray, period: int) -> tuple:
    """(T^period x / S, log S), x rescaled to max 1 between the applications."""
    log_scale = 0.0
    for _ in range(period - 1):
        x = np.bincount(rows, weights=vals * x[cols], minlength=len(x))
        top = _positive(float(np.max(x)), "an iterate's maximum")
        x, log_scale = x / top, log_scale + math.log(top)
    return np.bincount(rows, weights=vals * x[cols], minlength=len(x)), log_scale


def _power_iterate(tm: TransferMatrix, tol: float, period: int = 1):
    """(log lambda, h, m, residual, steps) by power iteration on T^period.

    lambda^period, the Rayleigh quotient times h's rescalings, is held in
    logs.  The stop is scale-invariant: h and m each miss their eigenvalue
    equation by at most tol times the eigenvalue.  The residual returned is
    that miss times lambda: max(|Th - lambda h|, |mT - lambda m|) at period 1.
    """
    by_col = np.argsort(tm.cols, kind="stable")
    forward, backward = (tm.rows, tm.cols, tm.vals), (tm.cols[by_col], tm.rows[by_col],
                                                      tm.vals[by_col])
    h = m = np.full(tm.size, 1.0)
    for it in range(1, POWER_STEPS + 1):
        th, log_h = _apply(*forward, h, period)
        tm_, log_m = _apply(*backward, m, period)
        lam = _positive(float(m @ th) / float(m @ h), "the Perron estimate")  # over h's rescalings
        lam_m = _positive(lam * math.exp(log_h - log_m), "the Perron estimate")  # over m's
        res = max(float(np.max(np.abs(th - lam * h))) / lam,
                  float(np.max(np.abs(tm_ - lam_m * m))) / lam_m)
        h = th / _positive(float(np.max(th)), "an iterate's maximum")
        m = tm_ / _positive(float(np.max(tm_)), "an iterate's maximum")
        if res <= tol:
            pressure = (log_h + math.log(lam)) / period
            return pressure, h, m, res * math.exp(pressure), it
    raise ConvergenceError(
        f"power iteration did not reach tol {tol} in {POWER_STEPS} iterations "
        f"(residual {res:.3e})", residual=res)


def _period(tm: TransferMatrix) -> tuple[int, bool]:
    """(d, strongly connected) for T's graph, where an underflowed weight is
    no edge.  d is the lcm of the periods of the graph's classes that carry a
    cycle, so T^d is primitive on each of their cyclic subclasses."""
    nonzero = tm.vals != 0
    src, dst = tm.rows[nonzero], tm.cols[nonzero]  # T's graph reversed, listed by source
    d = strong_period(tm.size, src, dst)  # 0 when not strongly connected
    if d:
        return d, True
    periods = (strong_period(int(cls.sum()), *edges)
               for cls, *edges in cyclic_classes(tm.size, src, dst))
    return math.lcm(*periods), False  # lcm() is 1: no class carries a cycle


def _rpf_solution(tmatrix, pressure, h, m, residual, iterations) -> RPFSolution:
    m = m / m.sum()
    return RPFSolution(pressure, h, m, h * m / (h * m).sum(), residual, iterations, tmatrix)


def solve_rpf(tmatrix: TransferMatrix, tol: float = 1e-12) -> RPFSolution:
    """Power iteration for the Perron triple of a mixing transfer matrix.

    Raises NotMixingError for reducible/periodic inputs, ConvergenceError
    when the step cap is hit and FloatingPointError at an estimate that is
    not finite and positive.
    """
    period, strong = _period(tmatrix)
    if period != 1 or not strong:
        raise NotMixingError(f"transfer graph is {'periodic' if strong else 'reducible'}, "
                             "not topologically mixing; use decompose_components")
    return _rpf_solution(tmatrix, *_power_iterate(tmatrix, tol))


def cylinder_weight(sol: RPFSolution, word) -> float:
    """Equilibrium mass of the cylinder coded by `word` (any length >= 1)."""
    w = tuple(int(s) for s in word)
    pot = sol.matrix.potential
    k = pot.depth
    if len(w) < k:
        return float(sum(sol.mu[i] for i, state in enumerate(sol.matrix.states)
                         if state[:len(w)] == w))
    z = float(sol.h @ sol.m)
    s_part = sum(pot(w[i:i + k]) for i in range(len(w) - k))
    m_tail = sol.m[sol.matrix.index[w[len(w) - k:]]]
    m_val = math.exp(s_part - (len(w) - k) * sol.pressure) * m_tail
    return sol.h[sol.matrix.index[w[:k]]] * m_val / z


@dataclass(frozen=True)
class ComponentSolution:
    symbols: list[int]  # original symbols of the component
    pressure: float
    solution: RPFSolution | None  # None for a periodic component
    residual: float  # power-iteration residual; of T^d over e^(P(d-1)) at period d


@dataclass(frozen=True)
class ComponentDecomposition:
    components: list[ComponentSolution]
    pressure: float
    maximizers: list[int]  # indices into components attaining the max

    @property
    def unique_maximizer(self) -> bool:
        return len(self.maximizers) == 1

    @property
    def kind(self) -> str:  # a tie for the maximum leaves the equilibrium non-unique
        return POSITIVE_RECURRENT if self.unique_maximizer else NON_UNIQUE


def cycle_components(shift: FiniteShift, potential: LocallyConstantPotential) -> list:
    """The t-independent part of decompose_components: per strongly connected
    component that carries a cycle, its symbols, its sub-shift (symbols
    relabelled 0..k-1) and the potential relabelled onto it.

    Components come out sorted by their first symbol (shifts.cyclic_classes);
    a wandering symbol, on no cycle, carries no invariant mass and is left out.
    """
    m = shift.alphabet_size
    comps = []
    for comp, sub_src, sub_dst in cyclic_classes(m, *shift.edges()):
        if comp.all():
            return [(list(range(m)), shift, potential)]
        symbols = [int(i) for i in np.nonzero(comp)[0]]
        sub_shift = FiniteShift.from_edges(len(symbols), sub_src, sub_dst)
        relabel = {orig: new for new, orig in enumerate(symbols)}
        vals = {tuple(relabel[s] for s in w): v for w, v in potential.values.items()
                if all(s in relabel for s in w)}
        vals = {w: v for w, v in vals.items() if is_admissible(w, sub_shift)}
        comps.append((symbols, sub_shift,
                      LocallyConstantPotential(potential.depth, vals, sub_shift)))
    # nonempty: every symbol has a successor, so some component carries a cycle
    return comps


def decompose_components(shift: FiniteShift, potential: LocallyConstantPotential,
                         t: float = 1.0, tol: float = 1e-12,
                         components: list | None = None) -> ComponentDecomposition:
    """Per-component Perron data of t*potential; the total pressure is the max.

    Components are the strongly connected pieces carrying at least one cycle
    (see cycle_components; pass its result as `components` to solve one shift
    at many t without recomputing them).  Ties within 1e-9 are all reported as
    maximizers, which is how non-uniqueness of the equilibrium state shows up
    for non-mixing inputs.
    """
    if components is None:
        components = cycle_components(shift, potential)
    comps: list[ComponentSolution] = []
    for symbols, sub_shift, sub_pot in components:
        tm = build_transfer_matrix(sub_shift, sub_pot.scaled(t))
        period = _period(tm)[0]
        pressure, h, m, res, it = _power_iterate(tm, tol, period)
        sol = _rpf_solution(tm, pressure, h, m, res, it) if period == 1 else None
        comps.append(ComponentSolution(symbols, pressure, sol, res))
    pressures = np.array([c.pressure for c in comps])
    total = float(pressures.max())
    maximizers = [i for i, p in enumerate(pressures) if p >= total - 1e-9]
    return ComponentDecomposition(comps, total, maximizers)


def pressure_curve_finite(shift: FiniteShift, potential: LocallyConstantPotential,
                          t_grid, tol: float = 1e-12) -> tuple[PressureCurve, bool]:
    """Pressure of t*potential across a grid, and whether the shift is mixing.

    The shift is mixing exactly when its transition graph is strongly
    connected with period 1; is_topologically_mixing reads that period off
    the CSR arrays, so no matrix power is formed and no alphabet is too long.
    The pressure is the maximum over components (decompose_components); a
    mixing shift is the single-component case with a primitive RPF solution.
    Where several components tie for the maximum the equilibrium state is not
    unique and Dp is undefined; otherwise Dp is the equilibrium average of the
    potential on the maximizing component (nan for a periodic one).  The
    enclosure width is the maximizing component's power-iteration residual
    (the largest one where components tie); on a mixing shift that is the
    RPF residual.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    parts = cycle_components(shift, potential)
    mixing = is_topologically_mixing(shift)
    decs = [decompose_components(shift, potential, t=float(t), tol=tol, components=parts)
            for t in ts]
    ders, widths = np.full(len(ts), math.nan), np.zeros(len(ts))
    for i, dec in enumerate(decs):
        comp = dec.components[dec.maximizers[0]]
        if dec.unique_maximizer and comp.solution is not None:
            # states use component-local symbols; map back
            phi = np.array([potential(tuple(comp.symbols[s] for s in w[:potential.depth]))
                            for w in comp.solution.matrix.states])
            ders[i] = float(comp.solution.mu @ phi)
        widths[i] = max(dec.components[j].residual for j in dec.maximizers)
    ps = np.array([dec.pressure for dec in decs])
    check_curve(ts, ps)
    warnings = [] if mixing else ["shift is not mixing; component maximum reported"]
    return PressureCurve(ts, ps, [dec.kind for dec in decs], ders,
                         ["analytic" if dec.unique_maximizer else "kink" for dec in decs],
                         np.ones(len(ts)), widths, [], warnings), mixing
