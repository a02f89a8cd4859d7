"""Transfer operators on finite Markov shifts and their Perron data.

States are admissible level-k cylinders.  With column C (source) and row C'
(target, C' follows C under the shift), the matrix entry is exp(phi(C)).
Then T h = lambda h recovers the density h, m T = lambda m the conformal
weights m, lambda = e^P, and trace(T^n) equals the period-n orbit sum of
exp of the Birkhoff sums.

A matrix is three numpy arrays, rows, cols and vals, in CSR order (by row,
then column).  T x is np.bincount(rows, weights=vals * x[cols]), which adds
each row's products in column order starting from zero, as a CSR product
does; x T is the same call on the entries reordered by column.  Primitivity
is shifts.strong_period == 1, and components come from the same
breadth-first levels (shifts.bfs_levels).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConvergenceError, NotMixingError
from .renewal import NON_UNIQUE, POSITIVE_RECURRENT, PressureCurve, check_curve
from .shifts import (DENSE_LIMIT, FiniteShift, LocallyConstantPotential,
                     SymbolValues, bfs_levels, csr_indptr,
                     enumerate_admissible_words, is_admissible,
                     is_topologically_mixing, strong_period)

POWER_STEPS = 10 ** 6  # power-iteration cap of solve_rpf and decompose_components


@dataclass(frozen=True)
class TransferMatrix:
    states: list  # admissible words of the potential's depth
    index: dict
    rows: np.ndarray  # target state of each entry, entries in CSR order
    cols: np.ndarray  # source state
    vals: np.ndarray  # exp(phi(source))
    shift: FiniteShift
    potential: LocallyConstantPotential

    @property
    def size(self) -> int:
        return len(self.states)

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
        states = [(i,) for i in range(m)]
        values = potential.values
        if isinstance(values, SymbolValues) and len(values) >= m:
            phi = values.array[:m]
        else:
            phi = np.array([potential((i,)) for i in range(m)], dtype=float)
        weights = np.exp(phi)
        src, dst = shift.edges()
        by_target = np.argsort(dst, kind="stable")  # sources stay sorted within a target
        src, dst = src[by_target], dst[by_target]
        return TransferMatrix(states, {s: i for i, s in enumerate(states)},
                              dst, src, weights[src], shift, potential)

    states = enumerate_admissible_words(shift, k)
    if not states:
        raise ValueError("empty state set")
    index = {w: i for i, w in enumerate(states)}
    rows, cols, vals = [], [], []
    for ci, w in enumerate(states):
        weight = math.exp(potential(w))
        base = w[1:]
        for j in shift.successors(w[-1]):
            nxt = base + (int(j),)
            ri = index.get(nxt)
            if ri is not None:
                rows.append(ri)
                cols.append(ci)
                vals.append(weight)
    rows = np.array(rows, dtype=np.int64)
    by_row = np.argsort(rows, kind="stable")  # cols were appended in increasing order
    return TransferMatrix(states, index, rows[by_row], np.array(cols, dtype=np.int64)[by_row],
                          np.array(vals, dtype=float)[by_row], shift, potential)


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


def _check_primitive(tm: TransferMatrix) -> None:
    nonzero = tm.vals != 0  # an underflowed weight is no edge
    period = strong_period(tm.size, tm.rows[nonzero], tm.cols[nonzero])
    if period == 0:
        raise NotMixingError(
            "transfer graph is not strongly connected; use decompose_components")
    if period != 1:
        raise NotMixingError(
            "transfer graph is periodic (not topologically mixing); "
            "use decompose_components")


def _power_iterate(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   tol: float):
    by_col = np.argsort(cols, kind="stable")
    t_rows, t_cols, t_vals = cols[by_col], rows[by_col], vals[by_col]
    h = np.full(n, 1.0)
    m = np.full(n, 1.0)
    lam = 1.0
    res = math.inf
    for it in range(1, POWER_STEPS + 1):
        th = np.bincount(rows, weights=vals * h[cols], minlength=n)
        tm = np.bincount(t_rows, weights=t_vals * m[t_cols], minlength=n)
        lam = float(m @ th) / float(m @ h)
        scale = max(lam, 1.0)
        res = max(float(np.max(np.abs(th - lam * h))),
                  float(np.max(np.abs(tm - lam * m)))) / scale
        h = th / np.max(th)
        m = tm / np.max(tm)
        if res <= tol:
            return lam, h, m, res * scale, it
    raise ConvergenceError(
        f"power iteration did not reach tol {tol} in {POWER_STEPS} iterations "
        f"(residual {res:.3e})", residual=res)


def solve_rpf(tmatrix: TransferMatrix, tol: float = 1e-12) -> RPFSolution:
    """Power iteration for the Perron triple of a mixing transfer matrix.

    Raises NotMixingError for reducible/periodic inputs and ConvergenceError
    when the residual cap is hit.
    """
    _check_primitive(tmatrix)
    lam, h, m, res, it = _power_iterate(tmatrix.size, tmatrix.rows, tmatrix.cols,
                                        tmatrix.vals, tol)
    m = m / m.sum()
    mu = h * m
    mu = mu / mu.sum()
    return RPFSolution(math.log(lam), h, m, mu, res, it, tmatrix)


def cylinder_weight(sol: RPFSolution, word) -> float:
    """Equilibrium mass of the cylinder coded by `word` (any length >= 1)."""
    w = tuple(int(s) for s in word)
    pot = sol.matrix.potential
    k = pot.depth
    if len(w) < k:
        total = 0.0
        for state in sol.matrix.states:
            if state[:len(w)] == w:
                total += sol.mu[sol.matrix.index[state]]
        return total
    z = float(sol.h @ sol.m)
    s_part = 0.0
    for i in range(len(w) - k):
        s_part += pot(w[i:i + k])
    tail_state = w[len(w) - k:]
    m_tail = sol.m[sol.matrix.index[tail_state]]
    m_val = math.exp(s_part - (len(w) - k) * sol.pressure) * m_tail
    return sol.h[sol.matrix.index[w[:k]]] * m_val / z


def gibbs_constant_check(sol: RPFSolution, shift: FiniteShift,
                         potential: LocallyConstantPotential, n_max: int) -> float:
    """Largest Gibbs distortion of mu over all cylinders of length <= n_max.

    For each admissible word the ratio mu(C) / exp(S_n phi - n P) is taken at
    the lexicographically smallest point of C; the return value is the max of
    the ratio and its reciprocal over all cylinders.
    """
    k = potential.depth
    p = sol.pressure
    worst = 1.0
    for n in range(1, n_max + 1):
        for w in enumerate_admissible_words(shift, n):
            mu = cylinder_weight(sol, w)
            ext = list(w)
            while len(ext) < n + k - 1:
                ext.append(int(shift.successors(ext[-1])[0]))
            s_n = sum(potential(tuple(ext[i:i + k])) for i in range(n))
            ratio = mu / math.exp(s_n - n * p)
            worst = max(worst, ratio, 1.0 / ratio)
    return worst


@dataclass(frozen=True)
class ComponentSolution:
    symbols: list[int]  # original symbols of the component
    pressure: float
    solution: RPFSolution | None  # None for a periodic component (root via T+I)
    residual: float  # power-iteration residual, of T + I for a periodic component


@dataclass(frozen=True)
class ComponentDecomposition:
    components: list[ComponentSolution]
    pressure: float
    maximizers: list[int]  # indices into components attaining the max

    @property
    def unique_maximizer(self) -> bool:
        return len(self.maximizers) == 1


def cycle_components(shift: FiniteShift, potential: LocallyConstantPotential) -> list:
    """The t-independent part of decompose_components: per strongly connected
    component that carries a cycle, its symbols, its sub-shift (symbols
    relabelled 0..k-1) and the potential relabelled onto it.

    The component of the smallest unassigned symbol is its forward reach
    intersected with its backward reach, so components come out sorted by
    their first symbol.
    """
    m = shift.alphabet_size
    src, dst = shift.edges()
    by_target = np.argsort(dst, kind="stable")
    back_indptr, back_indices = csr_indptr(dst[by_target], m), src[by_target]
    free = np.ones(m, dtype=bool)
    comps = []
    for first in range(m):
        if not free[first]:
            continue
        comp = ((bfs_levels(shift.indptr, shift.indices, first) >= 0)
                & (bfs_levels(back_indptr, back_indices, first) >= 0))
        free &= ~comp
        if first == 0 and not free.any():
            return [(list(range(m)), shift, potential)]
        inner = comp[src] & comp[dst]
        if not inner.any():
            continue  # wandering symbol, no invariant mass
        symbols = [int(i) for i in np.nonzero(comp)[0]]
        new_label = np.cumsum(comp) - 1
        sub_shift = FiniteShift.from_edges(len(symbols), new_label[src[inner]],
                                           new_label[dst[inner]])
        relabel = {orig: new for new, orig in enumerate(symbols)}
        vals = {tuple(relabel[s] for s in w): v for w, v in potential.values.items()
                if all(s in relabel for s in w)}
        vals = {w: v for w, v in vals.items() if is_admissible(w, sub_shift)}
        comps.append((symbols, sub_shift,
                      LocallyConstantPotential(potential.depth, vals, sub_shift)))
    # nonempty: every symbol has a successor, so some component carries a cycle
    return comps


def _plus_identity(tm: TransferMatrix):
    """(rows, cols, vals) of T + I in CSR order."""
    diag = tm.rows == tm.cols
    vals = tm.vals.copy()
    vals[diag] += 1.0
    missing = np.ones(tm.size, dtype=bool)
    missing[tm.rows[diag]] = False
    new = np.nonzero(missing)[0]
    rows = np.concatenate([tm.rows, new])
    cols = np.concatenate([tm.cols, new])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.concatenate([vals, np.ones(len(new))])[order]


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
        try:
            sol = solve_rpf(tm, tol=tol)
            comps.append(ComponentSolution(symbols, sol.pressure, sol, sol.residual))
        except NotMixingError:  # periodic: T + I is primitive, with Perron root 1 + root of T
            lam, _, _, res, _ = _power_iterate(tm.size, *_plus_identity(tm), tol)
            comps.append(ComponentSolution(symbols, math.log(lam - 1.0), None, res))
    pressures = np.array([c.pressure for c in comps])
    total = float(pressures.max())
    maximizers = [i for i, p in enumerate(pressures) if p >= total - 1e-9]
    return ComponentDecomposition(comps, total, maximizers)


def pressure_curve_finite(shift: FiniteShift, potential: LocallyConstantPotential,
                          t_grid, tol: float = 1e-12) -> tuple[PressureCurve, bool]:
    """Pressure of t*potential across a grid, and whether the shift is mixing.

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
    # a primitive shift's Boolean scan ends within Wielandt's bound (m-1)^2 + 1
    # on the exponent; any other shift is answered by its period, unscanned
    mixing = bool(is_topologically_mixing(shift, n_max=(shift.alphabet_size - 1) ** 2 + 1))
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
    unique = [dec.unique_maximizer for dec in decs]
    warnings = [] if mixing else ["shift is not mixing; component maximum reported"]
    return PressureCurve(ts, ps, [POSITIVE_RECURRENT if u else NON_UNIQUE for u in unique],
                         ders, ["analytic" if u else "kink" for u in unique],
                         np.ones(len(ts)), widths, [], warnings), mixing
