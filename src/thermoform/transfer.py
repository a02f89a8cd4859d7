"""Transfer operators on finite Markov shifts and their Perron data.

States are admissible level-k cylinders.  With column C (source) and row C'
(target, C' follows C under the shift), the matrix entry is exp(phi(C)).
Then T h = lambda h recovers the density h, m T = lambda m the conformal
weights m, lambda = e^P, and trace(T^n) equals the period-n orbit sum of
exp of the Birkhoff sums.

scipy.sparse is imported inside the functions that build or walk these
matrices, so importing the package does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, NotMixingError
from .renewal import NON_UNIQUE, POSITIVE_RECURRENT, PressureCurve, check_curve
from .shifts import (FiniteShift, LocallyConstantPotential,
                     enumerate_admissible_words, is_admissible,
                     is_topologically_mixing)

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class TransferMatrix:
    states: list  # admissible level-words
    index: dict
    matrix: object  # csr_matrix, column = source state
    shift: FiniteShift
    potential: LocallyConstantPotential
    level: int

    @property
    def size(self) -> int:
        return len(self.states)

    def trace_power(self, n: int) -> float:
        import scipy.sparse as sp

        p = self.matrix
        out = sp.identity(self.size, format="csr")
        for _ in range(n):
            out = out @ p
        return float(out.diagonal().sum())


def build_transfer_matrix(shift: FiniteShift, potential: LocallyConstantPotential,
                          level: int | None = None) -> TransferMatrix:
    """Weighted cylinder-transition matrix for the given potential.

    `level` defaults to the potential depth and must not be smaller.
    """
    k = potential.depth
    if level is None:
        level = k
    if level < k:
        raise ValueError("cylinder level must be >= potential depth")
    import scipy.sparse as sp

    if level == 1:
        # fast path: states are the symbols themselves
        m = shift.alphabet_size
        if m == 0:
            raise ValueError("empty state set")
        states = [(i,) for i in range(m)]
        weights = np.array([potential((i,)) for i in range(m)], dtype=float)
        adj = shift.transitions if shift.is_sparse else sp.csr_matrix(shift.dense())
        mat = adj.multiply(np.exp(weights)[:, None]).T.tocsr()
        return TransferMatrix(states, {s: i for i, s in enumerate(states)},
                              mat, shift, potential, 1)

    states = enumerate_admissible_words(shift, level)
    if not states:
        raise ValueError("empty state set")
    index = {w: i for i, w in enumerate(states)}
    rows, cols, vals = [], [], []
    for ci, w in enumerate(states):
        weight = math.exp(potential(w[:k]))
        base = w[1:]
        for j in shift.successors(w[-1]):
            nxt = base + (int(j),)
            ri = index.get(nxt)
            if ri is not None:
                rows.append(ri)
                cols.append(ci)
                vals.append(weight)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))
    return TransferMatrix(states, index, mat, shift, potential, level)


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


def _graph_period(adj: sp.csr_matrix) -> int:
    """Period (gcd of cycle lengths) of a strongly connected digraph."""
    n = adj.shape[0]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.indices[adj.indptr[u]:adj.indptr[u + 1]]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    coo = adj.tocoo()
    for u, v in zip(coo.row, coo.col):
        g = math.gcd(g, int(level[u]) + 1 - int(level[v]))
        if g == 1:
            return 1
    return g


def _check_primitive(mat: sp.csr_matrix) -> None:
    from scipy.sparse.csgraph import connected_components

    adj = (mat != 0).astype(np.int8).tocsr()
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    if n_comp != 1:
        raise NotMixingError(
            f"transfer graph has {n_comp} strongly connected components; "
            "use decompose_components")
    if _graph_period(adj) != 1:
        raise NotMixingError(
            "transfer graph is periodic (not topologically mixing); "
            "use decompose_components")


def _power_iterate(mat: sp.csr_matrix, tol: float, max_iter: int):
    n = mat.shape[0]
    mat_t = mat.T.tocsr()
    h = np.full(n, 1.0)
    m = np.full(n, 1.0)
    lam = 1.0
    res = math.inf
    for it in range(1, max_iter + 1):
        th = mat @ h
        tm = mat_t @ m
        lam = float(m @ th) / float(m @ h)
        scale = max(lam, 1.0)
        res = max(float(np.max(np.abs(th - lam * h))),
                  float(np.max(np.abs(tm - lam * m)))) / scale
        h = th / np.max(th)
        m = tm / np.max(tm)
        if res <= tol:
            return lam, h, m, res * scale, it
    raise ConvergenceError(
        f"power iteration did not reach tol {tol} in {max_iter} iterations "
        f"(residual {res:.3e})", residual=res)


def solve_rpf(tmatrix: TransferMatrix, tol: float = 1e-12,
              max_iter: int = 10 ** 6) -> RPFSolution:
    """Power iteration for the Perron triple of a mixing transfer matrix.

    Raises NotMixingError for reducible/periodic inputs and ConvergenceError
    when the residual cap is hit.
    """
    _check_primitive(tmatrix.matrix)
    lam, h, m, res, it = _power_iterate(tmatrix.matrix, tol, max_iter)
    m = m / m.sum()
    mu = h * m
    mu = mu / mu.sum()
    return RPFSolution(math.log(lam), h, m, mu, res, it, tmatrix)


def cylinder_weight(sol: RPFSolution, word) -> float:
    """Equilibrium mass of the cylinder coded by `word` (any length >= 1)."""
    w = tuple(int(s) for s in word)
    k = sol.matrix.level
    pot = sol.matrix.potential
    if len(w) < k:
        total = 0.0
        for state in sol.matrix.states:
            if state[:len(w)] == w:
                total += sol.mu[sol.matrix.index[state]]
        return total
    z = float(sol.h @ sol.m)
    s_part = 0.0
    for i in range(len(w) - k):
        s_part += pot(w[i:i + pot.depth])
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
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adj = sp.csr_matrix(shift.dense()) if not shift.is_sparse else shift.transitions
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    if n_comp == 1:
        return [(list(range(shift.alphabet_size)), shift, potential)]
    comps = []
    for c in range(n_comp):
        symbols = [int(i) for i in np.nonzero(labels == c)[0]]
        sub = adj[np.ix_(symbols, symbols)]
        if sub.nnz == 0:
            continue  # wandering symbol, no invariant mass
        sub_shift = FiniteShift(len(symbols), np.asarray(sub.todense()))
        relabel = {orig: new for new, orig in enumerate(symbols)}
        vals = {tuple(relabel[s] for s in w): v for w, v in potential.values.items()
                if all(s in relabel for s in w)}
        vals = {w: v for w, v in vals.items() if is_admissible(w, sub_shift)}
        comps.append((symbols, sub_shift,
                      LocallyConstantPotential(potential.depth, vals, sub_shift)))
    # nonempty: every symbol has a successor, so some component carries a cycle
    comps.sort(key=lambda c: c[0][0])
    return comps


def decompose_components(shift: FiniteShift, potential: LocallyConstantPotential,
                         t: float = 1.0, tol: float = 1e-12, max_iter: int = 10 ** 6,
                         components: list | None = None) -> ComponentDecomposition:
    """Per-component Perron data of t*potential; the total pressure is the max.

    Components are the strongly connected pieces carrying at least one cycle
    (see cycle_components; pass its result as `components` to solve one shift
    at many t without recomputing them).  Ties within 1e-9 are all reported as
    maximizers, which is how non-uniqueness of the equilibrium state shows up
    for non-mixing inputs.
    """
    import scipy.sparse as sp

    if components is None:
        components = cycle_components(shift, potential)
    comps: list[ComponentSolution] = []
    for symbols, sub_shift, sub_pot in components:
        tm = build_transfer_matrix(sub_shift, sub_pot.scaled(t))
        try:
            sol = solve_rpf(tm, tol=tol, max_iter=max_iter)
            comps.append(ComponentSolution(symbols, sol.pressure, sol))
        except NotMixingError:  # periodic: T + I is primitive, with Perron root 1 + root of T
            shifted = (tm.matrix + sp.identity(tm.size, format="csr")).tocsr()
            lam = _power_iterate(shifted, tol, max_iter)[0]
            comps.append(ComponentSolution(symbols, math.log(lam - 1.0), None))
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
    enclosure width is the RPF residual on a mixing shift and 0 on a
    component maximum.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    parts = cycle_components(shift, potential)
    # a reducible shift is not mixing; for an irreducible one the Boolean scan
    # settles aperiodicity, within Wielandt's bound (m-1)^2 + 1 on the exponent
    mixing = len(parts) == 1 and bool(
        is_topologically_mixing(shift, n_max=(shift.alphabet_size - 1) ** 2 + 1))
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
        if mixing:
            widths[i] = comp.solution.residual
    ps = np.array([dec.pressure for dec in decs])
    check_curve(ts, ps)
    unique = [dec.unique_maximizer for dec in decs]
    warnings = [] if mixing else ["shift is not mixing; component maximum reported"]
    return PressureCurve(ts, ps, [POSITIVE_RECURRENT if u else NON_UNIQUE for u in unique],
                         ders, ["analytic" if u else "kink" for u in unique],
                         np.ones(len(ts)), widths, [], warnings), mixing
