"""Finite Markov shifts: words, admissibility, periodic orbits, Birkhoff sums.

Symbols are 0-based integers.  Transition matrices are 0/1 with entry (i, j)
equal to 1 iff symbol j may follow symbol i.  A shift stores them once, as
CSR index arrays (`indptr`, and the successors of each symbol in increasing
order), built from a dense 0/1 array or, for large synthetic graphs such as
the loop realizations of renewal structures, from an edge list.
`bfs_levels` walks that graph level by level with whole-frontier gathers,
and `cyclic_classes` uses it to find the strongly connected classes and
their periods: a vertex's class is what both the forward and the backward
walk from it reach, and the class's period is the gcd of
level[u] + 1 - level[v] over its edges u -> v, with the forward levels
(Seneta 1981, Ch. 1).  `strong_period` is the first class of that walk.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
import math

import numpy as np

Word = tuple[int, ...]

DENSE_LIMIT = 4096  # largest alphabet dense() materializes (16 MB as int8)


def csr_indptr(sources: np.ndarray, n: int) -> np.ndarray:
    """Row pointers of the CSR digraph on n vertices whose edges are listed
    with their sources in nondecreasing order."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    return indptr


def bfs_levels(indptr: np.ndarray, indices: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first distance from `start` in a CSR digraph; -1 where unreached.

    Each level expands the whole frontier at once: one gather of its
    successor lists, then np.unique.
    """
    level = np.full(len(indptr) - 1, -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        begin = indptr[frontier]
        counts = indptr[frontier + 1] - begin
        offsets = np.cumsum(counts) - counts
        nxt = np.unique(indices[np.arange(int(counts.sum()))
                                + np.repeat(begin - offsets, counts)])
        nxt = nxt[level[nxt] < 0]
        level[nxt] = depth
        frontier = nxt
    return level


def strong_period(n: int, sources: np.ndarray, targets: np.ndarray) -> int:
    """Period (gcd of cycle lengths) of the digraph on n vertices with edges
    sources[e] -> targets[e], listed by source; 0 if it is not strongly
    connected.  The graph is primitive (mixing) exactly when this is 1."""
    cls, _, period = next(cyclic_classes(n, sources, targets), (None, None, 0))
    return period if cls is not None and cls.all() else 0


def cyclic_classes(n: int, sources: np.ndarray, targets: np.ndarray):
    """The strongly connected classes carrying a cycle of the digraph on n
    vertices with edges sources[e] -> targets[e], listed by source, in order
    of their smallest vertex: each as its vertex mask, the mask of its inner
    edges and its period."""
    by_target = np.argsort(targets, kind="stable")
    forward, back = csr_indptr(sources, n), csr_indptr(targets[by_target], n)
    free = np.ones(n, dtype=bool)
    while free.any():
        first = int(np.argmax(free))
        level = bfs_levels(forward, targets, first)  # shortest paths in a class stay in it
        cls = (level >= 0) & (bfs_levels(back, sources[by_target], first) >= 0)
        free &= ~cls
        inner = cls[sources] & cls[targets]
        if inner.any():  # else a lone vertex without a loop
            yield cls, inner, int(np.gcd.reduce(level[sources[inner]] + 1
                                                - level[targets[inner]]))


class FiniteShift:
    """A finite Markov shift given by its alphabet size and transition matrix.

    The matrix must be square 0/1 with no all-zero row and no all-zero
    column, so every symbol has at least one successor and one predecessor.
    `FiniteShift(m, matrix)` takes a dense 0/1 array; `from_edges` takes the
    allowed transitions as source and target arrays.
    """

    def __init__(self, alphabet_size: int, transitions):
        m = alphabet_size
        t = np.asarray(transitions)
        if t.shape != (m, m):
            raise ValueError("transition matrix shape mismatch")
        if not np.all((t == 0) | (t == 1)):
            raise ValueError("transition entries must be 0 or 1")
        self._set(m, *np.nonzero(t))  # row-major, so sorted by (source, target)

    @classmethod
    def from_edges(cls, alphabet_size: int, sources, targets) -> "FiniteShift":
        """The shift whose allowed transitions are sources[e] -> targets[e]."""
        m = alphabet_size
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("sources and targets must be 1-d arrays of one length")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= m):
            raise ValueError("edge endpoint outside the alphabet")
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])):
            raise ValueError("transition entries must be 0 or 1 (repeated edge)")
        shift = cls.__new__(cls)
        shift._set(m, src, dst)
        return shift

    def _set(self, m: int, sources: np.ndarray, targets: np.ndarray) -> None:
        if m < 1:
            raise ValueError("alphabet_size must be >= 1")
        indptr, indices = csr_indptr(sources, m), targets.astype(np.int64)
        if np.any(np.diff(indptr) == 0):
            raise ValueError("transition matrix has an all-zero row")
        if np.any(np.bincount(indices, minlength=m) == 0):
            raise ValueError("transition matrix has an all-zero column")
        for a in (indptr, indices):
            a.flags.writeable = False
        self.alphabet_size = m
        self.indptr = indptr
        self.indices = indices

    def __repr__(self) -> str:
        return f"FiniteShift({self.alphabet_size}, {len(self.indices)} transitions)"

    # -- basic queries ----------------------------------------------------

    def successors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def allows(self, i: int, j: int) -> bool:
        row = self.successors(i)
        k = int(np.searchsorted(row, j))
        return k < len(row) and int(row[k]) == j

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All transitions as (sources, targets), sorted by (source, target)."""
        counts = np.diff(self.indptr)
        return np.repeat(np.arange(self.alphabet_size), counts), self.indices

    def dense(self) -> np.ndarray:
        """The (m, m) 0/1 int8 matrix; refused above DENSE_LIMIT symbols."""
        m = self.alphabet_size
        if m > DENSE_LIMIT:
            raise ValueError(f"dense transition matrix refused for {m} > {DENSE_LIMIT}"
                             " symbols; walk the CSR arrays instead")
        t = np.zeros((m, m), dtype=np.int8)
        t[self.edges()] = 1
        return t


def full_shift(m: int) -> FiniteShift:
    """Full shift on m symbols (every transition allowed)."""
    return FiniteShift(m, np.ones((m, m), dtype=np.int8))


def golden_mean_shift() -> FiniteShift:
    """Two symbols with the word (1, 1) forbidden."""
    return FiniteShift(2, np.array([[1, 1], [1, 0]], dtype=np.int8))


def renewal_shift(num_symbols: int) -> FiniteShift:
    """Truncation of the renewal graph to symbols 0..num_symbols-1.

    Transitions: 0 -> 0, 0 -> n for every n, and n -> n-1 for n >= 1.
    """
    m = num_symbols
    if m < 2:
        raise ValueError("need at least 2 symbols")
    t = np.zeros((m, m), dtype=np.int8)
    t[0, :] = 1
    for n in range(1, m):
        t[n, n - 1] = 1
    return FiniteShift(m, t)


def cycle_shift(m: int) -> FiniteShift:
    """Deterministic m-cycle 0 -> 1 -> ... -> m-1 -> 0."""
    t = np.zeros((m, m), dtype=np.int8)
    for i in range(m):
        t[i, (i + 1) % m] = 1
    return FiniteShift(m, t)


def disjoint_union(a: FiniteShift, b: FiniteShift) -> FiniteShift:
    """Block-diagonal union; symbols of b are relabelled after a's."""
    (sa, ta), (sb, tb) = a.edges(), b.edges()
    ma = a.alphabet_size
    return FiniteShift.from_edges(ma + b.alphabet_size, np.concatenate([sa, sb + ma]),
                                  np.concatenate([ta, tb + ma]))


class SymbolValues(Mapping):
    """Per-symbol values held as one read-only float array, read as the
    mapping (i,) -> array[i]: the values of a depth-1 potential without a
    word tuple or a dict entry per symbol."""

    def __init__(self, per_symbol):
        self.array = np.array(per_symbol, dtype=float)
        self.array.flags.writeable = False

    def __getitem__(self, key):
        if (isinstance(key, tuple) and len(key) == 1
                and isinstance(key[0], (int, np.integer)) and 0 <= key[0] < len(self.array)):
            return float(self.array[key[0]])
        raise KeyError(key)

    def __iter__(self):
        return zip(range(len(self.array)))

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self) -> str:
        return f"SymbolValues({self.array.tolist()!r})"


@dataclass(frozen=True)
class LocallyConstantPotential:
    """A potential depending on the first `depth` symbols only (values in nats).

    `values` maps every admissible depth-word to a finite real: a dict, or
    at depth 1 a SymbolValues array (kept as given, which spares a long
    alphabet its per-symbol tuples).  When a shift is supplied the key set
    is checked against the admissible words.
    """

    depth: int
    values: dict
    shift: FiniteShift | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if isinstance(self.values, SymbolValues) and self.depth == 1:
            vals = self.values
            bad = np.flatnonzero(~np.isfinite(vals.array))
            if bad.size:
                raise ValueError(f"value for {(int(bad[0]),)} is not finite")
        else:
            vals = {tuple(k): float(v) for k, v in self.values.items()}
            for k, v in vals.items():
                if len(k) != self.depth:
                    raise ValueError(f"key {k} does not have length {self.depth}")
                if not math.isfinite(v):
                    raise ValueError(f"value for {k} is not finite")
        object.__setattr__(self, "values", vals)
        if self.shift is not None:
            expected = set(enumerate_admissible_words(self.shift, self.depth))
            got = set(vals)
            if expected != got:
                missing = sorted(expected - got)[:4]
                extra = sorted(got - expected)[:4]
                raise ValueError(
                    f"potential keys disagree with admissible {self.depth}-words"
                    f" (missing {missing}, extra {extra})")

    def __call__(self, context: Word) -> float:
        return self.values[tuple(context)]

    def scaled(self, t: float) -> "LocallyConstantPotential":
        if isinstance(self.values, SymbolValues):
            return LocallyConstantPotential(1, SymbolValues(t * self.values.array), self.shift)
        return LocallyConstantPotential(
            self.depth, {k: t * v for k, v in self.values.items()}, self.shift)

    @classmethod
    def from_symbol_values(cls, shift: FiniteShift, per_symbol) -> "LocallyConstantPotential":
        return cls(1, SymbolValues(per_symbol), shift)

    @classmethod
    def constant(cls, shift: FiniteShift, value: float) -> "LocallyConstantPotential":
        return cls.from_symbol_values(shift, [value] * shift.alphabet_size)


def is_admissible(word, shift: FiniteShift) -> bool:
    """True iff every adjacent pair of symbols is an allowed transition."""
    w = tuple(int(s) for s in word)
    for s in w:
        if s < 0 or s >= shift.alphabet_size:
            raise ValueError(f"symbol {s} outside alphabet of size {shift.alphabet_size}")
    return all(shift.allows(w[i], w[i + 1]) for i in range(len(w) - 1))


def enumerate_admissible_words(shift: FiniteShift, n: int) -> list[Word]:
    """All admissible words of length n, lexicographic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[Word] = []
    stack: list[Word] = [(s,) for s in range(shift.alphabet_size - 1, -1, -1)]
    while stack:
        w = stack.pop()
        if len(w) == n:
            out.append(w)
            continue
        for j in shift.successors(w[-1])[::-1]:
            stack.append(w + (int(j),))
    return out


def is_topologically_mixing(shift: FiniteShift) -> bool:
    """True iff the shift is irreducible with period 1 (Seneta 1981, Ch. 1)."""
    return strong_period(shift.alphabet_size, *shift.edges()) == 1


def enumerate_periodic_words(shift: FiniteShift, n: int) -> list[Word]:
    """Admissible cyclic words of length n (wrap transition included).

    These index the period-n points of the shift.  Output is lexicographic
    and deterministic: the admissible words of length n, in their order,
    that close up.
    """
    return [w for w in enumerate_admissible_words(shift, n) if shift.allows(w[-1], w[0])]


def birkhoff_sum(potential: LocallyConstantPotential, cyclic_word) -> float:
    """Sum of the potential along the periodic orbit coded by the word.

    The word is read cyclically, so every depth-k context wraps around; this
    is the genuine orbit sum S_n at the corresponding periodic point.
    """
    w = tuple(int(s) for s in cyclic_word)
    n = len(w)
    if n < 1:
        raise ValueError("empty word")
    k = potential.depth
    total = 0.0
    for i in range(n):
        ctx = tuple(w[(i + j) % n] for j in range(k))
        try:
            total += potential.values[ctx]
        except KeyError:
            raise ValueError(f"cyclic context {ctx} is not admissible") from None
    return total
