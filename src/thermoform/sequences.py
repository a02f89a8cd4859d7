"""Explicit level-value sequences (a_n) and their prefix sums s_n.

Two families feed the renewal engine:

* hofbauer: first returns of the doubling map to [1/2, 1); multiplicity 1
  per level, floor 0.
* grid: first returns of the full 3-shift to the renewal cylinder, with the
  bad set a full 2-shift; multiplicity 2^(n-1), floor log 2.

A realized sequence is a finite explicit head (a_0, ..., a_{H-1}) followed by
the exact tail a_n = gamma * log(n / (n+1)) for n >= H (or a zero tail when
gamma is None).  The tail telescopes, so prefix sums and the engine envelope
are exact: s_n = kappa - gamma*log(n) for n >= H with no fitted error.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .renewal import (RenewalModel, TailEnvelope, certified_G)
from .series import _U

LOG2 = math.log(2.0)

GRID = "grid"
HOFBAUER = "hofbauer"

_DEFAULT_TARGETS = {GRID: 2.0, HOFBAUER: 1.0}


@dataclass(frozen=True)
class RealizedSequence:
    """Head values plus an exact telescoping (or zero) tail from index n_cut."""

    head: tuple
    gamma: float | None
    n_cut: int

    def __post_init__(self):
        if self.n_cut < 1:
            raise ValueError("n_cut must be >= 1")
        if len(self.head) != self.n_cut:
            raise ValueError("head length must equal n_cut")
        if self.gamma is not None and not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1 (tail must be summable)")
        object.__setattr__(self, "head", tuple(float(x) for x in self.head))

    # -- values ------------------------------------------------------------

    def a(self, n: int) -> float:
        """Level value a_n (n >= 0)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n < self.n_cut:
            return self.head[n]
        if self.gamma is None:
            return 0.0
        return self.gamma * math.log(n / (n + 1.0))

    def _prefix(self) -> np.ndarray:
        out = np.zeros(self.n_cut + 1)
        out[1:] = np.cumsum(np.asarray(self.head))
        return out

    @property
    def s_cut(self) -> float:
        return float(np.sum(np.asarray(self.head)))

    @property
    def kappa(self) -> float:
        """Offset with s_n = kappa - gamma*log(n) exactly for n >= n_cut."""
        if self.gamma is None:
            return self.s_cut
        return self.s_cut + self.gamma * math.log(self.n_cut)

    def s_values(self, n) -> np.ndarray:
        """Prefix sums s_n = a_0 + ... + a_{n-1}, closed form on the tail."""
        ns = np.asarray(n, dtype=np.int64)
        if np.any(ns < 1):
            raise ValueError("s_n is defined for n >= 1")
        prefix = self._prefix()
        small = np.minimum(ns, self.n_cut)
        out = prefix[small]
        tail = ns > self.n_cut
        if np.any(tail):
            if self.gamma is None:
                out = np.where(tail, self.s_cut, out)
            else:
                out = np.where(tail, self.kappa - self.gamma * np.log(np.maximum(ns, 1)), out)
        return out

    def s(self, n: int) -> float:
        return float(self.s_values(np.array([n]))[0])

    def s_abs_err(self, n: int) -> float:
        """Bound on |s_values(k) - s_k| for 1 <= k <= n, s_k the exact sum.

        The head's prefix sums (np.cumsum, and np.sum for s_cut) round at
        most n_cut partial sums, each bounded by A = sum |a_k|.  The tail
        kappa - gamma*log(k) adds two logs (within 4 ulp each), two products
        and two sums, each bounded by A + |gamma| (log n_cut + log k).
        """
        bound = float(np.sum(np.abs(self.head)))
        if self.gamma is not None:
            bound += abs(self.gamma) * (math.log(self.n_cut) + math.log(max(n, self.n_cut)))
        return 1.01 * (self.n_cut + 12) * _U * bound

    def envelope(self) -> TailEnvelope:
        if self.gamma is None:
            return TailEnvelope(0.0, 0.0, self.s_cut, 0.0, self.n_cut)
        return TailEnvelope(0.0, self.gamma, self.kappa, 0.0, self.n_cut)

    # -- edits -------------------------------------------------------------

    def with_head(self, head) -> "RealizedSequence":
        head = tuple(float(x) for x in head)
        if not head:
            head = (0.0,)
        return RealizedSequence(head, self.gamma, len(head))

    def materialized(self, upto: int) -> "RealizedSequence":
        """Move tail values into the explicit head up to index upto-1."""
        if upto <= self.n_cut:
            return self
        head = list(self.head) + [self.a(n) for n in range(self.n_cut, upto)]
        return RealizedSequence(tuple(head), self.gamma, upto)


def build_tail(gamma: float, n_cut: int = 1) -> RealizedSequence:
    """Sequence with a_n = gamma*log(n/(n+1)) for n >= n_cut, zero head."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    return RealizedSequence((0.0,) * n_cut, float(gamma), n_cut)


def with_leading_shift(seq: RealizedSequence, c: float) -> RealizedSequence:
    """Add c to a_0, shifting every s_n by c (scales sum e^{s_n} by e^c)."""
    head = (seq.head[0] + float(c),) + seq.head[1:]
    return RealizedSequence(head, seq.gamma, seq.n_cut)


def _certified_exp_sum(seq: RealizedSequence, tol: float = 1e-13):
    """Certified enclosure of sum_{n>=1} e^{s_n} (reused engine machinery)."""
    return certified_G(realize_model(seq, HOFBAUER), 1.0, 0.0, tol=tol)


def normalize(seq: RealizedSequence, target: float, tol: float = 1e-13) -> RealizedSequence:
    """Shift a_1 so that the certified sum of e^{s_n} equals the target.

    Only a_1 moves (a_0 stays free for the down-up perturbation and the tail
    stays exact), so the equation is linear in e^c and solved in closed form.
    Raises when the target is unreachable that way.
    """
    if not target > 0:
        raise ValueError("target must be positive")
    seq = seq.materialized(max(seq.n_cut, 2))
    total = _certified_exp_sum(seq, tol=tol)
    if total.divergent:
        raise ValueError("sum of e^{s_n} diverges; a_1 shift cannot normalize it")
    head1 = math.exp(seq.s(1))
    rest = total.midpoint - head1
    room = target - head1
    if room <= 0:
        raise ValueError(
            f"target {target} is not reachable by shifting a_1 alone: "
            f"e^{{s_1}} = {head1:.6g} already meets it; adjust the head values")
    c = math.log(room / rest)
    out = RealizedSequence((seq.head[0], seq.head[1] + c) + seq.head[2:],
                           seq.gamma, seq.n_cut)
    check = _certified_exp_sum(out, tol=tol)
    if not (check.lower - 1e-12 <= target <= check.upper + 1e-12):
        raise ArithmeticError(
            f"normalization failed: certified sum [{check.lower}, {check.upper}] "
            f"misses target {target}")
    return out


def dfu_perturb(seq: RealizedSequence, delta: float) -> RealizedSequence:
    """Raise a_0 to delta and rebalance a_1 so the normalization survives.

    Requires a grid-normalized sequence (a_0 = 0 and sum_{n>=2} e^{s_n} = 1).
    The rebalance is a_1 += delta' with delta' = log(2 - e^delta) - delta,
    the unique solution of e^delta/2 + e^{delta+delta'}/2 = 1; the combined
    drift 2*delta + delta' is strictly negative, which is what opens a
    transient window just above the first transition.
    """
    if not 0.0 < delta < LOG2:
        raise ValueError("delta must lie in (0, log 2)")
    if abs(seq.head[0]) > 1e-12:
        raise ValueError("sequence must have a_0 = 0 before the perturbation")
    rest = _certified_exp_sum(seq).midpoint - math.exp(seq.s(1))
    if abs(rest - 1.0) > 1e-9:
        raise ValueError("sequence must be normalized with sum_{n>=2} e^{s_n} = 1")
    d_prime = math.log(2.0 - math.exp(delta)) - delta
    if not 2.0 * delta + d_prime < 0:
        raise ArithmeticError("perturbation lost the negative drift 2*delta + delta'")
    seq = seq.materialized(max(seq.n_cut, 2))
    head = (delta, seq.head[1] + d_prime) + seq.head[2:]
    out = RealizedSequence(head, seq.gamma, seq.n_cut)
    check = _certified_exp_sum(out)
    if not (check.lower - 1e-12 <= 2.0 <= check.upper + 1e-12):
        raise ArithmeticError("perturbed sequence lost its normalization")
    return out


def realize_model(seq: RealizedSequence, family: str) -> RenewalModel:
    """Attach multiplicities and the floor: the engine-facing model.

    grid: m_n = 2^(n-1), floor log 2.  hofbauer: m_n = 1, floor 0.  The
    potential vanishes on the bad set in both families, so the floor has no
    t-slope.
    """
    if family == GRID:
        return RenewalModel(seq.s_values, seq.envelope(),
                            mult_slope=LOG2, mult_offset=-LOG2,
                            bad_entropy=LOG2, bad_value=0.0,
                            label=f"grid(gamma={seq.gamma})")
    if family == HOFBAUER:
        return RenewalModel(seq.s_values, seq.envelope(),
                            mult_slope=0.0, mult_offset=0.0,
                            bad_entropy=0.0, bad_value=0.0,
                            label=f"hofbauer(gamma={seq.gamma})")
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class SequenceSpec:
    """Config-facing description of a sequence model."""

    family: str
    gamma: float | None = None
    head: tuple = ()
    delta: float | None = None
    normalization_target: float | None = None
    normalize: bool = True
    leading_shift: float = 0.0

    def __post_init__(self):
        if self.family not in (GRID, HOFBAUER):
            raise ValueError(f"unknown family {self.family!r}")
        if self.delta is not None and not 0.0 < self.delta < LOG2:
            raise ValueError("delta must lie in (0, log 2)")
        object.__setattr__(self, "head", tuple(float(x) for x in self.head))


def from_spec(spec: SequenceSpec) -> RealizedSequence:
    """Assemble head, tail, normalization and perturbation from a spec."""
    n_cut = max(len(spec.head), 1)
    if spec.gamma is None:
        seq = RealizedSequence((0.0,) * n_cut, None, n_cut)
    else:
        seq = build_tail(spec.gamma, n_cut)
    if spec.head:
        seq = seq.with_head(spec.head)
    if spec.normalize:
        target = spec.normalization_target
        if target is None:
            target = _DEFAULT_TARGETS[spec.family]
        seq = normalize(seq, target)
    if spec.delta is not None:
        seq = dfu_perturb(seq, spec.delta)
    if spec.leading_shift:
        seq = with_leading_shift(seq, spec.leading_shift)
    return seq


def model_from_spec(spec: SequenceSpec) -> RenewalModel:
    return realize_model(from_spec(spec), spec.family)


def sequence_table(seq: RealizedSequence, n_max: int) -> np.ndarray:
    """Columns (n, a_n, s_n) for n = 0..n_max, with s_0 = 0."""
    ns = np.arange(0, n_max + 1, dtype=np.int64)
    a = np.array([seq.a(int(k)) for k in ns])
    s = np.zeros(len(ns))
    s[1:] = seq.s_values(ns[1:])
    return np.column_stack([ns.astype(float), a, s])
