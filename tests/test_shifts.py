import math

import numpy as np
import pytest

from thermoform import (FiniteShift, LocallyConstantPotential, birkhoff_sum,
                        cycle_shift, disjoint_union, enumerate_periodic_words,
                        full_shift, golden_mean_shift, is_admissible,
                        is_topologically_mixing, renewal_shift)


def test_shift_validation():
    with pytest.raises(ValueError):
        FiniteShift(2, np.array([[1, 1], [0, 0]]))  # zero row
    with pytest.raises(ValueError):
        FiniteShift(2, np.array([[1, 0], [1, 0]]))  # zero column
    with pytest.raises(ValueError):
        FiniteShift(2, np.array([[1, 2], [1, 0]]))  # not 0/1
    with pytest.raises(ValueError):
        FiniteShift(0, np.zeros((0, 0)))


def test_edge_list_matches_dense_matrix():
    t = np.array([[0, 1, 1], [1, 0, 0], [0, 1, 1]])
    rows, cols = np.nonzero(t)
    order = [4, 0, 3, 1, 2]  # any edge order
    shift = FiniteShift.from_edges(3, rows[order], cols[order])
    dense = FiniteShift(3, t)
    assert np.array_equal(shift.indptr, dense.indptr)
    assert np.array_equal(shift.indices, dense.indices)
    assert np.array_equal(shift.dense(), t)
    assert [list(shift.successors(i)) for i in range(3)] == [[1, 2], [0], [1, 2]]
    assert shift.allows(0, 2) and not shift.allows(1, 2)
    with pytest.raises(ValueError):
        FiniteShift.from_edges(2, [0, 0, 1], [1, 1, 0])  # repeated edge
    with pytest.raises(ValueError):
        FiniteShift.from_edges(2, [0, 1], [1, 2])  # target outside the alphabet
    with pytest.raises(ValueError):
        FiniteShift.from_edges(2, [0, 1], [1, 1])  # symbol 0 has no predecessor


def test_admissibility_full_shift():
    assert is_admissible((0, 1, 0), full_shift(2))


def test_admissibility_renewal_matrix():
    shift = renewal_shift(6)
    # 0 -> 3 -> 2 -> 1 -> 0 follows the ladder-and-reset pattern
    assert is_admissible((0, 3, 2, 1, 0), shift)
    assert not is_admissible((1, 3), shift)
    with pytest.raises(ValueError):
        is_admissible((0, 9), shift)


def test_mixing_verdicts():
    assert is_topologically_mixing(full_shift(3)) is True
    assert is_topologically_mixing(disjoint_union(full_shift(2), full_shift(2))) is False
    assert is_topologically_mixing(cycle_shift(2)) is False
    assert is_topologically_mixing(golden_mean_shift()) is True


def test_long_cycle_is_not_mixing_without_a_dense_matrix():
    # 5000 symbols is past DENSE_LIMIT, so only the period test can answer;
    # one loop at symbol 0 makes the cycle primitive
    m = 5000
    sources, targets = np.arange(m), (np.arange(m) + 1) % m
    cycle = FiniteShift.from_edges(m, sources, targets)
    looped = FiniteShift.from_edges(m, np.append(sources, 0), np.append(targets, 0))
    assert is_topologically_mixing(cycle) is False
    assert is_topologically_mixing(looped) is True


def test_enumerate_counts_full_shift():
    assert len(enumerate_periodic_words(full_shift(2), 3)) == 8
    assert enumerate_periodic_words(cycle_shift(2), 3) == []


def test_enumerate_counts_match_matrix_trace():
    rng = np.random.default_rng(7)
    for trial in range(12):
        m = rng.integers(2, 7)
        t = (rng.random((m, m)) < 0.45).astype(np.int8)
        np.fill_diagonal(t, np.maximum(t.diagonal(), rng.random(m) < 0.5))
        if np.any(t.sum(0) == 0) or np.any(t.sum(1) == 0):
            continue
        shift = FiniteShift(m, t)
        power = np.eye(m, dtype=np.int64)
        for n in range(1, 9):
            power = power @ t.astype(np.int64)
            count = len(enumerate_periodic_words(shift, n))
            assert count == int(np.trace(power)), (trial, n)


def test_enumerate_full2_to_n12():
    t = np.ones((2, 2), dtype=np.int64)
    power = np.eye(2, dtype=np.int64)
    for n in range(1, 13):
        power = power @ t
        assert len(enumerate_periodic_words(full_shift(2), n)) == int(np.trace(power))


def test_enumerate_six_symbols_to_n12():
    shift = renewal_shift(6)
    t = shift.dense().astype(np.int64)
    power = np.eye(6, dtype=np.int64)
    for n in range(1, 13):
        power = power @ t
        assert len(enumerate_periodic_words(shift, n)) == int(np.trace(power))
    assert is_topologically_mixing(shift) is True


def test_enumeration_is_lexicographic():
    words = enumerate_periodic_words(full_shift(2), 3)
    assert words == sorted(words)


def test_birkhoff_depth1():
    shift = full_shift(2)
    p, q = 0.3, 0.7
    pot = LocallyConstantPotential.from_symbol_values(shift, [math.log(p), math.log(q)])
    assert birkhoff_sum(pot, (0, 0, 1)) == pytest.approx(2 * math.log(p) + math.log(q), abs=1e-15)
    zero = LocallyConstantPotential.constant(shift, 0.0)
    assert birkhoff_sum(zero, (0, 1, 1, 0)) == 0.0


def test_symbol_values_errors_match_the_dict_path():
    shift = full_shift(3)
    with pytest.raises(ValueError, match=r"value for \(1,\) is not finite"):
        LocallyConstantPotential.from_symbol_values(shift, [0.0, math.inf, 1.0])
    with pytest.raises(ValueError, match=r"missing \[\(2,\)\], extra \[\]"):
        LocallyConstantPotential.from_symbol_values(shift, [0.0, 1.0])
    pot = LocallyConstantPotential.from_symbol_values(full_shift(2), [0.5, -1.0])
    assert list(pot.values.items()) == [((0,), 0.5), ((1,), -1.0)]
    assert pot == LocallyConstantPotential(1, {(0,): 0.5, (1,): -1.0})
    for key in ((2,), (0, 1), (-1,)):
        with pytest.raises(KeyError):
            pot(key)


def test_birkhoff_depth2_cyclic():
    shift = full_shift(2)
    vals = {(0, 0): 0.5, (0, 1): -1.0, (1, 0): 2.0, (1, 1): 0.25}
    pot = LocallyConstantPotential(2, vals, shift)
    # contexts of (0, 1, 1) read cyclically: (0,1), (1,1), (1,0)
    assert birkhoff_sum(pot, (0, 1, 1)) == pytest.approx(-1.0 + 0.25 + 2.0)


def test_birkhoff_rotation_invariance():
    rng = np.random.default_rng(3)
    shift = full_shift(3)
    vals = {w: float(rng.normal()) for w in
            [(a, b) for a in range(3) for b in range(3)]}
    pot = LocallyConstantPotential(2, vals, shift)
    word = (0, 2, 1, 1, 0)
    base = birkhoff_sum(pot, word)
    for r in range(1, len(word)):
        rotated = word[r:] + word[:r]
        assert birkhoff_sum(pot, rotated) == pytest.approx(base, abs=1e-12)


def test_birkhoff_inadmissible_context_raises():
    pot = LocallyConstantPotential(2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0},
                                   golden_mean_shift())
    with pytest.raises(ValueError):
        birkhoff_sum(pot, (1, 1, 0))

