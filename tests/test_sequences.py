import math

import numpy as np
import pytest

from thermoform import certified_G, classify, solve_pressure
from thermoform.sequences import (GRID, HOFBAUER, RealizedSequence, SequenceSpec,
                                  build_tail, dfu_perturb, from_spec,
                                  model_from_spec, normalize, realize_model,
                                  sequence_table, with_leading_shift)

LOG2 = math.log(2.0)


def test_build_tail_values():
    seq = build_tail(3.0, 1)
    assert seq.a(5) == pytest.approx(3.0 * math.log(5.0 / 6.0), abs=1e-16)
    with pytest.raises(ValueError):
        build_tail(1.0, 1)
    with pytest.raises(ValueError):
        build_tail(2.0, 0)


def test_telescoping_closed_form():
    # gamma = 2, all-tail from index 1 with a_0 = 0:
    # s_n = 2 * log(1/n) for n >= 1
    seq = build_tail(2.0, 1)
    ns = np.arange(1, 50)
    assert np.allclose(seq.s_values(ns), -2.0 * np.log(ns), atol=1e-14)


def test_telescoping_matches_accumulation_to_1e5():
    seq = build_tail(1.7, 4)
    n = 100_000
    acc = math.fsum(seq.a(k) for k in range(n))
    assert abs(acc - seq.s(n)) <= 1e-14 * max(1.0, abs(acc)) + 1e-14


def test_envelope_is_exact_for_tail_families():
    seq = build_tail(2.5, 3)
    env = seq.envelope()
    assert env.eps == 0.0 and env.log_coeff == 2.5
    ns = np.arange(3, 2000)
    assert np.allclose(seq.s_values(ns), env.center(ns), atol=1e-12)


def test_normalize_hits_target_certified():
    for gamma, target in [(3.0, 2.0), (1.5, 2.0), (1.2, 1.7)]:
        seq = normalize(build_tail(gamma, 1), target)
        g = certified_G(realize_model(seq, HOFBAUER), 1.0, 0.0, tol=1e-13)
        assert g.lower - 1e-12 <= target <= g.upper + 1e-12
        assert g.width <= 1e-12


def test_normalize_grid_post_condition():
    seq = normalize(build_tail(3.0, 1), 2.0)
    g = certified_G(realize_model(seq, GRID), 1.0, LOG2, tol=1e-13)
    assert g.contains(1.0)


def test_normalize_geometric_head_no_shift():
    # a_k = -log 2 for all k within the head: sum e^{s_n} = 1 already
    seq = RealizedSequence((-LOG2,) * 40, 3.0, 40)
    before = seq.head[1]
    out = normalize(seq, 1.0 + float(np.sum(np.exp(seq.s_values(np.arange(41, 10000))))))
    # the shift needed is tiny because the target matches the current sum
    assert out.head[1] == pytest.approx(before, abs=1e-6)


def test_normalize_unreachable_target_raises():
    with pytest.raises(ValueError, match="head"):
        normalize(build_tail(3.0, 1), 0.5)  # e^{s_1} = 1 > 0.5 already


def test_normalize_divergent_sum_raises():
    seq = RealizedSequence((0.0,) * 3, None, 3)  # zero tail, sum diverges
    with pytest.raises(ValueError, match="diverges"):
        normalize(seq, 2.0)


def test_dfu_perturb_identities():
    delta = 0.2
    seq = dfu_perturb(normalize(build_tail(3.0, 1), 2.0), delta)
    d_prime = math.log(2.0 - math.exp(delta)) - delta
    assert seq.a(0) == pytest.approx(delta, abs=1e-15)
    assert 2.0 * delta + d_prime < 0.0
    g = certified_G(realize_model(seq, GRID), 1.0, LOG2, tol=1e-13)
    assert g.contains(1.0)


def test_dfu_perturb_delta_to_zero():
    base = normalize(build_tail(3.0, 1), 2.0)
    tiny = dfu_perturb(base, 1e-9)
    assert tiny.a(0) == pytest.approx(0.0, abs=2e-9)
    assert tiny.a(1) == pytest.approx(base.a(1), abs=4e-9)


def test_dfu_perturb_rejects_bad_input():
    with pytest.raises(ValueError):
        dfu_perturb(normalize(build_tail(3.0, 1), 2.0), 0.8)  # >= log 2
    with pytest.raises(ValueError):
        dfu_perturb(build_tail(3.0, 1), 0.2)  # not normalized


def test_dfu_perturb_larger_delta_recheck():
    seq = dfu_perturb(normalize(build_tail(3.0, 1), 2.0), 0.5)
    g = certified_G(realize_model(seq, GRID), 1.0, LOG2, tol=1e-13)
    assert g.contains(1.0) and g.width <= 1e-12


def test_hofbauer_head_rows():
    seq = RealizedSequence((-math.log(4.0),) * 25, 3.0, 25)
    total = certified_G(realize_model(seq, HOFBAUER), 1.0, 0.0)
    assert total.upper < 1.0  # transient row by geometric domination
    assert classify(realize_model(seq, HOFBAUER), 1.0).kind == "transient"


def test_realize_model_envelopes():
    seq = normalize(build_tail(2.2, 1), 2.0)
    grid = realize_model(seq, GRID)
    assert grid.mult_slope == pytest.approx(LOG2)
    assert grid.bad_entropy == pytest.approx(LOG2)
    hof = realize_model(seq, HOFBAUER)
    assert hof.mult_slope == 0.0 and hof.bad_entropy == 0.0
    assert grid.envelope.log_coeff == 2.2
    with pytest.raises(ValueError):
        realize_model(seq, "unknown")


def test_leading_shift_scales_sums():
    seq = normalize(build_tail(3.0, 1).with_head([-LOG2]), 1.0)
    shifted = with_leading_shift(seq, -LOG2)
    total = certified_G(realize_model(shifted, HOFBAUER), 1.0, 0.0, tol=1e-13)
    assert total.contains(0.5) and total.width <= 1e-12


def test_sequence_values_go_to_zero():
    for seq in (build_tail(1.5, 1), normalize(build_tail(3.0, 2), 2.0)):
        assert abs(seq.a(10 ** 6)) < 1e-5


def test_sequence_table_shape():
    seq = build_tail(2.0, 1)
    table = sequence_table(seq, 6)
    assert table.shape == (7, 3)
    assert table[0, 2] == 0.0  # s_0
    assert table[3, 2] == pytest.approx(seq.s(3))


def test_from_spec_pipeline():
    spec = SequenceSpec(family=GRID, gamma=3.0, delta=0.2)
    seq = from_spec(spec)
    assert seq.a(0) == pytest.approx(0.2)
    model = model_from_spec(spec)
    root = solve_pressure(model, 1.0)
    assert root.at_floor and root.pressure == pytest.approx(LOG2)
    with pytest.raises(ValueError):
        SequenceSpec(family="nope")
    with pytest.raises(ValueError):
        SequenceSpec(family=GRID, delta=1.0)
