"""Tests for Alexander-quandle colorings and the trace/coloring-count
equality for single-colored B-type braids."""

import numpy as np
import pytest

from stw.braid import BraidWord, parse_braid
from stw.cocycle import CocycleParams
from stw.cyclotomic import CycloNumber
from stw.double import context_for, sigma_action
from stw.group import GroupSpec
from stw.quandle import (
    AlexanderQuandle,
    braid_equation_holds,
    coloring_count,
    coloring_count_linear,
    quandle_axioms_hold,
    quandle_op,
    single_color_check,
)

SPEC = GroupSpec(11, 5, 4)

ORACLE_WORDS = {
    "unknot": BraidWord(1, ()),
    "hopf": BraidWord(2, (1, 1)),
    "trefoil": BraidWord(2, (1, 1, 1)),
    "figure_eight": parse_braid("s1 s2^-1 s1 s2^-1", 3),
    "borromean": parse_braid("s2 s1^-1 s2 s1^-1 s2 s1^-1", 3),
    "clasp": parse_braid("s2^-2 s1 s2^-1 s1", 3),
}


def test_quandle_construction():
    quandle = AlexanderQuandle.for_flux_class(SPEC, 1)
    assert quandle.modulus == 11
    assert quandle.multiplier == 4
    assert AlexanderQuandle.for_flux_class(SPEC, 2).multiplier == 5
    with pytest.raises(ValueError):
        AlexanderQuandle.for_flux_class(SPEC, 0)
    with pytest.raises(ValueError):
        AlexanderQuandle.for_flux_class(SPEC, 5)
    with pytest.raises(ValueError):
        AlexanderQuandle(11, 11)


def test_quandle_op_values():
    quandle = AlexanderQuandle.for_flux_class(SPEC, 1)
    assert quandle_op(quandle, 0, 1) == 4
    assert quandle_op(quandle, 1, 0) == (1 - 4) % 11
    for x in range(11):
        assert quandle_op(quandle, x, x) == x


def test_quandle_op_matches_braiding_flux_part():
    # The braiding on two B_{k,s} objects permutes coset bases by the
    # quandle operation: (x, y) -> (x > y, x).
    params = CocycleParams(SPEC, 1)
    for k in (1, 3):
        quandle = AlexanderQuandle.for_flux_class(SPEC, k)
        label = f"B_{k}_0"
        for x in range(11):
            for y in range(11):
                _, (left, right) = sigma_action(params, (label, label), (x, y))
                assert left == quandle_op(quandle, x, y)
                assert right == x


def test_axioms_all_flux_classes():
    for k in range(1, 5):
        quandle = AlexanderQuandle.for_flux_class(SPEC, k)
        assert quandle_axioms_hold(quandle)
        assert braid_equation_holds(quandle)


def test_axioms_fail_for_bad_multiplier():
    # Over a nonprime modulus a multiplier with 1 - t noninvertible
    # breaks left-invertibility: t = 6 mod 10 gives x > y = -5x + 6y.
    assert not quandle_axioms_hold(AlexanderQuandle(10, 6))


def test_coloring_counts_pinned():
    # Counts derived independently from the Alexander polynomial at
    # t = n^k: figure-eight splits at roots of t^2 - 3t + 1 mod 11.
    expected = {
        "unknot": [11, 11, 11, 11],
        "hopf": [11, 11, 11, 11],
        "trefoil": [11, 11, 11, 11],
        "figure_eight": [11, 121, 121, 11],
        "borromean": [11, 11, 11, 11],
        "clasp": [11, 11, 11, 11],
    }
    for name, word in ORACLE_WORDS.items():
        got = [
            coloring_count(AlexanderQuandle.for_flux_class(SPEC, k), word)
            for k in range(1, 5)
        ]
        assert got == expected[name], name


def test_enumeration_matches_linear_kernel():
    for word in ORACLE_WORDS.values():
        for k in range(1, 5):
            quandle = AlexanderQuandle.for_flux_class(SPEC, k)
            assert coloring_count(quandle, word) == coloring_count_linear(
                quandle, word
            )


def test_constant_colorings_always_survive():
    # Idempotence makes every constant tuple a valid coloring.
    for word in ORACLE_WORDS.values():
        for k in range(1, 5):
            quandle = AlexanderQuandle.for_flux_class(SPEC, k)
            assert coloring_count(quandle, word) >= 11


def test_single_color_check_all_words():
    for u in (0, 1, 4):
        params = CocycleParams(SPEC, u)
        for name, word in ORACLE_WORDS.items():
            for k, s in ((1, 0), (2, 3), (4, 4)):
                report = single_color_check(params, word, k, s)
                assert report.ok, (u, name, k, s)


def test_single_color_report_fields():
    params = CocycleParams(SPEC, 1)
    report = single_color_check(params, ORACLE_WORDS["trefoil"], 1, 0)
    assert report.ok
    assert report.label == "B_1_0"
    assert report.writhe == 3
    assert report.count == 11
    assert report.invariant == report.predicted


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (7, 2, 6)])
def test_predicted_value_is_built_without_a_product(group, monkeypatch):
    """`predicted` is count * zeta^(twist * writhe), one fixed phase with
    pin = count on the closure-value path of the traces: it equals the
    product ctx.root(e) * count of exact values, and no `CycloNumber`
    product is formed to get it."""
    spec = GroupSpec(*group)
    params = CocycleParams(spec, 1)
    ctx = context_for(params)
    words = list(ORACLE_WORDS.values()) + [parse_braid("s1 s2^-1 s3 s1 s2 s3^-1", 4)]
    cases = [(word, k, s) for word in words for k in range(1, spec.p) for s in (0, spec.p - 1)]
    expected = []
    for word, k, s in cases:
        count = coloring_count(AlexanderQuandle.for_flux_class(spec, k), word)
        e = ctx.tables[ctx.index_of(f"B_{k}_{s}")].twist_exp * word.writhe
        expected.append(ctx.root(e) * CycloNumber.from_rational(count, 1))

    def no_product(self, other):
        raise AssertionError("single_color_check formed a CycloNumber product")

    monkeypatch.setattr(CycloNumber, "__mul__", no_product)
    monkeypatch.setattr(CycloNumber, "__rmul__", no_product)
    for (word, k, s), value in zip(cases, expected):
        report = single_color_check(params, word, k, s)
        assert report.ok, (group, word, k, s)
        assert (report.predicted.num, report.predicted.den) == (value.num, value.den)


def _full_enumeration(quandle, word):
    """Reference: every one of the q^strands color tuples walked through
    the word, one crossing at a time, and the fixed ones counted."""
    q, t = quandle.modulus, quandle.multiplier
    t_inv = pow(t, -1, q)
    total = q**word.strands
    start = [(np.arange(total) // q**j) % q for j in reversed(range(word.strands))]
    state = list(start)
    for letter in word.letters:
        i = abs(letter) - 1
        x, y = state[i], state[i + 1]
        if letter > 0:
            state[i], state[i + 1] = ((1 - t) * x + t * y) % q, x
        else:
            state[i], state[i + 1] = y, (t_inv * (x - (1 - t) * y)) % q
    fixed = np.ones(total, dtype=bool)
    for end, begin in zip(state, start):
        fixed &= end == begin
    return int(np.count_nonzero(fixed))


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (13, 3, 3), (7, 2, 6)])
def test_pinned_count_equals_the_full_enumeration(group):
    """`coloring_count` enumerates only the tuples with strand 1 colored 0
    and multiplies by q; that must equal the count over all q^strands
    tuples, for random words on 1 to 5 strands and every t = n^k."""
    spec = GroupSpec(*group)
    rng = np.random.default_rng(sum(group))
    # The trivial 3-strand braid closes to three unlinked circles (q^3).
    words = list(ORACLE_WORDS.values()) + [BraidWord(3, ())]
    for strands in range(2, 6):
        for length in (2 * strands, 3 * strands):
            letters = rng.integers(1, strands, size=length) * rng.choice([-1, 1], size=length)
            words.append(BraidWord(strands, tuple(int(s) for s in letters)))
    for k in range(1, spec.p):
        quandle = AlexanderQuandle.for_flux_class(spec, k)
        for word in words:
            assert coloring_count(quandle, word) == _full_enumeration(quandle, word), (k, word)
