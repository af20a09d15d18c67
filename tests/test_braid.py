"""Tests for the colored braid engine: word parsing, closure structure,
operator relations, and framed/zero-framed traces."""

import copy
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stw import braid, double, modular
from stw.braid import (
    BraidWord,
    InconsistentColoringError,
    MonomialOperator,
    closure_structure,
    framed_invariant,
    framed_trace_counts,
    parse_braid,
    representation_operator,
    sparse_trace_counts,
    zero_framed_invariant,
    zero_framing_shifts,
)
from stw.cocycle import CocycleParams
from stw.cyclotomic import CycloNumber, euler_phi, root_of_unity
from stw.double import (
    DoubleContext,
    associator_scalar,
    context_for,
    enumerate_simples,
    qdim,
    sigma_action,
    sigma_inverse_action,
    twist,
)
from stw.group import GroupElement, GroupSpec

from conftest import dense_traces, reference_context

SPEC = GroupSpec(11, 5, 4)

# Two fixed 3-strand words used throughout: the first closes to a
# two-component link whose components are clasped with linking number -1
# and carry self-framings (-1, 0); the second is its mirror image.
CLASP = "s2^-2 s1 s2^-1 s1"
CLASP_MIRROR = "s2^-2 s1^-1 s2^2 s1^2"


def params(u: int) -> CocycleParams:
    return CocycleParams(SPEC, u)


# ----- parsing and word structure -------------------------------------------


def test_parse_basic():
    w = parse_braid("s1 s2^-1", 3)
    assert w.strands == 3
    assert w.letters == (1, -2)
    assert w.writhe == 0


def test_parse_exponents_and_separators():
    assert parse_braid("s1^3", 2).letters == (1, 1, 1)
    assert parse_braid("s1^-2,s2", 3).letters == (-1, -1, 2)
    assert parse_braid("", 4).letters == ()
    assert parse_braid(CLASP, 3).letters == (-2, -2, 1, -2, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_braid("t1", 3)
    with pytest.raises(ValueError):
        parse_braid("s3", 3)  # only s1, s2 exist on 3 strands
    with pytest.raises(ValueError):
        parse_braid("s0", 3)
    with pytest.raises(ValueError):
        parse_braid("s1^x", 3)


@pytest.mark.parametrize(
    "text, token",
    [("s", "s"), ("s1^", "s1^"), ("s1^x", "s1^x"), ("sx", "sx"), ("s1^-", "s1^-"), ("s 1", "s"),
     ("s1 s2^2^3", "s2^2^3"), ("s1,s^2", "s^2"), ("s1_0", "s1_0"), ("s\u0661", "s\u0661"),
     ("s+1", "s+1"), ("s1^2_0", "s1^2_0")],
)
def test_parse_names_the_malformed_token(text, token):
    """Every token that is not s<digits> or s<digits>^<signed digits>,
    ASCII digits only, is refused by name, not by the int() error of its
    empty or non-numeric part: int() would read "s1_0" as s10 and the
    Arabic-Indic digit one of "s\u0661" as s1."""
    with pytest.raises(ValueError) as err:
        parse_braid(text, 4)
    assert str(err.value) == f"cannot parse braid token {token!r}"


def test_parse_accepts_what_int_accepts():
    """Leading zeros in the index and exponent and a sign on the exponent
    parse as they always did: these are the parts of int()'s grammar that
    the token grammar keeps."""
    assert parse_braid("s01^+2 s2^-01 s1^0", 3).letters == (1, 1, -2)


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1, (1,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    w = BraidWord(3, (1, -2))
    assert w.inverse().letters == (2, -1)
    assert w.inverse().inverse() == w


# ----- closure structure -----------------------------------------------------


def test_closure_of_clasp_word():
    info = closure_structure(parse_braid(CLASP, 3))
    assert info.permutation == (3, 2, 1)
    assert info.components == ((1, 3), (2,))
    assert info.self_writhes == (-1, 0)
    assert info.writhe == -1
    assert info.component_of == (0, 1, 0)


def test_closure_of_mirror_clasp_word():
    info = closure_structure(parse_braid(CLASP_MIRROR, 3))
    assert info.permutation == (2, 1, 3)
    assert info.components == ((1, 2), (3,))
    assert info.self_writhes == (1, 0)
    assert info.writhe == 1


def test_closure_of_torus_words():
    # sigma_1^2 on two strands: one crossing pair, two components.
    info = closure_structure(BraidWord(2, (1, 1)))
    assert info.components == ((1,), (2,))
    assert info.self_writhes == (0, 0)
    # sigma_1^3: a single component with self-writhe 3 (trefoil).
    info = closure_structure(BraidWord(2, (1, 1, 1)))
    assert info.components == ((1, 2),)
    assert info.self_writhes == (3,)
    # (sigma_1 sigma_2^-1)^2 closes to a knot (figure-eight).
    info = closure_structure(parse_braid("s1 s2^-1 s1 s2^-1", 3))
    assert len(info.components) == 1
    assert info.self_writhes == (0,)


def test_closure_of_identity_words():
    info = closure_structure(BraidWord(3, ()))
    assert info.components == ((1,), (2,), (3,))
    assert info.writhe == 0


# ----- coloring consistency ---------------------------------------------------


def test_inconsistent_coloring_rejected():
    # Strands 1 and 3 close into one component, so they must carry the
    # same color.
    w = parse_braid(CLASP, 3)
    with pytest.raises(InconsistentColoringError):
        framed_invariant(params(1), w, ["B_1_0", "A_1_4", "B_2_1"])
    with pytest.raises(InconsistentColoringError):
        zero_framed_invariant(params(1), w, ["B_1_0", "A_1_4", "A_1_4"])


def test_unknown_color_rejected():
    with pytest.raises(KeyError):
        framed_invariant(params(1), BraidWord(2, (1,)), ["B_9_0", "B_9_0"])


# ----- single-strand and unlink traces ----------------------------------------


def test_identity_traces_give_total_dims():
    p = params(1)
    assert framed_invariant(p, BraidWord(1, ()), ["I_0"]) == CycloNumber.from_rational(1, 1)
    assert framed_invariant(p, BraidWord(1, ()), ["I_5"]) == CycloNumber.from_rational(5, 1)
    assert framed_invariant(p, BraidWord(1, ()), ["A_1_0"]) == CycloNumber.from_rational(5, 1)
    assert framed_invariant(p, BraidWord(1, ()), ["B_1_0"]) == CycloNumber.from_rational(11, 1)
    two = framed_invariant(p, BraidWord(2, ()), ["B_1_0", "A_1_4"])
    assert two == CycloNumber.from_rational(55, 1)


def test_single_positive_crossing_trace_is_dim_times_twist():
    # Closing one crossing gives an unknot with framing 1: d * theta.
    for u in (0, 1, 4):
        p = params(u)
        for obj in enumerate_simples(p):
            got = framed_invariant(p, BraidWord(2, (1,)), [obj.label, obj.label])
            assert got == qdim(obj) * twist(p, obj), (u, obj.label)


def test_single_negative_crossing_trace_is_dim_over_twist():
    p = params(1)
    for label in ("I_0", "I_6", "A_1_4", "A_2_7", "B_1_0", "B_3_2"):
        obj = next(s for s in enumerate_simples(p) if s.label == label)
        got = framed_invariant(p, BraidWord(2, (-1,)), [label, label])
        assert got == qdim(obj) * twist(p, obj).conjugate()


def test_zero_framed_unknot_is_dim():
    # Any framing of the unknot gives back d after the framing correction.
    p = params(2)
    for word in (BraidWord(2, (1,)), BraidWord(2, (1, 1, 1)), BraidWord(2, (-1,))):
        for label in ("I_5", "A_2_3", "B_2_1"):
            obj = next(s for s in enumerate_simples(p) if s.label == label)
            assert zero_framed_invariant(p, word, [label, label]) == qdim(obj)


# ----- operator-level relations -----------------------------------------------


TRIPLES = [
    ("B_1_0", "A_1_4", "B_2_1"),
    ("B_1_0", "B_2_3", "A_1_1"),
    ("A_1_1", "B_3_2", "I_5"),
    ("B_4_4", "B_1_2", "B_2_0"),
]


def test_braid_relation_on_operators():
    for u in (0, 1, 4):
        p = params(u)
        for colors in TRIPLES:
            lhs = representation_operator(p, BraidWord(3, (1, 2, 1)), colors)
            rhs = representation_operator(p, BraidWord(3, (2, 1, 2)), colors)
            assert lhs == rhs, (u, colors)


def test_braid_relation_with_inverses():
    p = params(3)
    for colors in TRIPLES[:2]:
        lhs = representation_operator(p, BraidWord(3, (-1, -2, -1)), colors)
        rhs = representation_operator(p, BraidWord(3, (-2, -1, -2)), colors)
        assert lhs == rhs


def test_far_commutation():
    p = params(1)
    colors = ("B_1_0", "A_1_4", "B_2_1", "A_2_3")
    lhs = representation_operator(p, BraidWord(4, (1, 3)), colors)
    rhs = representation_operator(p, BraidWord(4, (3, 1)), colors)
    assert lhs == rhs


def test_crossing_times_inverse_is_identity():
    for u in (0, 1, 4):
        p = params(u)
        for colors in TRIPLES:
            ident = representation_operator(p, BraidWord(3, ()), colors)
            for i in (1, 2):
                assert representation_operator(p, BraidWord(3, (i, -i)), colors) == ident
                assert representation_operator(p, BraidWord(3, (-i, i)), colors) == ident


def test_operator_composition_order():
    # The word (1, 2) must act as sigma_2 after sigma_1: check against a
    # manual composition of the two one-letter operators.
    p = params(1)
    colors = ("B_1_0", "A_1_4", "B_2_1")
    first = representation_operator(p, BraidWord(3, (1,)), colors)
    # After sigma_1 the colors of strands 1 and 2 swap.
    second = representation_operator(p, BraidWord(3, (2,)), ("A_1_4", "B_1_0", "B_2_1"))
    both = representation_operator(p, BraidWord(3, (1, 2)), colors)
    composed_perm = second.perm[first.perm]
    composed_exp = (first.exponents + second.exponents[first.perm]) % first.root_order
    assert both.source_dims == first.source_dims
    assert both.target_dims == second.target_dims
    assert np.array_equal(both.perm, composed_perm)
    assert np.array_equal(both.exponents, composed_exp)


# ----- Markov moves on the zero-framed trace ----------------------------------


def test_markov_stabilization():
    p = params(1)
    base = parse_braid("s1^2", 2)
    value = zero_framed_invariant(p, base, ["B_1_0", "A_1_4"])
    up = parse_braid("s1^2 s2", 3)
    down = parse_braid("s1^2 s2^-1", 3)
    assert zero_framed_invariant(p, up, ["B_1_0", "A_1_4", "A_1_4"]) == value
    assert zero_framed_invariant(p, down, ["B_1_0", "A_1_4", "A_1_4"]) == value


def test_markov_conjugation():
    p = params(4)
    w = parse_braid(CLASP, 3)
    colors = ["B_1_0", "A_1_4", "B_1_0"]
    value = zero_framed_invariant(p, w, colors)
    for g in (1, -1, 2, -2):
        conj = BraidWord(3, (g,) + w.letters + (-g,))
        # The top colors of the conjugated word reach the inner word only
        # after passing the conjugating crossing, so transport them.
        moved = list(colors)
        i = abs(g) - 1
        moved[i], moved[i + 1] = moved[i + 1], moved[i]
        assert zero_framed_invariant(p, conj, moved) == value, g


# ----- pinned link values -----------------------------------------------------


def test_clasp_link_pinned_value():
    # The two-component clasp closure with colors (B_1_0, A_1_4) at u=1.
    p = params(1)
    w = parse_braid(CLASP, 3)
    got = zero_framed_invariant(p, w, ["B_1_0", "A_1_4", "B_1_0"])
    assert got == CycloNumber.from_rational(55, 1) * root_of_unity(2, 11)


def test_clasp_link_exchange_symmetry():
    p = params(1)
    w = parse_braid(CLASP, 3)
    a = zero_framed_invariant(p, w, ["B_1_0", "A_1_4", "B_1_0"])
    b = zero_framed_invariant(p, w, ["A_1_4", "B_1_0", "A_1_4"])
    assert a == b


def test_clasp_link_mirror_is_conjugate():
    p = params(1)
    v = zero_framed_invariant(p, parse_braid(CLASP, 3), ["B_1_0", "A_1_4", "B_1_0"])
    m = zero_framed_invariant(
        p, parse_braid(CLASP_MIRROR, 3), ["B_1_0", "B_1_0", "A_1_4"]
    )
    assert m == v.conjugate()


def test_clasp_link_u_independent_on_mixed_pair():
    w = parse_braid(CLASP, 3)
    vals = [
        zero_framed_invariant(params(u), w, ["B_1_0", "A_1_4", "B_1_0"])
        for u in (0, 1, 4)
    ]
    assert vals[0] == vals[1] == vals[2]


# ----- the batched trace against one crossing at a time ------------------------


def _scalar_walk(params: CocycleParams, word: BraidWord, labels):
    """Walk the word one basis tuple and one crossing at a time with
    `sigma_action` / `sigma_inverse_action`, the colors carried along by
    hand, and the associator sandwich of `associator_scalar` on the Z_p
    parts left of each crossing.  Yields (start, end, exponent) for every
    start tuple in lexicographic order."""
    ctx = context_for(params)
    ne, p = ctx.root_order, params.spec.p
    exponent = {ctx.root(e).canonical_key(): e for e in range(ne)}
    bpart = {lab: ctx.tables[ctx.index_of(lab)].class_bpart for lab in labels}

    @lru_cache(maxsize=None)
    def crossing(letter, left_color, right_color, left, right):
        if letter > 0:
            phase, new = sigma_action(params, (left_color, right_color), (left, right))
        else:
            phase, new = sigma_inverse_action(params, (right_color, left_color), (left, right))
        return exponent[phase.canonical_key()], new

    @lru_cache(maxsize=None)
    def associator(left, b_i, b_next):
        flux = [GroupElement(0, m % p) for m in (left, b_i, b_next)]
        before = associator_scalar(params, flux)
        after = associator_scalar(params, [flux[0], flux[2], flux[1]])
        return exponent[after.canonical_key()] - exponent[before.canonical_key()]

    dims = [ctx.tables[ctx.index_of(lab)].dim for lab in labels]
    for start in itertools.product(*map(range, dims)):
        vecs, colors, e = list(start), list(labels), 0
        for letter in word.letters:
            i = abs(letter) - 1
            if i > 0:
                left = sum(bpart[c] for c in colors[:i])
                e += associator(left, bpart[colors[i]], bpart[colors[i + 1]])
            de, new = crossing(letter, colors[i], colors[i + 1], vecs[i], vecs[i + 1])
            e += de
            vecs[i], vecs[i + 1] = new
            colors[i], colors[i + 1] = colors[i + 1], colors[i]
        yield start, tuple(vecs), e % ne


def _scalar_trace(params: CocycleParams, word: BraidWord, labels) -> np.ndarray:
    """The trace histogram of one coloring from `_scalar_walk`."""
    counts = np.zeros(context_for(params).root_order, dtype=np.int64)
    for start, end, e in _scalar_walk(params, word, labels):
        if end == start:
            counts[e] += 1
    return counts


# Words whose crossings carry nonzero associator phases under the
# colorings of `_associator_batch`.
ASSOCIATOR_WORDS = [(3, (2, -1, 2, 2, -1)), (4, (3, -2, 1, 3, -2, -3))]


def _associator_batch(strands, letters):
    """One batch of closed colorings of the word at (7,3,2), u = 1, drawn
    from B objects so that its crossings carry associator phases: returns
    the params, the word, the colorings as labels and as indices."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    ctx = context_for(params)
    word = BraidWord(strands, letters)
    comps = closure_structure(word).components
    pool = ["B_1_0", "B_2_1", "B_1_2", "B_2_0"]
    colorings = []
    for shift in range(len(pool)):
        labels = [""] * strands
        for j, comp in enumerate(comps):
            for strand in comp:
                labels[strand - 1] = pool[(shift + j) % len(pool)]
        colorings.append(labels)
    idx = np.array([[ctx.index_of(lab) for lab in labels] for labels in colorings])
    return params, word, colorings, idx


@lru_cache(maxsize=None)
def _scalar_batch(strands, letters) -> np.ndarray:
    """The scalar walk's histograms of each coloring of `_associator_batch`."""
    params, word, colorings, _ = _associator_batch(strands, letters)
    return np.stack([_scalar_trace(params, word, labels) for labels in colorings])


@pytest.mark.parametrize("strands, letters", ASSOCIATOR_WORDS)
def test_batched_trace_matches_single_colorings_and_scalar_walk(strands, letters):
    """One batch of B colorings whose crossings carry nonzero associator
    phases: every row of the batched histograms equals that coloring
    traced alone and the scalar walk over its basis tuples, which applies
    the associator crossing by crossing."""
    params, word, colorings, idx = _associator_batch(strands, letters)
    ctx = context_for(params)
    prefixes = [BraidWord(strands, letters[:t]) for t in range(len(letters))]
    assert any(braid._associator(ctx, w, row) % ctx.root_order for w in prefixes for row in idx)
    batched = dense_traces(ctx, word, idx)
    assert batched.shape == (len(colorings), ctx.root_order)
    assert np.array_equal(batched, _scalar_batch(strands, letters))
    # A shift per coloring multiplies its trace by zeta^shift.
    shifts = 7 * np.arange(len(idx)) - 3
    rolled = np.stack([np.roll(row, shift) for row, shift in zip(batched, shifts)])
    assert np.array_equal(dense_traces(ctx, word, idx, shifts), rolled)
    for row, labels in zip(batched, colorings):
        assert np.array_equal(row, framed_trace_counts(params, word, labels)), labels


def test_batched_trace_over_runs_of_mixed_dimensions():
    """Start vectors are built per run of consecutive colorings with equal
    dimensions: the clasp word over every pair (a, b), in object order
    (a few long runs) and shuffled (runs of one), row by row equals each
    coloring traced alone."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    ctx = context_for(params)
    n = len(ctx.simples)
    pairs = np.array(list(itertools.product(range(n), repeat=2)))
    shuffled = pairs[np.random.default_rng(11).permutation(len(pairs))]
    word = parse_braid(CLASP, 3)
    singles = {}
    for batch in (pairs, shuffled):
        idx = batch[:, [0, 1, 0]]
        assert len(set(map(tuple, ctx.dims[idx].tolist()))) > 2
        for row, colors in zip(dense_traces(ctx, word, idx), idx.tolist()):
            if tuple(colors) not in singles:
                singles[tuple(colors)] = dense_traces(ctx, word, [colors])[0]
            assert np.array_equal(row, singles[tuple(colors)]), colors


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (7, 2, 6)])
@pytest.mark.parametrize("text, strands", [("s1^-2", 2), (CLASP, 3)])
@pytest.mark.parametrize("zero_framed", [False, True])
def test_sparse_traces_are_the_nonzero_bins(group, text, strands, zero_framed):
    """The CSR triples of `sparse_trace_counts` on every color pair of the
    S word and the clasp word, bare and with `zero_framing_shifts`, hold
    nonzero counts at exponents below N, increasing within each row, every
    count the pinned walk's count times the pin factor d; on every 7th
    coloring the row's bins are the nonzero bins of the one-coloring
    histogram `framed_trace_counts` with the same shift."""
    params = CocycleParams(GroupSpec(*group), 1)
    ctx = context_for(params)
    word = parse_braid(text, strands)
    info = closure_structure(word)
    n = len(ctx.simples)
    a, b = np.divmod(np.arange(n * n), n)
    first = np.isin(np.arange(1, strands + 1), max(info.components, key=len))
    colorings = np.where(first, a[:, None], b[:, None])
    shifts = zero_framing_shifts(ctx, info, colorings) if zero_framed else None
    indptr, exps, counts = sparse_trace_counts(ctx, word, colorings, shifts)
    assert indptr[0] == 0 and indptr[-1] == len(exps) == len(counts)
    assert (np.diff(indptr) >= 0).all()
    rows = np.arange(n * n).repeat(np.diff(indptr))
    assert ((exps >= 0) & (exps < ctx.root_order)).all() and (counts != 0).all()
    assert (np.diff(exps)[rows[1:] == rows[:-1]] > 0).all()
    pins = ctx.dims[colorings].max(axis=1)
    assert (pins > 1).any() and not (counts % pins[rows]).any()
    for c in range(0, n * n, 7):
        labels = [ctx.simples[k].label for k in colorings[c]]
        single = framed_trace_counts(params, word, labels, 0 if shifts is None else shifts[c])
        assert np.array_equal(exps[indptr[c] : indptr[c + 1]], single.nonzero()[0]), labels
        assert np.array_equal(counts[indptr[c] : indptr[c + 1]], single[single != 0]), labels


@pytest.mark.parametrize("strands, letters", ASSOCIATOR_WORDS)
@pytest.mark.parametrize("block", [1, 5, "all"])
def test_trace_does_not_depend_on_the_walk_block(monkeypatch, strands, letters, block):
    """The permutation pass walks `_WALK_BLOCK` tuples at a time: blocks of
    one tuple, blocks that straddle colorings (5 divides no coloring's 7^k
    tuples) and one block of exactly all tuples give the scalar walk.  One
    coloring alone (the one-coloring branch) spans several blocks too, and
    its framed invariant joins its blocks' phases the same way.  The walk
    takes the tuples of `_walked_tuples`, under the thresholds (these
    batches and colorings remove too few tuples for a second pin) and
    with the second pin wherever it gains (both thresholds 0)."""
    params, word, colorings, idx = _associator_batch(strands, letters)
    ctx = context_for(params)
    walks = []
    walk = braid._walk
    monkeypatch.setattr(braid, "_walk", lambda *args: walks.append(1) or walk(*args))
    for limit in (None, 0):
        if limit is not None:
            monkeypatch.setattr(braid, "_SECOND_PIN_MIN", limit)
            monkeypatch.setattr(braid, "_SECOND_PIN_BATCH_MIN", limit)
        for count in (len(idx), 1):
            batch, expected = idx[:count], _scalar_batch(strands, letters)[:count]
            dims = ctx.dims[batch]
            size = int(dims.prod(axis=1).sum()) if block == "all" else block
            monkeypatch.setattr(braid, "_WALK_BLOCK", size)
            walks.clear()
            assert np.array_equal(dense_traces(ctx, word, batch), expected)
            walked = sum(_walked_tuples(ctx, batch))
            assert len(walks) == -(-walked // size) and (block == "all" or len(walks) > 1)
        value = framed_invariant(params, word, colorings[0])
        assert value == CycloNumber.from_root_counts(ctx.root_order, expected[0])


def test_wide_vector_dtype_gives_the_same_histograms(monkeypatch):
    """Past 2^15 global vectors the tables and the walk use int32; no such
    context is small enough for the tests (the flagship has 345 vectors),
    so a fresh context is built on an uncached group's tables with the
    int32 dtype forced (the cached group must not change)."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    narrow = context_for(params)
    monkeypatch.setattr(double, "_narrow_dtype", lambda bound: np.int32)
    monkeypatch.setattr(double, "group_for", double.GroupTables)
    wide = DoubleContext(params)
    assert wide.group is not narrow.group
    assert narrow.action_state.dtype == narrow.inverse_state.dtype == np.int16
    assert wide.action_state.dtype == wide.inverse_state.dtype == np.int32
    n = len(narrow.simples)
    pairs = np.array(list(itertools.product(range(n), repeat=2)))
    batches = [
        (BraidWord(2, (-1, -1)), pairs),  # the S walk
        (parse_braid(CLASP, 3), pairs[:, [0, 1, 0]]),  # the W walk
    ]
    for strands, letters in ASSOCIATOR_WORDS:
        _, word, _, idx = _associator_batch(strands, letters)
        batches.append((word, idx))
    for word, idx in batches:
        assert braid._start(wide, idx)[0].dtype == np.int32
        assert np.array_equal(dense_traces(wide, word, idx), dense_traces(narrow, word, idx))


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4)])
def test_operator_fixed_points_reproduce_the_trace(group):
    """`representation_operator` and the traces walk the same crossings;
    on a closed coloring the associator cancels,
    so the operator's fixed points binned by exponent are the trace."""
    params = CocycleParams(GroupSpec(*group), 1)
    ctx = context_for(params)
    n = len(ctx.simples)
    rng = np.random.default_rng(5)
    traced = 0
    for word in [parse_braid(CLASP, 3)] + [BraidWord(*w) for w in ASSOCIATOR_WORDS]:
        comps = closure_structure(word).components
        for _ in range(4):
            colors = [0] * word.strands
            for comp in comps:
                color = int(rng.integers(n))
                for strand in comp:
                    colors[strand - 1] = color
            labels = [ctx.simples[c].label for c in colors]
            op = representation_operator(params, word, labels)
            assert op.source_dims == op.target_dims
            fixed = op.perm == np.arange(len(op.perm))
            expected = np.bincount(op.exponents[fixed], minlength=ctx.root_order)
            counts = dense_traces(ctx, word, [colors])[0]
            assert np.array_equal(counts, expected), labels
            traced += counts.sum()
    assert traced > 0


def test_operator_matches_scalar_walk_on_an_open_coloring():
    """On colors that do not close up the associator phases do not cancel,
    and the operator must carry them as the scalar walk does."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    ctx = context_for(params)
    word = BraidWord(3, (2, -1, 2, 2, -1))
    labels = ("B_1_0", "B_2_1", "B_1_2")
    assert braid._associator(ctx, word, [ctx.index_of(lab) for lab in labels]) % ctx.root_order
    op = representation_operator(params, word, labels)
    for i, (_, end, e) in enumerate(_scalar_walk(params, word, labels)):
        target = 0
        for v, d in zip(end, op.target_dims):
            target = target * d + v
        assert (op.perm[i], op.exponents[i]) == (target, e), i


def test_batched_trace_rejects_inconsistent_coloring():
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    ctx = context_for(params)
    good, bad = ["B_1_0", "A_1_2", "B_1_0"], ["B_1_0", "A_1_2", "B_2_0"]
    idx = [[ctx.index_of(lab) for lab in labels] for labels in (good, bad)]
    with pytest.raises(InconsistentColoringError, match=r"\(1, 3\).*B_1_0.*B_2_0"):
        sparse_trace_counts(ctx, parse_braid(CLASP, 3), idx)


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4)])
def test_associator_vanishes_on_closed_braids(group):
    """The associator exponent is a difference of values at the color
    sequences: it cancels on the braid relation for every left sum l and
    Z_p parts x, y, z, so it sums to zero on every consistent coloring of
    a closure, and only there."""
    spec = GroupSpec(*group)
    p = spec.p
    rng = np.random.default_rng(7)
    for u in range(p):
        params = CocycleParams(spec, u)
        ctx = context_for(params)

        def step(l, x, y):
            return ctx.omega_ne(l, y, x) - ctx.omega_ne(l, x, y)

        for l, x, y, z in itertools.product(range(p), repeat=4):
            one = step(l, x, y) + step(l + y, x, z) + step(l, y, z)
            other = step(l + x, y, z) + step(l, x, z) + step(l + z, x, y)
            assert (one - other) % ctx.root_order == 0, (u, l, x, y, z)
        b_objects = [i for i, s in enumerate(ctx.simples) if s.label.startswith("B_")]
        open_nonzero = 0
        for _ in range(40):
            strands = int(rng.integers(3, 6))
            letters = tuple(
                int(rng.choice((1, -1)) * rng.integers(1, strands)) for _ in range(6)
            )
            word = BraidWord(strands, letters)
            closed = np.zeros((8, strands), dtype=np.int64)
            for comp in closure_structure(word).components:
                closed[:, [s - 1 for s in comp]] = rng.choice(b_objects, size=(8, 1))
            for row in closed:
                assert braid._associator(ctx, word, row) % ctx.root_order == 0
            for row in rng.choice(b_objects, size=(8, strands)):
                open_nonzero += braid._associator(ctx, word, row) % ctx.root_order != 0
        assert open_nonzero > 0 or u == 0


# ----- one walked tuple per G-orbit on a pinned strand ------------------------


def _closed_colorings(rng, word: BraidWord, n: int, count: int) -> np.ndarray:
    """`count` random consistent colorings of the closure of the word,
    one random object of the n per closure component."""
    colorings = np.zeros((count, word.strands), dtype=np.int64)
    for comp in closure_structure(word).components:
        colorings[:, [s - 1 for s in comp]] = rng.integers(n, size=(count, 1))
    return colorings


def _random_word(rng, strands: int, length: int) -> BraidWord:
    """A random word of the given length (no letters on one strand)."""
    if strands == 1:
        return BraidWord(1, ())
    return BraidWord(strands, tuple(
        int(rng.choice((1, -1)) * rng.integers(1, strands)) for _ in range(length)
    ))


ORBIT_GROUPS = [(7, 3, 2), (11, 5, 4), (7, 2, 6), (5, 2, 4)]


@pytest.mark.parametrize("u", [0, 1])
@pytest.mark.parametrize("group", ORBIT_GROUPS)
def test_fixed_tuples_and_phases_are_constant_on_g_orbits(group, u):
    """The lemma behind the pinned walk: the braiding commutes with the
    diagonal action of G, so every g maps a fixed tuple of the operator of
    a closed coloring to a fixed tuple with the same phase exponent."""
    params = CocycleParams(GroupSpec(*group), u)
    ctx = context_for(params)
    rng = np.random.default_rng(sum(group) + 100 * u)
    checked = 0
    for _ in range(6):
        word = _random_word(rng, int(rng.integers(2, 5)), int(rng.integers(1, 8)))
        colors = _closed_colorings(rng, word, len(ctx.simples), 1)[0]
        op = representation_operator(params, word, colors.tolist())
        dims, offsets = ctx.dims[colors], ctx.offsets[colors]
        fixed = np.flatnonzero(op.perm == np.arange(len(op.perm)))
        local = np.stack(np.unravel_index(fixed, dims), axis=1)  # (F, strands)
        moved = ctx.action_state[:, local + offsets].astype(np.int64) - offsets  # (|G|, F, strands)
        image = np.ravel_multi_index(tuple(np.moveaxis(moved, -1, 0)), dims)
        assert np.array_equal(op.perm[image], image), (group, u, word, colors)
        assert np.array_equal(op.exponents[image], np.broadcast_to(op.exponents[fixed], image.shape))
        checked += len(fixed)
    assert checked > 0


@pytest.mark.parametrize("group", ORBIT_GROUPS)
def test_pinned_trace_matches_operator_fixed_points(group):
    """A trace walks one strand pinned to its object's first vector
    and multiplies by that object's dimension; on closed colorings of
    mixed dimensions on up to 5 strands, with shifts, it equals the
    fixed points of the full operator binned by exponent."""
    spec = GroupSpec(*group)
    rng = np.random.default_rng(sum(group))
    mixed = 0
    for u in (0, 1):
        params = CocycleParams(spec, u)
        ctx = context_for(params)
        ne = ctx.root_order
        for strands in range(1, 6):
            word = _random_word(rng, strands, int(rng.integers(strands, 2 * strands + 3)))
            colorings = _closed_colorings(rng, word, len(ctx.simples), 3)
            shifts = rng.integers(-ne, ne, size=len(colorings))
            counts = dense_traces(ctx, word, colorings, shifts)
            for row, colors, shift in zip(counts, colorings, shifts):
                op = representation_operator(params, word, colors.tolist())
                fixed = op.perm == np.arange(len(op.perm))
                expected = np.bincount((op.exponents[fixed] + shift) % ne, minlength=ne)
                assert np.array_equal(row, expected), (group, u, word, colors)
                mixed += expected.sum() > 0 and len(set(ctx.dims[colors].tolist())) > 1
    assert mixed > 0


def test_a_split_object_is_rejected_before_any_trace(monkeypatch):
    """The pinned walk needs G to act transitively on every object's
    vectors.  Let only the Z_p part of each group element act on the
    cosets of the flux b at (7,3,2), which splits the 7 vectors of each
    B_1_s into orbits of sizes 1, 3 and 3: the group's vector table, which
    its first context writes, refuses to build, naming B_1_0, the first
    object of the class.  Split the same
    way in writable copies of the vector tables of a built context, B_1_0
    gives the S trace of (B_1_0, B_2_0) as 7 instead of the full walk's
    1."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    coset_action = double.GroupTables._coset_action

    def zp_part(ctx):
        """The group index of the Z_p part of every group element."""
        gd = ctx.gdata
        return np.array([gd.index(GroupElement(0, m)) for m in range(ctx.spec.p)])[gd.b_part]

    def split_coset_action(self, cls):
        flux, reps, cent, j, s = coset_action(self, cls)
        if cls.representative.m == 1:
            zp = zp_part(self)
            j, s = j[zp], s[zp]
        return flux, reps, cent, j, s

    monkeypatch.setattr(double.GroupTables, "_coset_action", split_coset_action)
    with pytest.raises(AssertionError, match="not transitive on the vectors of B_1_0"):
        double.GroupTables(params.spec).write_vectors()  # uncached: the cached group stays whole
    monkeypatch.undo()
    ctx = copy.copy(context_for(params))
    ctx.crossing_state = ctx.crossing_state.copy()
    ctx.action_state, ctx.inverse_state = np.split(ctx.crossing_state, 2)
    table = ctx.tables[ctx.index_of("B_1_0")]
    cols = slice(table.offset, table.offset + table.dim)
    split = ctx.action_state[zp_part(ctx), cols]
    ctx.action_state[:, cols] = split
    ctx.inverse_state[:, cols] = split[ctx.gdata.inv_table]
    colors = np.array([[ctx.index_of("B_1_0"), ctx.index_of("B_2_0")]])
    word = BraidWord(2, (-1, -1))
    start = braid._start(ctx, colors)
    end, record = braid._walk(ctx, word, start)
    expo = braid._phases(ctx, record)
    fixed = (end[0] == start[0]) & (end[1] == start[1])
    full = np.bincount(expo[fixed] % ctx.root_order, minlength=ctx.root_order)
    assert full.sum() == 1
    assert sparse_trace_counts(ctx, word, colors)[2].sum() == 7


# ----- the second pin: one tuple per orbit of the pinned vector's stabiliser -


def _orbit_sizes(ctx, v: int, y: int) -> list[int]:
    """The sizes of the orbits of Stab(v) = {g : g.v = v} on the vectors
    of object y, in order of least member, from Python sets."""
    stab = np.flatnonzero(ctx.action_state[:, v] == v)
    seen, sizes = set(), []
    for w in range(ctx.offsets[y], ctx.offsets[y] + ctx.dims[y]):
        if w not in seen:
            orbit = set(ctx.action_state[stab, w].tolist())
            seen |= orbit
            sizes.append(len(orbit))
    return sizes


def _orbit_size(ctx, v: int, w: int) -> int:
    """The size of the orbit of vector w under Stab(v), as a Python set."""
    stab = np.flatnonzero(ctx.action_state[:, v] == v)
    return len(set(ctx.action_state[stab, w].tolist()))


def _walked_tuples(ctx, colorings) -> list[int]:
    """The tuples one call walks per coloring, by the rule of `stw.braid`
    with the orbits counted from Python sets: the first pin on the first
    strand of largest dimension d, the second on the strand j that leaves
    fewest tuples (d_j / orbits_j largest), taken only when the call's
    second pins remove more than `_SECOND_PIN_MIN` tuples in all (one
    coloring) or `_SECOND_PIN_BATCH_MIN` (several)."""
    rows = np.asarray(colorings).tolist()
    limit = braid._SECOND_PIN_MIN if len(rows) == 1 else braid._SECOND_PIN_BATCH_MIN
    first, second = [], []
    for row in rows:
        dims = ctx.dims[row].tolist()
        pin = dims.index(max(dims))
        total = math.prod(dims) // dims[pin]
        v = ctx.offsets[row[pin]]
        fewest = [total // d * len(_orbit_sizes(ctx, v, y)) for y, d in zip(row, dims)]
        first.append(total)
        second.append(min(fewest[:pin] + [total] + fewest[pin + 1 :]))
    return second if sum(first) - sum(second) > limit else first


SECOND_PIN_GROUPS = [(7, 3, 2), (13, 3, 3), (7, 2, 6), (11, 5, 4)]

# The unlink (every tuple fixed, so fixed tuples on every orbit), the S
# word, the clasp, two 4-strand words of two components (the second two
# Hopf links side by side), a 5-strand knot and a 5-strand word of four
# components.
SECOND_PIN_WORDS = [
    ("", 2),
    ("s1^-2", 2),
    (CLASP, 3),
    ("s1 s2^-1 s3 s1 s2 s3^-1", 4),
    ("s1^-2 s3^2", 4),
    ("s1 s2^-1 s3 s4^-1 s1 s2 s3^-1 s4", 5),
    ("s1^2 s2^-1 s3^2 s2 s4^-2 s3", 5),
]


@pytest.mark.parametrize("u", [0, 1])
@pytest.mark.parametrize("group", SECOND_PIN_GROUPS)
def test_second_pin_matches_operator_fixed_points(monkeypatch, group, u):
    """With the second pin taken wherever it gains (`_SECOND_PIN_MIN` and
    `_SECOND_PIN_BATCH_MIN` set to 0), `sparse_trace_counts` with shifts and the
    one-coloring `framed_invariant` and `framed_trace_counts` equal the
    fixed points of `representation_operator` over all tuples, with no
    pin.  The colorings put B objects on every component (strand j on
    orbits of sizes 1 and p, the size-1 orbit being the fixed vector),
    mix B with A and I objects (one orbit of <b> on an A object), and put
    A objects only (no strand gains under <a>).  Each batch walks the
    tuples of `_walked_tuples`."""
    monkeypatch.setattr(braid, "_SECOND_PIN_MIN", 0)
    monkeypatch.setattr(braid, "_SECOND_PIN_BATCH_MIN", 0)
    params = CocycleParams(GroupSpec(*group), u)
    ctx = context_for(params)
    ne = ctx.root_order
    kinds = {k: [i for i, s in enumerate(ctx.simples) if s.label[0] == k] for k in "ABI"}
    pools = [kinds["B"], kinds["B"] + kinds["A"] + kinds["I"], kinds["A"]]
    rng = np.random.default_rng(sum(group) + 10 * u)
    walked, walk = [], braid._walk
    monkeypatch.setattr(braid, "_walk", lambda c, w, s: walked.append(len(s[0])) or walk(c, w, s))
    sizes_seen, gains = set(), []
    for text, strands in SECOND_PIN_WORDS:
        word = parse_braid(text, strands)
        colorings = np.zeros((len(pools), strands), dtype=np.int64)
        for comp in closure_structure(word).components:
            colorings[:, [s - 1 for s in comp]] = [[rng.choice(pool)] for pool in pools]
        shifts = rng.integers(-ne, ne, size=len(colorings))
        walked.clear()
        indptr, exps, sparse = sparse_trace_counts(ctx, word, colorings, shifts)
        assert sum(walked) == sum(_walked_tuples(ctx, colorings))
        for c, (colors, shift) in enumerate(zip(colorings.tolist(), shifts)):
            op = representation_operator(params, word, colors)
            fixed = op.perm == np.arange(len(op.perm))
            expected = np.bincount((op.exponents[fixed] + shift) % ne, minlength=ne)
            assert np.array_equal(exps[indptr[c] : indptr[c + 1]], expected.nonzero()[0]), (group, u, text, colors)
            assert np.array_equal(sparse[indptr[c] : indptr[c + 1]], expected[expected > 0])
            bare = np.roll(expected, -shift)
            assert np.array_equal(framed_trace_counts(params, word, colors), bare)
            assert framed_invariant(params, word, colors) == CycloNumber.from_root_counts(ne, bare)
        sizes_seen.update(braid._fixed_phases(ctx, word, colorings, None)[3].tolist())  # all take it
        dims = ctx.dims[colorings]
        pin = dims.argmax(axis=1)
        pinned = dims.copy()
        pinned[np.arange(len(dims)), pin] = 1
        second = braid._second_pins(ctx, colorings, dims, pin, pinned)
        gains.append([-1] * len(dims) if second is None else second[0].tolist())
    assert {1, ctx.spec.p} <= sizes_seen  # the fixed vector's orbit and a full <b>-orbit
    b_row, mixed_row, a_row = np.array(gains).T
    assert (b_row >= 0).all() and (mixed_row >= 0).any() and (a_row == -1).all()


@pytest.mark.parametrize("u", [0, 1])
@pytest.mark.parametrize("group", [(11, 5, 4), (19, 3, 7)])
def test_one_coloring_walks_the_start_vectors_and_weights_of_its_batch_row(monkeypatch, group, u):
    """With the second pin taken wherever it gains (both thresholds 0),
    the one-coloring branch (`_closure_phases`) walks the start vectors of
    the same coloring's row in a batch (`_fixed_phases`), its second
    strand on the same orbit representatives, and gives its fixed tuples
    the same phases and the same orbit-size weights (1 where neither
    takes a second pin).  The colorings are those of
    `test_second_pin_matches_operator_fixed_points`: B objects only, B
    mixed with A and I objects, and A objects only."""
    monkeypatch.setattr(braid, "_SECOND_PIN_MIN", 0)
    monkeypatch.setattr(braid, "_SECOND_PIN_BATCH_MIN", 0)
    ctx = context_for(CocycleParams(GroupSpec(*group), u))
    kinds = {k: [i for i, s in enumerate(ctx.simples) if s.label[0] == k] for k in "ABI"}
    pools = [kinds["B"], kinds["B"] + kinds["A"] + kinds["I"], kinds["A"]]
    rng = np.random.default_rng(sum(group) + 10 * u)
    starts, walk = [], braid._walk
    monkeypatch.setattr(braid, "_walk", lambda c, w, s: starts.append(np.array(s)) or walk(c, w, s))
    second_pinned = 0
    for text, strands in SECOND_PIN_WORDS:
        word = parse_braid(text, strands)
        colorings = np.zeros((len(pools), strands), dtype=np.int64)
        for comp in closure_structure(word).components:
            colorings[:, [s - 1 for s in comp]] = [[rng.choice(pool)] for pool in pools]
        starts.clear()
        which, expo, pins, sizes = braid._fixed_phases(ctx, word, colorings, None)
        batch = np.concatenate(starts, axis=1)
        lo = 0
        for r, coloring in enumerate(colorings.tolist()):
            starts.clear()
            one_expo, pin, one_sizes = braid._closure_phases(ctx, word, coloring)
            one = np.concatenate(starts, axis=1)
            assert np.array_equal(batch[:, lo : lo + one.shape[1]], one), (text, coloring)
            lo += one.shape[1]
            row = which == r
            assert pin == pins[r] and np.array_equal(one_expo, expo[row])
            ones = np.ones(len(one_expo), dtype=np.int64)
            assert np.array_equal(
                ones if one_sizes is None else one_sizes, ones if sizes is None else sizes[row]
            ), (text, coloring)
            second_pinned += one_sizes is not None
        assert lo == batch.shape[1]
    assert second_pinned > 0


@pytest.mark.parametrize("group", SECOND_PIN_GROUPS)
def test_orbit_table_partitions_every_object(group):
    """The orbit table of a group: for every stabiliser of a first vector
    and every object, the orbit sizes sum to the object's dimension, the
    representatives are the least vectors of their orbits, increasing,
    and they agree with the orbits found from Python sets.  The table is
    the group's own, shared by every u, and a table built afresh on an
    uncached group's tables equals it."""
    spec = GroupSpec(*group)
    ctx = context_for(CocycleParams(spec, 1))
    table = ctx.group.orbits
    n = len(ctx.simples)
    assert (table.stab[ctx.dims == 1] == -1).all() and (table.stab[ctx.dims > 1] >= 0).all()
    assert table.stab_list == table.stab.tolist()
    for s in range(len(table.count)):
        v = ctx.offsets[table.stab_list.index(s)]  # the first vector of one object with this stabiliser
        stab = np.flatnonzero(ctx.action_state[:, v] == v)
        for y in range(n):
            offset, dim, count = ctx.offsets[y], ctx.dims[y], table.count[s, y]
            segment = table.reps[s, offset : offset + dim].tolist()
            assert sorted(segment) == list(range(offset, offset + dim))  # the object's vectors
            reps = [w - offset for w in segment[:count]]
            sizes = table.size[s, segment[:count]].tolist()
            assert count == len(_orbit_sizes(ctx, v, y)) and sum(sizes) == dim
            assert reps[0] == 0 and reps == sorted(reps)
            least = ctx.action_state[np.ix_(stab, segment[:count])].min(axis=0)
            assert least.tolist() == segment[:count]  # each the least vector of its orbit
            assert [_orbit_size(ctx, v, w) for w in segment] == table.size[s, segment].tolist()
            assert sizes == _orbit_sizes(ctx, v, y)
    other = double.GroupTables(spec).orbits
    for name in ("stab", "count", "reps", "size"):
        assert np.array_equal(getattr(other, name), getattr(table, name)), name
    assert other.stab_list == table.stab_list
    for u in range(spec.p):
        assert context_for(CocycleParams(spec, u)).group.orbits is table, u


def test_pass_one_walks_the_tuples_of_the_unpinned_strands(monkeypatch):
    """The walk takes prod_(i != pin, j) d_i * orbits_j tuples per
    coloring, the pinned strand being one of largest dimension and j the
    second pin, each tuple once, and each fixed tuple stands for d times
    the size of its strand-j orbit.  At (11,5,4), with the second pin
    wherever it gains (both thresholds 0): an S row of a B object walks
    sum_b orbits_b = 89 tuples (not the 345 of the first pin alone or
    the 11 * 345 of no pin), and the S and clasp walks of a theory 5,505
    and 36,425 (12,545 and 103,145 under the first pin alone).  Under the
    thresholds: the S row and every S block remove too few tuples and
    walk as before, the clasp walk takes 42,725 (two blocks of the five
    remove too few), a 5-strand closure colored by B objects 11^3 * 3
    (not 11^4), and random clasp colorings the tuples of `_walked_tuples`.
    No second walk runs: the phases are gathered from the record of the
    one walk, at the columns of exactly the fixed tuples."""
    ctx = context_for(params(1))
    n = len(ctx.simples)
    walks, gathers = [], []  # (fixed start vectors, fixed columns of the record, tuples)
    walk, phases = braid._walk, braid._phases

    def walk_spy(ctx, word, state):
        end, record = walk(ctx, word, state)
        fixed = np.all(np.array(end) == state, axis=0)
        walks.append((np.array(state)[:, fixed], record[:, fixed], len(state[0])))
        return end, record

    def phases_spy(ctx, record):
        gathers.append(record)
        return phases(ctx, record)

    monkeypatch.setattr(braid, "_walk", walk_spy)
    monkeypatch.setattr(braid, "_phases", phases_spy)

    def trace(word, colorings):
        walks.clear()
        gathers.clear()
        counts = dense_traces(ctx, word, colorings)
        walked = sum(size for _, _, size in walks)
        assert len(walks) == -(-walked // braid._WALK_BLOCK)  # one walk per block
        assert len(gathers) == len(walks)
        for (_, fixed, _), gathered in zip(walks, gathers):
            assert np.array_equal(gathered, fixed)
        return walked, np.concatenate([start for start, _, _ in walks], axis=1), counts

    def theory(word, colorings):
        """The tuples walked for all colorings, in blocks as `modular` walks them."""
        return sum(
            trace(word, colorings[lo : lo + modular._TRACE_BLOCK])[0]
            for lo in range(0, len(colorings), modular._TRACE_BLOCK)
        )

    a = ctx.index_of("B_1_0")
    assert ctx.dims[a] == ctx.dims.max() == 11
    v = ctx.offsets[a]
    s_word, clasp = BraidWord(2, (-1, -1)), parse_braid(CLASP, 3)
    s_row = np.stack([np.full(n, a), np.arange(n)], 1)
    pairs = np.array(list(itertools.product(range(n), repeat=2)))
    walked, fixed, row = trace(s_word, s_row)
    assert walked == ctx.dims.sum() == 345
    assert (fixed[0] == v).all()  # the pinned strand
    assert 11 * fixed.shape[1] == row.sum() > 0
    assert theory(s_word, pairs) == 12_545 and theory(clasp, pairs[:, [0, 1, 0]]) == 42_725
    word = parse_braid("s1 s2^-1 s3 s4^-1 s1 s2 s3^-1 s4", 5)
    b = ctx.index_of("B_2_1")
    walked, fixed, counts = trace(word, [[b] * 5])
    assert walked == 11**3 * 3
    assert (fixed[0] == ctx.offsets[b]).all()
    assert 11 * sum(_orbit_size(ctx, ctx.offsets[b], w) for w in fixed[1].tolist()) == counts.sum() > 0
    # Mixed dimensions: the largest one is pinned in each coloring.
    colorings = _closed_colorings(np.random.default_rng(2), clasp, n, 512)
    dims = ctx.dims[colorings]
    walked, _, _ = trace(clasp, colorings)
    assert walked == sum(_walked_tuples(ctx, colorings)) < (dims.prod(axis=1) // dims.max(axis=1)).sum()
    # The second pin wherever it gains.
    monkeypatch.setattr(braid, "_SECOND_PIN_MIN", 0)
    monkeypatch.setattr(braid, "_SECOND_PIN_BATCH_MIN", 0)
    walked, fixed, second_row = trace(s_word, s_row)
    assert walked == sum(len(_orbit_sizes(ctx, v, b)) for b in range(n)) == 89
    assert (fixed[0] == v).all()
    assert 11 * sum(_orbit_size(ctx, v, w) for w in fixed[1].tolist()) == second_row.sum()
    assert np.array_equal(second_row, row)
    assert theory(s_word, pairs) == 5_505 and theory(clasp, pairs[:, [0, 1, 0]]) == 36_425


def test_zero_framed_invariant_passes_over_the_word_once(monkeypatch):
    """A zero-framed invariant reads where the strands end, each
    component's first strand and the self-writhes from one pass over the
    word (`_closure_pass`), and builds no `closure_structure`; a framed
    invariant reads where the strands end from the same one pass."""
    calls = {"_closure_pass": 0, "closure_structure": 0}

    def spy(name):
        real = getattr(braid, name)

        def counted(word):
            calls[name] += 1
            return real(word)

        return counted

    for name in calls:
        monkeypatch.setattr(braid, name, spy(name))
    word = parse_braid(CLASP, 3)
    colors = ["B_1_0", "A_1_2", "B_1_0"]
    zero_framed_invariant(params(1), word, colors)
    assert calls == {"_closure_pass": 1, "closure_structure": 0}
    framed_invariant(params(1), word, colors)
    assert calls == {"_closure_pass": 2, "closure_structure": 0}


def test_closure_pass_matches_the_closure_structure():
    """`_closure_pass` and `closure_structure` agree on random words on 1
    to 6 strands: the strand at each top position, the components in
    order of least member and their self-writhes; the strand at each top
    position is also the one that swapping positions letter by letter
    leaves there."""
    rng = np.random.default_rng(23)
    for strands in range(1, 7):
        for _ in range(8):
            word = _random_word(rng, strands, int(rng.integers(0, 3 * strands)))
            strand_at, comp_of, firsts, writhes = braid._closure_pass(word)
            info = closure_structure(word)
            swapped = list(range(strands))
            for letter in word.letters:
                i = abs(letter) - 1
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert strand_at == swapped
            assert [info.permutation[s] - 1 for s in strand_at] == list(range(strands))
            assert tuple(comp_of) == info.component_of
            assert firsts == [comp[0] - 1 for comp in info.components]
            assert tuple(writhes) == info.self_writhes


def _tiled_start(ctx, colorings, dims):
    """The start vectors of `braid._start` as built coloring by coloring
    with `np.tile`/`np.repeat`: strand j's digit repeats each index
    prod(d[j+1:]) times and the pattern prod(d[:j]) times."""
    dtype = ctx.action_state.dtype
    strands = [[] for _ in range(colorings.shape[1])]
    for offsets, d in zip(ctx.offsets[colorings].astype(dtype), dims.tolist()):
        for j, offset in enumerate(offsets):
            digit = np.repeat(np.arange(d[j], dtype=dtype), int(np.prod(d[j + 1:])))
            strands[j].append(offset + np.tile(digit, int(np.prod(d[:j]))))
    return np.array([np.concatenate(strand) for strand in strands])


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4)])
def test_start_digits_match_the_tiled_construction(group):
    """`_start` adds each coloring's offsets to the digit grid of its row
    of dimensions, one broadcast add for one coloring and one per run of
    equal rows in a batch; its vectors equal the tile/repeat digits on 1
    to 5 strands, one coloring or several, with pinned strands (dimension
    1) and several runs."""
    ctx = context_for(CocycleParams(GroupSpec(*group), 1))
    rng = np.random.default_rng(sum(group))
    n = len(ctx.simples)
    for strands, count in itertools.product(range(1, 6), (1, 12)):
        count = min(count, 3) if strands == 5 else count
        colorings = rng.integers(n, size=(count, strands))
        colorings[count // 2 :] = colorings[count // 2]  # one run of equal rows
        dims = ctx.dims[colorings]
        pinned = dims.copy()
        pinned[np.arange(count), dims.argmax(axis=1)] = 1
        pinned[1::3, 0] = 1  # more ones, breaking the runs up
        for case in (dims, pinned):
            start = braid._start(ctx, colorings, case)
            expected = _tiled_start(ctx, colorings, case)
            assert start.dtype == expected.dtype == ctx.action_state.dtype
            assert np.array_equal(start, expected), (strands, case.tolist())
        assert np.array_equal(braid._start(ctx, colorings), _tiled_start(ctx, colorings, dims))
    # The digit grids are kept, one per row of dimensions, and read-only.
    assert braid._DIGIT_GRIDS
    for (dims, dtype), grid in braid._DIGIT_GRIDS.items():
        assert grid.shape == (len(dims), np.prod(dims)) and grid.dtype == dtype
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 1


def test_zero_framing_shifts_read_the_stored_twists():
    """`ctx.twist_exps` is the twist exponent of every object, and the
    shifts built from it equal those built from the per-object tables."""
    rng = np.random.default_rng(17)
    for group in ORBIT_GROUPS:
        ctx = context_for(CocycleParams(GroupSpec(*group), 1))
        listed = np.array([t.twist_exp for t in ctx.tables])
        assert np.array_equal(ctx.twist_exps, listed)
        for strands in (1, 2, 3, 4):
            word = _random_word(rng, strands, 2 * strands + 1)
            info = closure_structure(word)
            colorings = _closed_colorings(rng, word, len(ctx.simples), 6)
            firsts = [comp[0] - 1 for comp in info.components]
            expected = -listed[colorings][:, firsts] @ np.array(info.self_writhes)
            shifts = braid.zero_framing_shifts(ctx, info, colorings)
            assert np.array_equal(shifts, expected)


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4), (7, 2, 6)])
def test_one_coloring_invariants_are_rows_of_a_batch(group):
    """`zero_framed_invariant` and `framed_invariant` take the one-coloring
    branch (closure check, pin and start on the Python row, no coloring
    index, the value from the exponent counts); on random words on 1 to 5
    strands each equals its row of a batch `sparse_trace_counts` of several
    colorings, with and without `zero_framing_shifts`."""
    params = CocycleParams(GroupSpec(*group), 1)
    ctx = context_for(params)
    rng = np.random.default_rng(3 * sum(group))
    n = len(ctx.simples)
    small = np.flatnonzero(ctx.dims < ctx.dims.max())
    checked = 0
    for strands in range(1, 6):
        for _ in range(3):
            word = _random_word(rng, strands, int(rng.integers(0, 2 * strands + 2)))
            info = closure_structure(word)
            colorings = _closed_colorings(rng, word, n, 3)
            if strands == 5:  # at most one strand of the largest dimension
                colorings[1:] = rng.choice(small, size=(2, 1))
            batch = dense_traces(ctx, word, colorings)
            shifted = dense_traces(ctx, word, colorings, zero_framing_shifts(ctx, info, colorings))
            for coloring, row, zero_row in zip(colorings.tolist(), batch, shifted):
                labels = [ctx.simples[c].label for c in coloring]
                framed = framed_invariant(params, word, labels)
                assert framed == CycloNumber.from_root_counts(ctx.root_order, row)
                zero = zero_framed_invariant(params, word, coloring)
                assert zero == CycloNumber.from_root_counts(ctx.root_order, zero_row)
                assert np.array_equal(framed_trace_counts(params, word, labels), row)
                checked += 1
    assert checked == 45


def test_one_coloring_value_reduces_exponents_above_phi():
    """The value of one coloring is its exponent counts when every
    exponent is below phi(N) and `reduce_counts` of them otherwise: the
    twist B_1_0 itself is zeta^e with e >= phi(N) at (11,5,4), and the
    one-crossing closure that gives it equals the dense reduction."""
    params_ = params(1)
    ctx = context_for(params_)
    order = ctx.root_order
    word = BraidWord(1, ())
    high = [t for t in ctx.simples if ctx.twist_exps[ctx.index_of(t.label)] >= euler_phi(order)]
    assert high
    label = high[0].label
    twist_exp = int(ctx.twist_exps[ctx.index_of(label)])
    kink = BraidWord(2, (1,))
    value = framed_invariant(params_, kink, [label, label])
    hist = framed_trace_counts(params_, kink, [label, label])
    assert hist.nonzero()[0].tolist() == [twist_exp]
    assert value == CycloNumber.from_root_counts(order, hist)
    assert value.num != tuple(hist[: euler_phi(order)].tolist())
    assert framed_invariant(params_, word, [label]) == CycloNumber.from_rational(ctx.dims[ctx.index_of(label)], order)


@pytest.mark.parametrize("bad", [[-1, -1], [2.7, 2.7], [49, 49]])
def test_invalid_object_indices_are_refused(bad):
    """An object index must be an int in range(n): -1 does not count from
    the end and 2.7 does not truncate to 2."""
    word = BraidWord(2, (1, 1))
    with pytest.raises(ValueError, match=repr(bad[0])):
        zero_framed_invariant(params(1), word, bad)


# ----- the reduced word of a trace ----------------------------------------------


REDUCTION_GROUPS = [(7, 3, 2), (11, 5, 4), (13, 3, 3), (7, 2, 6)]


@st.composite
def _cancelling_words(draw):
    """A group, a theory u, a word on 2-5 strands with cancelling pairs
    put in (x, then letters far from x, then x^-1), and a coloring: any
    objects for the operator, one object per closure component for the
    traces."""
    group = draw(st.sampled_from(REDUCTION_GROUPS))
    u = draw(st.sampled_from([0, 1]))
    strands = draw(st.integers(2, 5))
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    letters = draw(st.lists(letter, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(letter)
        far = [y for y in draw(st.lists(letter, max_size=2)) if abs(abs(y) - abs(x)) >= 2]
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [x, *far, -x]
    word = BraidWord(strands, tuple(letters))
    n = len(context_for(CocycleParams(GroupSpec(*group), u)).simples)
    colors = draw(st.lists(st.integers(0, n - 1), min_size=strands, max_size=strands))
    closed = [0] * strands
    for comp in closure_structure(word).components:
        for j in comp:
            closed[j - 1] = colors[comp[0] - 1]
    return group, u, word, colors, closed


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_cancelling_words())
def test_reduced_word_acts_as_the_word(case):
    """The reduced word that every trace walks (`_reduced`) has the
    operator of the word as given, permutation and phases, associator
    included; the word and its reduction have equal framed and
    zero-framed invariants, both equal to the fixed points of the given
    word's operator; and `_closure_pass` reads the same closure from
    both."""
    group, u, word, colors, closed = case
    params = CocycleParams(GroupSpec(*group), u)
    reduced = braid._reduced(word)
    assert len(reduced.letters) <= len(word.letters) and reduced.strands == word.strands
    assert representation_operator(params, reduced, colors) == representation_operator(params, word, colors)
    assert braid._closure_pass(reduced) == braid._closure_pass(word)
    op = representation_operator(params, word, closed)
    fixed = op.perm == np.arange(len(op.perm))
    oracle = CycloNumber.from_root_counts(op.root_order, np.bincount(op.exponents[fixed], minlength=op.root_order))
    framed = framed_invariant(params, word, closed)
    assert framed == framed_invariant(params, reduced, closed) == oracle
    assert zero_framed_invariant(params, word, closed) == zero_framed_invariant(params, reduced, closed)


def test_reduction_cancels_inverse_pairs_across_far_letters():
    """The stack pass deletes s_i s_i^-1 and s_i^+-1 ... s_i^-+1 with only
    far letters between, also once an inner pair is gone, and keeps a
    pair with a near letter between."""
    cases = {
        (1, -1, 2): (2,),
        (1, 3, -1): (3,),
        (1, 2, -2, -1): (),
        (-2, 4, 1, -1, 2, 3): (4, 3),
        (1, 2, -1): (1, 2, -1),
        (3, 1, -1, -3, 2): (2,),
    }
    for letters, expected in cases.items():
        assert braid._reduced(BraidWord(5, letters)).letters == expected, letters
    word = BraidWord(4, (1, 2, 3))
    assert braid._reduced(word) is word


@pytest.mark.parametrize("text, strands, walked", [("s1 s1^-1 s2", 3, (2,)), ("s1 s3 s1^-1", 4, (3,))])
def test_traces_walk_the_reduced_word(monkeypatch, text, strands, walked):
    """A `_walk` spy: each trace of these words, one coloring (framed and
    zero-framed) or a batch, walks one letter."""
    params = CocycleParams(SPEC, 1)
    ctx = context_for(params)
    word = parse_braid(text, strands)
    seen, walk = [], braid._walk
    monkeypatch.setattr(braid, "_walk", lambda c, w, s: seen.append(w.letters) or walk(c, w, s))
    labels = ["B_1_0"] * strands
    framed_invariant(params, word, labels)
    zero_framed_invariant(params, word, labels)
    b = ctx.index_of("B_1_0")
    sparse_trace_counts(ctx, word, [[b] * strands, [ctx.index_of("A_1_2")] * strands])
    assert seen == [walked] * 3
    # The operator walks the word as given.
    seen.clear()
    representation_operator(params, word, labels)
    assert seen == [word.letters]


# ----- every theory on the group's one phase table ---------------------------


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4), (7, 2, 6), (13, 3, 3), (19, 3, 7), (43, 7, 4)])
def test_every_theory_walks_the_one_phase_table_with_its_shifts(monkeypatch, group):
    """Fact 2 of `stw.braid`: for every u, the S traces, both clasp words'
    zero-framed traces (over every pair of objects, a seeded sample of
    them at (43,7,4)) and seeded closures (in a batch and as one
    coloring), walked on the group's table of theory 0 with the
    per-coloring shift u sigma, equal the same walks over theory u's own
    table (`reference_context`); so do seeded operators of open
    colorings, whose shift the associator does not cancel."""
    spec = GroupSpec(*group)
    rng = np.random.default_rng(sum(group))
    for u in range(spec.p):
        params = CocycleParams(spec, u)
        ctx = context_for(params)
        ref = reference_context(ctx)
        n = len(ctx.simples)
        pairs = np.stack(np.divmod(np.arange(n * n), n), 1)
        if len(pairs) > 4096:  # (43,7,4): a seeded sample of its 313^2 pairs
            pairs = pairs[np.sort(rng.choice(len(pairs), 4096, replace=False))]
        cases = [(BraidWord(2, (-1, -1)), pairs, None)]
        for text in (modular.WHITEHEAD_WORD, modular.WHITEHEAD_MIRROR_WORD):
            word = parse_braid(text, 3)
            info = closure_structure(word)
            doubled = np.isin(np.arange(1, 4), max(info.components, key=len))
            colorings = np.where(doubled, pairs[:, :1], pairs[:, 1:])
            cases.append((word, colorings, zero_framing_shifts(ctx, info, colorings)))
        for _ in range(8):
            word = _random_word(rng, int(rng.integers(2, 6)), int(rng.integers(1, 10)))
            cases.append((word, _closed_colorings(rng, word, n, 16), None))
        for word, colorings, shifts in cases:
            for rows in (colorings, colorings[-1:]):
                part = None if shifts is None else shifts[-len(rows):]
                got = sparse_trace_counts(ctx, word, rows, part)
                want = sparse_trace_counts(ref, word, rows, part)
                assert all(map(np.array_equal, got, want)), (group, u, word.letters)
        words = [_random_word(rng, int(rng.integers(2, 5)), int(rng.integers(1, 8))) for _ in range(8)]
        colors = [rng.integers(n, size=word.strands).tolist() for word in words]
        ops = [representation_operator(params, word, c) for word, c in zip(words, colors)]
        with monkeypatch.context() as patch:
            patch.setattr(braid, "context_for", lambda _: ref)
            assert ops == [representation_operator(params, word, c) for word, c in zip(words, colors)]
