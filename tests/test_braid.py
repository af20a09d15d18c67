"""Tests for the colored braid engine: word parsing, closure structure,
operator relations, and framed/zero-framed traces."""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from stw import braid, double
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
    trace_counts,
    zero_framed_invariant,
    zero_framing_shifts,
)
from stw.cocycle import CocycleParams
from stw.cyclotomic import CycloNumber, _roll_rows, root_of_unity
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
    batched = trace_counts(ctx, word, idx)
    assert batched.shape == (len(colorings), ctx.root_order)
    assert np.array_equal(batched, _scalar_batch(strands, letters))
    # A shift per coloring multiplies its trace by zeta^shift.
    shifts = 7 * np.arange(len(idx)) - 3
    assert np.array_equal(trace_counts(ctx, word, idx, shifts), _roll_rows(batched, shifts))
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
        for row, colors in zip(trace_counts(ctx, word, idx), idx.tolist()):
            if tuple(colors) not in singles:
                singles[tuple(colors)] = trace_counts(ctx, word, [colors])[0]
            assert np.array_equal(row, singles[tuple(colors)]), colors


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (7, 2, 6)])
@pytest.mark.parametrize("text, strands", [("s1^-2", 2), (CLASP, 3)])
@pytest.mark.parametrize("zero_framed", [False, True])
def test_sparse_traces_are_the_nonzero_bins(group, text, strands, zero_framed):
    """The CSR triples of `sparse_trace_counts` on every color pair of the
    S word and the clasp word, bare and with `zero_framing_shifts`, are
    the nonzero bins of `trace_counts` row by row, exponents increasing:
    an empty row where no tuple is fixed, and every count the pinned
    walk's count times the pin factor d."""
    ctx = context_for(CocycleParams(GroupSpec(*group), 1))
    word = parse_braid(text, strands)
    info = closure_structure(word)
    n = len(ctx.simples)
    a, b = np.divmod(np.arange(n * n), n)
    first = np.isin(np.arange(1, strands + 1), max(info.components, key=len))
    colorings = np.where(first, a[:, None], b[:, None])
    shifts = zero_framing_shifts(ctx, info, colorings) if zero_framed else None
    dense = trace_counts(ctx, word, colorings, shifts)
    indptr, exps, counts = sparse_trace_counts(ctx, word, colorings, shifts)
    rows, bins = dense.nonzero()
    assert np.array_equal(np.diff(indptr), np.count_nonzero(dense, axis=1)) and indptr[0] == 0
    assert np.array_equal(exps, bins) and np.array_equal(counts, dense[rows, bins])
    pins = ctx.dims[colorings].max(axis=1)
    assert (pins > 1).any() and not (counts % pins[rows]).any()


@pytest.mark.parametrize("strands, letters", ASSOCIATOR_WORDS)
@pytest.mark.parametrize("block", [1, 5, "all"])
def test_trace_does_not_depend_on_the_walk_block(monkeypatch, strands, letters, block):
    """The permutation pass walks `_WALK_BLOCK` tuples at a time: blocks of
    one tuple, blocks that straddle colorings (5 divides no coloring's 7^k
    tuples) and one block of exactly all tuples give the scalar walk."""
    params, word, _, idx = _associator_batch(strands, letters)
    ctx = context_for(params)
    total = int(np.prod(ctx.dims[idx], axis=1).sum())
    monkeypatch.setattr(braid, "_WALK_BLOCK", total if block == "all" else block)
    assert np.array_equal(trace_counts(ctx, word, idx), _scalar_batch(strands, letters))


def test_wide_vector_dtype_gives_the_same_histograms(monkeypatch):
    """Past 2^15 global vectors the tables and the walk use int32; no such
    context is small enough for the tests (the flagship has 345 vectors),
    so a fresh context is built with the int32 dtype forced."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    narrow = context_for(params)
    monkeypatch.setattr(double, "_narrow_dtype", lambda bound: np.int32)
    wide = DoubleContext(params)
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
        assert np.array_equal(trace_counts(wide, word, idx), trace_counts(narrow, word, idx))


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4)])
def test_operator_fixed_points_reproduce_the_trace(group):
    """`representation_operator` walks with phases in one pass and
    `trace_counts` in two.  On a closed coloring the associator cancels,
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
            counts = trace_counts(ctx, word, [colors])[0]
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
        trace_counts(ctx, parse_braid(CLASP, 3), idx)


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
    """`trace_counts` walks one strand pinned to its object's first vector
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
            counts = trace_counts(ctx, word, colorings, shifts)
            for row, colors, shift in zip(counts, colorings, shifts):
                op = representation_operator(params, word, colors.tolist())
                fixed = op.perm == np.arange(len(op.perm))
                expected = np.bincount((op.exponents[fixed] + shift) % ne, minlength=ne)
                assert np.array_equal(row, expected), (group, u, word, colors)
                mixed += expected.sum() > 0 and len(set(ctx.dims[colors].tolist())) > 1
    assert mixed > 0


def test_a_split_object_is_rejected_before_any_trace(monkeypatch):
    """The pinned walk needs G to act transitively on every object's
    vectors.  Let only the Z_p part of each group element act on B_1_0 at
    (7,3,2), which splits its 7 vectors into orbits of sizes 1, 3 and 3:
    the context refuses to build, and built without the check it would
    give the S trace of (B_1_0, B_2_0) as 7 instead of the full walk's 1."""
    add = DoubleContext._add

    def split_add(self, label, *args, **kwargs):
        flux, state, exp = add(self, label, *args, **kwargs)
        if label == "B_1_0":
            gd = self.gdata
            zp = np.array([gd.index(GroupElement(0, m)) for m in range(self.spec.p)])
            state = state[zp[gd.b_part]]
        return flux, state, exp

    monkeypatch.setattr(DoubleContext, "_add", split_add)
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    with pytest.raises(AssertionError, match="not transitive on the vectors of B_1_0"):
        DoubleContext(params)
    monkeypatch.setattr(DoubleContext, "_require_transitive", lambda self, state: None)
    ctx = DoubleContext(params)
    colors = np.array([[ctx.index_of("B_1_0"), ctx.index_of("B_2_0")]])
    word = BraidWord(2, (-1, -1))
    start = braid._start(ctx, colors)
    end, record = braid._walk(ctx, word, start)
    expo = braid._phases(ctx, record)
    fixed = (end[0] == start[0]) & (end[1] == start[1])
    full = np.bincount(expo[fixed] % ctx.root_order, minlength=ctx.root_order)
    assert full.sum() == 1
    assert trace_counts(ctx, word, colors)[0].sum() == 7


def test_pass_one_walks_the_tuples_of_the_unpinned_strands(monkeypatch):
    """The walk takes prod_(i != pin) d_i tuples per coloring, the pinned
    strand being one of largest dimension, each tuple once: an S row of a
    B object at (11,5,4) walks sum_b d_b tuples (not d_a sum_b d_b), and a
    5-strand closure colored by B objects 11^4 (not 11^5).  No second walk
    runs: the phases are gathered from the record of the one walk, at the
    columns of exactly the fixed tuples."""
    ctx = context_for(params(1))
    n = len(ctx.simples)
    walks, gathers = [], []  # (tuples, fixed columns of the record); gathered records
    walk, phases = braid._walk, braid._phases

    def walk_spy(ctx, word, state):
        end, record = walk(ctx, word, state)
        fixed = np.all(np.array(end) == state, axis=0)
        walks.append((len(state[0]), record[:, fixed]))
        return end, record

    def phases_spy(ctx, record):
        gathers.append(record)
        return phases(ctx, record)

    monkeypatch.setattr(braid, "_walk", walk_spy)
    monkeypatch.setattr(braid, "_phases", phases_spy)

    def trace(word, colorings):
        walks.clear()
        gathers.clear()
        counts = trace_counts(ctx, word, colorings)
        walked = sum(size for size, _ in walks)
        assert len(walks) == -(-walked // braid._WALK_BLOCK)  # one walk per block
        assert len(gathers) == len(walks)
        for (_, fixed), gathered in zip(walks, gathers):
            assert np.array_equal(gathered, fixed)
        return walked, sum(g.shape[1] for g in gathers), counts

    a = ctx.index_of("B_1_0")
    assert ctx.dims[a] == ctx.dims.max() == 11
    walked, gathered, row = trace(BraidWord(2, (-1, -1)), np.stack([np.full(n, a), np.arange(n)], 1))
    assert walked == ctx.dims.sum() == 345
    assert gathered * 11 == row.sum() > 0
    word = parse_braid("s1 s2^-1 s3 s4^-1 s1 s2 s3^-1 s4", 5)
    walked, gathered, counts = trace(word, [[ctx.index_of("B_2_1")] * 5])
    assert walked == 11**4
    assert gathered * 11 == counts.sum() > 0
    # Mixed dimensions: the largest one is pinned in each coloring.
    colorings = _closed_colorings(np.random.default_rng(2), parse_braid(CLASP, 3), n, 20)
    dims = ctx.dims[colorings]
    walked, _, _ = trace(parse_braid(CLASP, 3), colorings)
    assert walked == (dims.prod(axis=1) // dims.max(axis=1)).sum()


def test_zero_framed_invariant_builds_the_closure_structure_once(monkeypatch):
    """The closure check of `trace_counts` reads only where the strands
    end, so a zero-framed invariant computes `closure_structure` once (for
    its framing shift) and a framed invariant not at all."""
    calls = []
    structure = braid.closure_structure

    def spy(word):
        calls.append(word)
        return structure(word)

    monkeypatch.setattr(braid, "closure_structure", spy)
    word = parse_braid(CLASP, 3)
    colors = ["B_1_0", "A_1_2", "B_1_0"]
    zero_framed_invariant(params(1), word, colors)
    assert len(calls) == 1
    framed_invariant(params(1), word, colors)
    assert len(calls) == 1


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
    """`_start` builds each run of equal dimension rows with one
    `np.indices`; its vectors equal the tile/repeat digits on 1 to 5
    strands, with pinned strands (dimension 1) and several runs."""
    ctx = context_for(CocycleParams(GroupSpec(*group), 1))
    rng = np.random.default_rng(sum(group))
    n = len(ctx.simples)
    for strands in range(1, 6):
        count = 12 if strands < 5 else 3
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
