"""Colored braid closures evaluated in the twisted double.

A braid word on n strands acts on the tensor product of the colors'
module spaces by monomial operators: generator i braids positions i and
i+1 (positive = left strand crosses over), and the associator inserts
scalar phases that depend only on the Z_p parts of the colors.  The walk
runs over tuples of the global basis vectors of `stw.double`: a vector's
color is the object it belongs to, so colors move with the vectors, one
walk serves a whole batch of colorings and each crossing is one gather.
A trace walks each tuple once and records every crossing's gather
index; the phases of the tuples that the word fixes are then read from
that record in one gather, and no tuple is walked again (`trace_counts`).

A trace walks one tuple per G-orbit.  The braiding of D^omega(G) is a
map of modules (Dijkgraaf, Pasquier, Roche 1990), so it commutes with
the diagonal action of G, and the associators met on the way are scalars
on each coloring: omega is pulled back from Z_p, and the Z_p part of a
flux is constant on its class.  So g carries a fixed tuple with phase
zeta^a to a fixed tuple with phase zeta^a.  G also acts transitively on
the vectors of each simple object (`DoubleContext` refuses to build
otherwise), so some g moves any one strand's vector v to the first
vector of its object, and that g maps the tuples with the strand on v
one to one onto those with the strand on the first vector, fixed tuples
to fixed tuples of equal phase.  A trace pins one strand per coloring,
one of largest dimension d, to its first vector, walks the other strands
and multiplies the histogram by d.

`trace_counts` gives the trace histograms of one word under many
colorings (each optionally shifted, as by `zero_framing_shifts`), and
`framed_trace_counts` its one-coloring case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stw.cocycle import CocycleParams
from stw.cyclotomic import CycloNumber
from stw.double import DoubleContext, context_for


__all__ = [
    "BraidWord",
    "ClosureInfo",
    "InconsistentColoringError",
    "MonomialOperator",
    "parse_braid",
    "closure_structure",
    "representation_operator",
    "trace_counts",
    "framed_trace_counts",
    "framed_invariant",
    "zero_framed_invariant",
    "zero_framing_shifts",
]


class InconsistentColoringError(ValueError):
    """Strands in one closure component were given different colors."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_strands; letters are nonzero ints,
    +i for generator i, -i for its inverse, 1 <= i < strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("need at least one strand")
        for letter in self.letters:
            if letter == 0 or abs(letter) >= self.strands:
                raise ValueError(f"letter {letter} invalid on {self.strands} strands")

    @property
    def writhe(self) -> int:
        return sum(1 if s > 0 else -1 for s in self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-s for s in reversed(self.letters)))


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse words like "s2^-2 s1 s2^-1 s1" (whitespace- or
    comma-separated); "s3^4" repeats generator 3 four times and negative
    exponents mean inverse crossings.  An empty string is the identity
    braid."""
    letters: list[int] = []
    for token in text.replace(",", " ").split():
        if not token.startswith("s"):
            raise ValueError(f"cannot parse braid token {token!r}")
        body = token[1:]
        power = 1
        if "^" in body:
            body, _, exp_text = body.partition("^")
            power = int(exp_text)
        index = int(body)
        if not 1 <= index < strands:
            raise ValueError(f"generator s{index} out of range on {strands} strands")
        if power == 0:
            continue
        sign = 1 if power > 0 else -1
        letters.extend([sign * index] * abs(power))
    return BraidWord(strands, tuple(letters))


@dataclass(frozen=True)
class ClosureInfo:
    """Structure of the braid closure: permutation sends each bottom
    position to the top position its strand reaches; components list the
    bottom positions (1-based) of each closure component, ordered by
    least member; self_writhes count the signed crossings internal to
    each component."""

    permutation: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    self_writhes: tuple[int, ...]
    writhe: int


def closure_structure(word: BraidWord) -> ClosureInfo:
    n = word.strands
    # strand_at[j] = which strand (by bottom position) sits at position j
    strand_at = list(range(n))
    crossings: list[tuple[int, int, int]] = []
    for letter in word.letters:
        i = abs(letter) - 1
        sign = 1 if letter > 0 else -1
        crossings.append((strand_at[i], strand_at[i + 1], sign))
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    perm = [0] * n
    for pos, strand in enumerate(strand_at):
        perm[strand] = pos + 1
    # components = cycles of the closure permutation
    comp_of = [-1] * n
    components: list[tuple[int, ...]] = []
    for start in range(n):
        if comp_of[start] >= 0:
            continue
        cycle = []
        j = start
        while comp_of[j] < 0:
            comp_of[j] = len(components)
            cycle.append(j + 1)
            j = perm[j] - 1
        components.append(tuple(sorted(cycle)))
    self_writhes = [0] * len(components)
    for s1, s2, sign in crossings:
        if comp_of[s1] == comp_of[s2]:
            self_writhes[comp_of[s1]] += sign
    return ClosureInfo(
        permutation=tuple(perm),
        components=tuple(components),
        component_of=tuple(comp_of),
        self_writhes=tuple(self_writhes),
        writhe=word.writhe,
    )


def _strand_at(word: BraidWord) -> list[int]:
    """Which strand (by bottom position, 0-based) sits at each position
    at the top of the braid."""
    strand_at = list(range(word.strands))
    for letter in word.letters:
        i = abs(letter) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    return strand_at


def _resolve_colors(ctx: DoubleContext, word: BraidWord, colors) -> list[int]:
    if len(colors) != word.strands:
        raise ValueError(f"need {word.strands} colors, got {len(colors)}")
    return [ctx.index_of(c) for c in colors]


# ----- the walk over the basis tuples of many colorings at once -------------


# Tuples walked at once by `trace_counts`: a block's vectors and gather
# indices stay in cache (16384 measured best), and its record of gather
# indices takes at most 64 kB per letter.
_WALK_BLOCK = 16384


def _start(ctx: DoubleContext, colorings: np.ndarray, dims=None) -> np.ndarray:
    """The global vector on each strand at the bottom of the braid, for
    every basis tuple of the colorings (a row of object indices per
    coloring): coloring after coloring, each in lexicographic order.  One
    row per strand, in the vector dtype of the context's tables.
    `dims` (default the objects' dimensions) bounds the basis index on
    each strand of each coloring: a strand given 1 stays on its object's
    first vector.  Each run of consecutive colorings with equal `dims` is
    built at once (objects come ordered by type, so the rows of S and W
    make few runs)."""
    dtype = ctx.action_state.dtype
    if dims is None:
        dims = ctx.dims[colorings]
    offsets = ctx.offsets[colorings].astype(dtype)
    cuts = ((dims[1:] != dims[:-1]).any(axis=1).nonzero()[0] + 1).tolist()
    digits = {}  # each strand's basis index along the tuples, per row of dimensions
    parts = []
    for lo, hi in zip([0] + cuts, cuts + [len(dims)]):
        d = tuple(dims[lo].tolist())
        if d not in digits:
            digits[d] = np.indices(d, dtype=dtype).reshape(len(d), 1, -1)
        parts.append((offsets[lo:hi].T[:, :, None] + digits[d]).reshape(len(d), -1))
    return np.concatenate(parts, axis=1)


def _walk(ctx: DoubleContext, word: BraidWord, state: np.ndarray):
    """Run the word over basis tuples, given by the global vector on each
    strand at the bottom of the braid (one row per strand).  Each crossing
    is one gather from the stacked tables of `stw.double`, at flux_row (or,
    for an inverse crossing, inverse_row) of the vector that crosses over
    plus the vector it acts on.  Returns the vector on each strand at the
    top of the braid and the record of every crossing's gather index, one
    row per letter, from which `_phases` reads the phases of any tuples."""
    state = list(state)
    record = np.empty((len(word.letters), len(state[0])), ctx.flux_row.dtype)
    crossing_state = ctx.crossing_state.ravel()
    # Mode "clip" lets `take` write straight into the record (mode "raise"
    # buffers `out`); every vector is below size, so nothing is clipped.
    for hit, letter in zip(record, word.letters):
        i = abs(letter) - 1
        left, right = state[i], state[i + 1]
        if letter > 0:
            # the left vector crosses over, acting on the right one by its flux
            ctx.flux_row.take(left, out=hit, mode="clip")
            hit += right
            state[i], state[i + 1] = crossing_state.take(hit), left
        else:
            # the right vector crosses over, acting on the left one by the
            # inverse of its flux
            ctx.inverse_row.take(right, out=hit, mode="clip")
            hit += left
            state[i], state[i + 1] = right, crossing_state.take(hit)
    return state, record


def _phases(ctx: DoubleContext, record: np.ndarray) -> np.ndarray:
    """The phase exponent of each walked tuple, without the associator:
    the sum of the phases at the tuple's recorded gathers (a column of
    `_walk`'s record), in int64."""
    return ctx.crossing_exp.ravel().take(record).sum(axis=0, dtype=np.int64)


def _associator(ctx: DoubleContext, word: BraidWord, colors) -> int:
    """The associator exponent of the word under one coloring.  A crossing
    at positions i, i+1 rebrackets the strands to its left against the
    crossing fluxes, at the cost omega(l, b_(i+1), b_i) / omega(l, b_i,
    b_(i+1)), with l the sum of the Z_p parts b to its left: a difference
    of values at the color sequences before and after it.  The sum
    cancels on s_i s_i^-1, on far crossings and on the braid relation
    (checked for all l, x, y, z in the tests), so it vanishes whenever
    the colors end where they started, as for every consistent coloring
    of a closure: only operators carry it, never traces."""
    b = [ctx.tables[c].class_bpart for c in colors]
    total = 0
    for letter in word.letters:
        i = abs(letter) - 1
        left = sum(b[:i])
        total += ctx.omega_ne(left, b[i + 1], b[i]) - ctx.omega_ne(left, b[i], b[i + 1])
        b[i], b[i + 1] = b[i + 1], b[i]
    return total


def trace_counts(ctx: DoubleContext, word: BraidWord, colorings, shifts=None) -> np.ndarray:
    """Root-of-unity histograms (C, N) of the colored traces of one word
    under C colorings (rows of object indices, one per strand): entry j
    of row c counts the basis tuples of coloring c that the word's
    permutation part fixes with accumulated phase zeta^j; with shifts (one
    integer per coloring), the phase zeta^(j + shifts[c]).

    Each coloring pins one strand of largest dimension d to its object's
    first vector, and the walk takes only those tuples; the histogram is
    then multiplied by d.  This is exact on two premises.  The braiding
    of D^omega(G) commutes with the diagonal action of G (Dijkgraaf,
    Pasquier, Roche 1990), passing only associators that are scalars on
    each coloring (omega comes from Z_p, and the Z_p part of a flux is
    constant on its class), so g maps a fixed tuple with phase zeta^a to
    a fixed tuple with phase zeta^a.  And G acts transitively on the
    vectors of every simple object (`DoubleContext` checks this), so for
    each vector v of the pinned object some g maps the tuples with the
    pinned strand on v one to one onto the walked ones.

    The walk goes over the start vectors once, `_WALK_BLOCK` tuples at a
    time, in the narrow vector dtype of the tables, and records each
    crossing's gather index (letters x block, int32 below 2^31 table
    entries).  The phases of the block's fixed tuples are one gather of
    the phase table at their columns of the record, summed over the
    letters (`_phases`)."""
    colorings = np.asarray(colorings, dtype=np.int64).reshape(-1, word.strands)
    # A coloring closes up when every top position carries the colour of
    # the bottom position below it.
    if (colorings[:, _strand_at(word)] != colorings).any():
        for comp in closure_structure(word).components:
            cols = colorings[:, [s - 1 for s in comp]]
            bad = np.flatnonzero(np.any(cols != cols[:, :1], axis=1))
            if len(bad):
                raise InconsistentColoringError(
                    f"strands {comp} form one closure component but carry "
                    f"colors {[ctx.simples[c].label for c in cols[bad[0]]]}"
                )
    dims = ctx.dims[colorings]
    walked = dims.copy()
    walked[np.arange(len(dims)), dims.argmax(axis=1)] = 1  # the pinned strands
    start = _start(ctx, colorings, walked)
    # One walk a block at a time: a tuple is fixed when every strand is back
    # at its start vector.  Few tuples are (0.2-20 % in the S, W and closure
    # walks), so only their columns of the block's record are gathered for
    # phases.
    found, phases = [], []
    for lo in range(0, start.shape[1], _WALK_BLOCK):
        block = start[:, lo : lo + _WALK_BLOCK]
        end, record = _walk(ctx, word, block)
        fixed = end[0] == block[0]
        for j in range(1, word.strands):
            fixed &= end[j] == block[j]
        local = fixed.nonzero()[0]
        found.append(local + lo)
        phases.append(_phases(ctx, record.take(local, axis=1)))
    sel, expo = np.concatenate(found), np.concatenate(phases)
    ne = ctx.root_order
    which = walked.prod(axis=1).cumsum().searchsorted(sel, side="right")
    if shifts is not None:
        expo = expo + np.asarray(shifts, dtype=np.int64)[which]
    bins = which * ne + expo % ne
    counts = np.bincount(bins, minlength=len(colorings) * ne).reshape(-1, ne)
    counts *= dims.max(axis=1)[:, None]
    return counts


@dataclass
class MonomialOperator:
    """The action of a colored braid word: basis vector i of the source
    product space maps to root^exponent[i] times basis vector perm[i] of
    the target space (colors permuted by the braid)."""

    source_dims: tuple[int, ...]
    target_dims: tuple[int, ...]
    perm: np.ndarray
    exponents: np.ndarray
    root_order: int

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOperator) and all(
            np.array_equal(value, getattr(other, key)) for key, value in vars(self).items()
        )


def representation_operator(params: CocycleParams, word: BraidWord, colors) -> MonomialOperator:
    """The monomial operator of the colored word (letters applied first
    to last).  Colors may repeat freely; closure consistency is not
    required here, only for traces."""
    ctx = context_for(params)
    idx = np.array(_resolve_colors(ctx, word, colors))
    state, record = _walk(ctx, word, _start(ctx, idx[None]))
    expo = _phases(ctx, record)
    final = idx[_strand_at(word)]
    target = np.zeros(len(expo), dtype=np.int64)
    for j, color in enumerate(final):
        target = target * ctx.dims[color] + state[j] - ctx.offsets[color]
    return MonomialOperator(
        source_dims=tuple(ctx.dims[idx].tolist()),
        target_dims=tuple(ctx.dims[final].tolist()),
        perm=target,
        exponents=(expo + _associator(ctx, word, idx)) % ctx.root_order,
        root_order=ctx.root_order,
    )


def framed_trace_counts(params: CocycleParams, word: BraidWord, colors, shift=0) -> np.ndarray:
    """Histogram of the colored trace times zeta^shift: entry j counts the
    basis vectors that the word's permutation part fixes with accumulated
    phase zeta^(j - shift).  At shift 0 its root sum is the framed invariant."""
    ctx = context_for(params)
    return trace_counts(ctx, word, [_resolve_colors(ctx, word, colors)], [shift])[0]


def zero_framing_shifts(ctx: DoubleContext, info: ClosureInfo, colorings) -> np.ndarray:
    """The `trace_counts` shifts that cancel every component's blackboard
    self-framing under C colorings (rows of object indices): theta^-writhe
    per closure component is the shift -sum self_writhe * t_color."""
    twists = ctx.twist_exps[np.asarray(colorings)]
    firsts = [comp[0] - 1 for comp in info.components]
    return -twists[:, firsts] @ np.array(info.self_writhes)


def framed_invariant(params: CocycleParams, word: BraidWord, colors) -> CycloNumber:
    """Trace of the colored word: the invariant of the closure in the
    blackboard framing of the braid diagram."""
    counts = framed_trace_counts(params, word, colors)
    return CycloNumber.from_root_counts(context_for(params).root_order, counts)


def zero_framed_invariant(params: CocycleParams, word: BraidWord, colors) -> CycloNumber:
    """The framed invariant with every component's blackboard self-framing
    cancelled by twist factors (see `zero_framing_shifts`)."""
    ctx = context_for(params)
    coloring = _resolve_colors(ctx, word, colors)
    shift = zero_framing_shifts(ctx, closure_structure(word), [coloring])[0]
    counts = framed_trace_counts(params, word, coloring, shift)
    return CycloNumber.from_root_counts(ctx.root_order, counts)
