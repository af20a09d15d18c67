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
that record in one gather, and no tuple is walked again (`_fixed_phases`).

A trace walks one tuple per G-orbit.  The braiding of D^omega(G) is a
map of modules (Dijkgraaf, Pasquier, Roche 1990), so it commutes with
the diagonal action of G, and the associators met on the way are scalars
on each coloring: omega is pulled back from Z_p, and the Z_p part of a
flux is constant on its class.  So g carries a fixed tuple with phase
zeta^a to a fixed tuple with phase zeta^a.  G also acts transitively on
the vectors of each simple object (`GroupTables` of `stw.double`
refuses to build otherwise), so some g moves any one strand's vector v
to the first vector of its object, and that g maps the tuples with the
strand on v one to one onto those with the strand on the first vector,
fixed tuples to fixed tuples of equal phase.  A trace pins one strand
per coloring, one of largest dimension d, to its first vector v, walks
the other strands and multiplies the histogram by d.

The same lemma gives a second pin.  The stabiliser H = Stab(v) fixes
the pinned strand and commutes with the braiding, so h in H maps the
tuples with another strand j on w one to one onto those with strand j
on h.w, fixed tuples to fixed tuples of equal phase.  So strand j walks
one representative per H-orbit on its object's vectors (the least
vector of the orbit), and each fixed tuple stands for d times the size
of its orbit.  H is <b> (order p) for a B object and <a> (order q) for
an A object or an induced I_j, so a B strand under <b> walks
1 + (q - 1)/p orbits, not q.  The orbits come from one table per group
(`GroupTables.orbits` of `stw.double`, shared by every theory u of the
group, as the action of G on vectors does not depend on u).  Each
coloring takes the strand j that divides its walk most, d_j / orbits_j
largest (the first on ties), and a call takes the second pin only when
it removes more tuples in all than its fixed cost is worth: more than
`_SECOND_PIN_MIN` for one coloring and `_SECOND_PIN_BATCH_MIN` for a
batch, whose vectorised choice and weights cost more.

`sparse_trace_counts` gives the traces of one word under many colorings
(each optionally shifted, as by `zero_framing_shifts`) as CSR triples
of their nonzero bins, the one tail of the batch walk (`_fixed_phases`):
a row of S or V has a few nonzero bins out of N, so no (colorings, N)
histogram is built.  `stw.modular` keys the rows of S and V from them,
and the lens-space chain route sums them into its N bins.

One coloring, as in `framed_invariant`, `zero_framed_invariant` and
`framed_trace_counts`, is the case where the fixed cost of a call
outweighs its walk (a 2-strand closure walks d tuples).  It takes the
one-coloring branch of the same walk (`_closure_phases`): one context
lookup and one color resolution, the closure check and both pin
choices on the Python row, no coloring index, and the value built from
the exponent counts of the fixed tuples (`_closure_value`) with no (1, N)
histogram.  Its start vectors and weights are those of a batch: the
offsets plus the digit grid, the second-pinned strand read through the
orbit representatives (`_rep_vectors`), and each fixed tuple weighted
by the orbit size at that strand's start vector (`_orbit_weights`).
Every trace reads where its strands end, and a zero-framed closure its
components' first strands and their self-writhes too, from one pass
over the word (`_closure_pass`).

Every trace walks the word reduced once where it starts (`_reduced`):
one stack pass deletes each letter pair s_i^+-1 ... s_i^-+1 with only
far letters (|i - j| >= 2) between them.  The monomial operators satisfy
s_i s_i^-1 = 1 and far commutation, phases included, so this is exact,
and the permutation, components and self-writhes are those of the word
as given, which the closure check and `_closure_pass` read.  A
one-coloring call pays per letter in numpy calls, and half the letters
of random words cancel.  The value of one coloring divides by Phi_N only
per nonzero bin at or above phi(N): `reduce_row` adds one row of a table
of reduced powers at the radical of N per such bin (`stw.cyclotomic`).
`representation_operator` walks the word as given and is the oracle of
both.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from stw.cocycle import CocycleParams
from stw.cyclotomic import CycloNumber, euler_phi, reduce_row
from stw.double import DoubleContext, context_for


__all__ = [
    "BraidWord",
    "ClosureInfo",
    "InconsistentColoringError",
    "MonomialOperator",
    "parse_braid",
    "closure_structure",
    "representation_operator",
    "sparse_trace_counts",
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
    exponents mean inverse crossings.  A token is s, ASCII digits, and
    optionally ^ with a signed exponent of ASCII digits; any other token
    is refused by name.  An empty string is the identity braid."""
    letters: list[int] = []
    for token in text.replace(",", " ").split():
        match = re.fullmatch(r"s([0-9]+)(?:\^([+-]?[0-9]+))?", token)
        if match is None:
            raise ValueError(f"cannot parse braid token {token!r}")
        index, power = int(match[1]), int(match[2] or 1)
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


def _closure_pass(word: BraidWord):
    """One pass over the word: which strand (by bottom position, 0-based)
    sits at each position at the top of the braid, the component of each
    strand (components = cycles of the closure permutation, numbered by
    least member), each component's least strand, and the signed
    crossings internal to each component."""
    n = word.strands
    strand_at = list(range(n))
    crossings = []
    for letter in word.letters:
        i = abs(letter) - 1
        left, right = strand_at[i], strand_at[i + 1]
        crossings.append((left, right, 1 if letter > 0 else -1))
        strand_at[i], strand_at[i + 1] = right, left
    # The closure joins the top of each position to its bottom, so the
    # strand at top position j continues as strand j: strand_at and its
    # inverse, the closure permutation, have the same cycles.
    comp_of = [-1] * n
    firsts = []
    for start in range(n):
        if comp_of[start] >= 0:
            continue
        j = start
        while comp_of[j] < 0:
            comp_of[j] = len(firsts)
            j = strand_at[j]
        firsts.append(start)
    self_writhes = [0] * len(firsts)
    for left, right, sign in crossings:
        if comp_of[left] == comp_of[right]:
            self_writhes[comp_of[left]] += sign
    return strand_at, comp_of, firsts, self_writhes


def closure_structure(word: BraidWord) -> ClosureInfo:
    strand_at, comp_of, _, self_writhes = _closure_pass(word)
    perm = [0] * word.strands
    for pos, strand in enumerate(strand_at):
        perm[strand] = pos + 1
    components = [[] for _ in self_writhes]
    for strand, comp in enumerate(comp_of):
        components[comp].append(strand + 1)
    return ClosureInfo(
        permutation=tuple(perm),
        components=tuple(map(tuple, components)),
        component_of=tuple(comp_of),
        self_writhes=tuple(self_writhes),
        writhe=word.writhe,
    )


def _reduced(word: BraidWord) -> BraidWord:
    """The word with its cancelling letter pairs deleted, in one stack
    pass: each new letter scans back over the kept letters that commute
    with it (|i - j| >= 2); if the first one that does not is its
    inverse, both go, otherwise the new letter is kept.  The monomial
    operators satisfy s_i s_i^-1 = 1 and far commutation, phases
    included, and so does the associator (`_associator`), so the walk of
    the reduced word gives every tuple the end vectors and phase of the
    walk of the word.  Returns the word itself when nothing cancels."""
    kept: list[int] = []
    for letter in word.letters:
        lo, hi = abs(letter) - 1, abs(letter) + 1
        k = len(kept) - 1
        while k >= 0 and not lo <= abs(kept[k]) <= hi:
            k -= 1
        if k >= 0 and kept[k] == -letter:
            del kept[k]
        else:
            kept.append(letter)
    if len(kept) == len(word.letters):
        return word
    return BraidWord(word.strands, tuple(kept))


def _resolve_colors(ctx: DoubleContext, word: BraidWord, colors) -> list[int]:
    if len(colors) != word.strands:
        raise ValueError(f"need {word.strands} colors, got {len(colors)}")
    return [ctx.index_of(c) for c in colors]


# ----- the walk over the basis tuples of many colorings at once -------------


# Tuples walked at once by `_walk_blocks`: a block's vectors and gather
# indices stay in cache (16384 measured best), and its record of gather
# indices takes at most 64 kB per letter.
_WALK_BLOCK = 16384


# Digit grids of the rows of dimensions met so far, keyed by (dims, dtype).
_DIGIT_GRIDS: dict[tuple, np.ndarray] = {}


def _digits(dims: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Each strand's basis index along the tuples of one row of dimensions,
    in lexicographic order: (strands, prod dims), read-only.  A grid of at
    most `_WALK_BLOCK` tuples is kept once built (dimensions take three
    values in a group, 1, p and q, so few rows occur); a larger one is
    built on each call, as its walk outweighs its build and keeping it
    would pin its memory."""
    grid = _DIGIT_GRIDS.get((dims, dtype))
    if grid is None:
        grid = np.indices(dims, dtype=dtype).reshape(len(dims), -1)
        grid.flags.writeable = False
        if grid.shape[1] <= _WALK_BLOCK:
            _DIGIT_GRIDS[dims, dtype] = grid
    return grid


# ----- the second pin: the orbits of the pinned vector's stabiliser --------


# Tuples that a call's second pins must remove in all before it takes
# them: below this the orbit lookups and the weighted counts cost more
# than the walk saves.  A removed tuple saves 7-35 ns (fewer for words
# of fewer letters), and the second pin costs about 4 us for one
# coloring and 50-100 us for a batch of 512 (timeit at (11,5,4),
# (13,3,3), (19,3,7), (43,7,4) and (53,13,10)).
_SECOND_PIN_MIN = 256
_SECOND_PIN_BATCH_MIN = 8192


def _second_pins(ctx: DoubleContext, colorings: np.ndarray, dims, pin, walked):
    """The second pins of a batch: strand j of each coloring, other than
    the pinned one, with d_j / orbits_j largest (the first on ties) under
    the pinned vector's stabiliser.  When they remove more than
    `_SECOND_PIN_BATCH_MIN` tuples in all, sets walked[c, j] = orbits_j
    where it gains and returns the j and the stabiliser of each coloring
    (both -1 where it does not gain); otherwise returns None."""
    table = ctx.group.orbits
    rows = np.arange(len(dims))
    stab = table.stab[colorings[rows, pin]]
    counts = table.count[stab[:, None], colorings]
    # Equal ratios of ints give equal floats, so ties stay ties.
    gain = dims / counts
    gain[rows, pin] = 0
    j = gain.argmax(axis=1)
    take = (gain[rows, j] > 1) & (stab >= 0)
    orbits, d = counts[rows, j], dims[rows, j]
    removed = (d - orbits) * (walked.prod(axis=1) // d)
    if removed[take].sum() <= _SECOND_PIN_BATCH_MIN:
        return None
    walked[rows[take], j[take]] = orbits[take]
    return np.where(take, j, -1), np.where(take, stab, -1)


def _second_pin(ctx: DoubleContext, coloring: list[int], dims: list[int], pin: int, walked: list[int]):
    """`_second_pins` of one coloring on the Python row: (j, the
    stabiliser) with walked[j] set to its orbit count, or None."""
    total = math.prod(walked)
    if total <= _SECOND_PIN_MIN:
        return None
    table = ctx.group.orbits
    s = table.stab_list[coloring[pin]]
    if s < 0:
        return None
    counts = table.count[s].tolist()
    gains = [d / counts[c] for c, d in zip(coloring, dims)]
    gains[pin] = 0
    best = max(gains)
    if best <= 1:
        return None
    j = gains.index(best)
    orbits = counts[coloring[j]]
    if total - total // dims[j] * orbits <= _SECOND_PIN_MIN:
        return None
    walked[j] = orbits
    return j, s


def _rep_vectors(ctx: DoubleContext, stab, vectors: np.ndarray) -> np.ndarray:
    """The start vectors of a second-pinned strand: basis index k on an
    object (its vector offset + k) reads the k-th representative of the
    orbits of stabiliser `stab` on that object."""
    return ctx.group.orbits.reps[stab].take(vectors)


def _orbit_weights(ctx: DoubleContext, stab, vectors) -> np.ndarray:
    """The int64 size of the orbit of each vector under stabiliser `stab`
    (one, or one per vector): the weight of a fixed tuple whose
    second-pinned strand starts on that vector."""
    return ctx.group.orbits.size[stab, vectors]


def _start(ctx: DoubleContext, colorings: np.ndarray, dims=None, second=None) -> np.ndarray:
    """The global vector on each strand at the bottom of the braid, for
    every basis tuple of the colorings (a row of object indices per
    coloring): coloring after coloring, each in lexicographic order.  One
    row per strand, in the vector dtype of the context's tables.
    `dims` (default the objects' dimensions) bounds the basis index on
    each strand of each coloring: a strand given 1 stays on its object's
    first vector.  `second` (from `_second_pins`) puts strand j of each
    coloring with j >= 0 on its orbit representatives: its basis index k
    reads the k-th of them.  One coloring is one broadcast add of its
    offsets to its digit grid; in a batch, each run of consecutive
    colorings with equal `dims` (and second pin and stabiliser) is built
    at once (objects come ordered by type, so the rows of S and W make
    few runs)."""
    dtype = ctx.action_state.dtype
    if dims is None:
        dims = ctx.dims[colorings]
    offsets = ctx.offsets[colorings].astype(dtype)
    if len(dims) == 1 and second is None:
        return offsets[0][:, None] + _digits(tuple(dims[0].tolist()), dtype)
    runs = dims if second is None else np.column_stack((dims, *second))
    cuts = ((runs[1:] != runs[:-1]).any(axis=1).nonzero()[0] + 1).tolist()
    parts = []
    for lo, hi in zip([0] + cuts, cuts + [len(dims)]):
        grid = _digits(tuple(dims[lo].tolist()), dtype)
        part = (offsets[lo:hi].T[:, :, None] + grid[:, None]).reshape(len(grid), -1)
        if second is not None and second[0][lo] >= 0:
            j = second[0][lo]
            part[j] = _rep_vectors(ctx, second[1][lo], part[j])
        parts.append(part)
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


def _refuse_open(ctx: DoubleContext, word: BraidWord, colorings: np.ndarray):
    """Raise on the first coloring that gives two strands of one closure
    component different colors."""
    for comp in closure_structure(word).components:
        cols = colorings[:, [s - 1 for s in comp]]
        bad = np.flatnonzero(np.any(cols != cols[:, :1], axis=1))
        if len(bad):
            raise InconsistentColoringError(
                f"strands {comp} form one closure component but carry "
                f"colors {[ctx.simples[c].label for c in cols[bad[0]]]}"
            )


def _walk_blocks(ctx: DoubleContext, word: BraidWord, start: np.ndarray):
    """Walk the start vectors `_WALK_BLOCK` tuples at a time; yield each
    block's first tuple, the block columns of its fixed tuples (every
    strand back at its start vector) and their phase exponents.  Few
    tuples are fixed (0.2-20 % in the S, W and closure walks), so only
    their columns of the block's record are gathered for phases."""
    for lo in range(0, start.shape[1], _WALK_BLOCK):
        block = start[:, lo : lo + _WALK_BLOCK]
        end, record = _walk(ctx, word, block)
        fixed = end[0] == block[0]
        for j in range(1, word.strands):
            fixed &= end[j] == block[j]
        local = fixed.nonzero()[0]
        yield lo, local, _phases(ctx, record.take(local, axis=1))


def _closure_phases(ctx: DoubleContext, word: BraidWord, coloring: list[int], shift: int = 0, strand_at=None):
    """`_fixed_phases` of one coloring (a list of object indices): the
    phase exponents mod N of its fixed walked tuples, shift added, its
    pin factor d, and under a second pin the orbit size of each fixed
    tuple (int64; None without one).  The closure check and both pin
    choices run on the Python row, and the phases need no coloring
    index.  `strand_at` (the first item of `_closure_pass` of the word,
    computed if not given) says where the strands end.

    The second pin (`_second_pin`) is taken as in a batch: strand j
    walks its object's orbit representatives under the stabiliser of the
    pinned vector (`_rep_vectors`), and each fixed tuple is weighted by
    d times the size of its strand-j orbit (`_orbit_weights`), exact by
    the same lemma as the first pin (module docstring)."""
    if strand_at is None:
        strand_at = _closure_pass(word)[0]
    if [coloring[j] for j in strand_at] != coloring:
        _refuse_open(ctx, word, np.array([coloring]))
    dims = ctx.dims[coloring].tolist()
    pin = max(dims)
    walked = list(dims)
    pinned = dims.index(pin)
    walked[pinned] = 1
    dtype = ctx.action_state.dtype
    second = _second_pin(ctx, coloring, dims, pinned, walked)
    start = ctx.offsets[coloring].astype(dtype)[:, None] + _digits(tuple(walked), dtype)
    if second is not None:
        j, s = second
        start[j] = _rep_vectors(ctx, s, start[j])
    blocks = list(_walk_blocks(ctx, _reduced(word), start))
    expo = blocks[0][2] if len(blocks) == 1 else np.concatenate([phases for _, _, phases in blocks])
    expo += shift
    expo %= ctx.root_order
    sizes = None
    if second is not None:
        fixed = np.concatenate([lo + local for lo, local, _ in blocks])
        sizes = _orbit_weights(ctx, s, start[j].take(fixed))
    return expo, pin, sizes


def _fixed_phases(ctx: DoubleContext, word: BraidWord, colorings: np.ndarray, shifts):
    """The fixed tuples of the word under C colorings (an int64 array of
    rows of object indices, one per strand): the coloring index of each
    and its phase exponent mod N (shifts[c] added, if given), each
    coloring's pin factor d, and the orbit size of each fixed tuple under
    the second pin (None if no coloring takes one), all int64.  A fixed
    tuple stands for d times its orbit size basis tuples.

    Each coloring pins one strand of largest dimension d to its object's
    first vector v, and the walk takes only those tuples; each fixed
    tuple then stands for d.  This is exact on two premises.  The braiding
    of D^omega(G) commutes with the diagonal action of G (Dijkgraaf,
    Pasquier, Roche 1990), passing only associators that are scalars on
    each coloring (omega comes from Z_p, and the Z_p part of a flux is
    constant on its class), so g maps a fixed tuple with phase zeta^a to
    a fixed tuple with phase zeta^a.  And G acts transitively on the
    vectors of every simple object (`GroupTables` checks this), so for
    each vector of the pinned object some g maps the tuples with the
    pinned strand on it one to one onto the walked ones.

    A second strand j walks one vector per orbit of H = Stab(v) on its
    object (`_second_pins`, by the rule of the module docstring): each
    h in H fixes the pinned strand, so it maps the tuples with strand j
    on w one to one onto those with strand j on h.w, fixed to fixed with
    equal phase, and a fixed tuple with strand j on the representative
    of an orbit of size m stands for d * m.  The weights stay integers.

    The walk goes over the start vectors once, `_WALK_BLOCK` tuples at a
    time, in the narrow vector dtype of the tables, and records each
    crossing's gather index (letters x block, int32 below 2^31 table
    entries).  The phases of the block's fixed tuples are one gather of
    the phase table at their columns of the record, summed over the
    letters (`_phases`).  One coloring goes through `_closure_phases`."""
    if len(colorings) == 1:
        shift = 0 if shifts is None else int(np.asarray(shifts).reshape(-1)[0])
        expo, pin, sizes = _closure_phases(ctx, word, colorings[0].tolist(), shift)
        return np.zeros(len(expo), dtype=np.intp), expo, np.array([pin], dtype=np.int64), sizes
    # A coloring closes up when every top position carries the colour of
    # the bottom position below it.
    if (colorings[:, _closure_pass(word)[0]] != colorings).any():
        _refuse_open(ctx, word, colorings)
    dims = ctx.dims[colorings]
    rows = np.arange(len(dims))
    pin = dims.argmax(axis=1)
    walked = dims.copy()
    walked[rows, pin] = 1  # the pinned strands
    tuples = walked.prod(axis=1)
    # No batch of fewer tuples can remove enough of them.
    second = _second_pins(ctx, colorings, dims, pin, walked) if tuples.sum() > _SECOND_PIN_BATCH_MIN else None
    if second is not None:
        tuples = walked.prod(axis=1)
    start = _start(ctx, colorings, walked, second)
    found, phases = [], []
    for lo, local, expo in _walk_blocks(ctx, _reduced(word), start):
        found.append(local + lo)
        phases.append(expo)
    sel, expo = np.concatenate(found), np.concatenate(phases)
    which = tuples.cumsum().searchsorted(sel, side="right")
    if shifts is not None:
        expo = expo + np.asarray(shifts, dtype=np.int64)[which]
    sizes = None
    if second is not None:
        j, stab = second[0][which], second[1][which]
        hit = j >= 0
        sizes = np.ones(len(sel), dtype=np.int64)
        sizes[hit] = _orbit_weights(ctx, stab[hit], start[j[hit], sel[hit]])
    return which, expo % ctx.root_order, dims[rows, pin], sizes


def _counts(bins: np.ndarray, pin: int, sizes, length: int) -> np.ndarray:
    """int64 counts of the bins of fixed tuples, at least `length` of
    them, each tuple counted pin times its orbit size (sizes None: 1).  A
    tuple of orbit size m is repeated m times: that is the fixed tuples
    that the first pin alone would walk, so no float weight is needed."""
    if sizes is not None:
        bins = bins.repeat(sizes)
    return np.bincount(bins, minlength=length) * pin


def _closure_value(order: int, expo: np.ndarray, pin: int, sizes) -> CycloNumber:
    """sum over the fixed tuples of pin * size * zeta^expo, from the
    exponent counts: when every exponent is below phi(N) the counts are
    the canonical numerators already; otherwise `reduce_row` adds one row
    of the radical table per nonzero bin at or above phi(N)."""
    phi = euler_phi(order)
    counts = _counts(expo, pin, sizes, phi)
    if len(counts) > phi:
        counts = reduce_row(order, counts)
    return CycloNumber._from_numerators(order, counts.tolist())


def _colorings(word: BraidWord, colorings) -> np.ndarray:
    """The colorings as an int64 array of rows, one entry per strand."""
    return np.asarray(colorings, dtype=np.int64).reshape(-1, word.strands)


def sparse_trace_counts(ctx: DoubleContext, word: BraidWord, colorings, shifts=None):
    """The colored traces of one word under C colorings (rows of object
    indices, one per strand), as CSR triples (indptr, exponents, counts)
    of their nonzero bins: row c holds exponents[indptr[c]:indptr[c + 1]],
    increasing, with their int64 counts.  Bin j of row c counts the basis
    tuples of coloring c that the word's permutation part fixes with
    accumulated phase zeta^j; with shifts (one integer per coloring), the
    phase zeta^(j + shifts[c]).  One walk of the pinned tuples
    (`_fixed_phases`): a bin counts its fixed tuples, or sums their orbit
    sizes under a second pin, times the pin factor d.  A row has a few
    nonzero bins out of N, so no (C, N) block is built."""
    colorings = _colorings(word, colorings)
    which, expo, pins, sizes = _fixed_phases(ctx, word, colorings, shifts)
    ne = ctx.root_order
    bins = which * ne + expo
    order = bins.argsort()
    bins = bins[order]
    first = np.flatnonzero(np.diff(bins, prepend=-1))
    counts = np.diff(first, append=len(bins)) if sizes is None else np.add.reduceat(sizes[order], first)
    rows, exponents = np.divmod(bins[first], ne)
    indptr = np.zeros(len(pins) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(pins)), out=indptr[1:])
    return indptr, exponents, counts * pins[rows]


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
    final = idx[_closure_pass(word)[0]]
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
    expo, pin, sizes = _closure_phases(ctx, word, _resolve_colors(ctx, word, colors), int(shift))
    return _counts(expo, pin, sizes, ctx.root_order)


def zero_framing_shifts(ctx: DoubleContext, info: ClosureInfo, colorings) -> np.ndarray:
    """The `sparse_trace_counts` shifts that cancel every component's blackboard
    self-framing under C colorings (rows of object indices): theta^-writhe
    per closure component is the shift -sum self_writhe * t_color."""
    twists = ctx.twist_exps[np.asarray(colorings)]
    firsts = [comp[0] - 1 for comp in info.components]
    return -twists[:, firsts] @ np.array(info.self_writhes)


def framed_invariant(params: CocycleParams, word: BraidWord, colors) -> CycloNumber:
    """Trace of the colored word: the invariant of the closure in the
    blackboard framing of the braid diagram."""
    ctx = context_for(params)
    expo, pin, sizes = _closure_phases(ctx, word, _resolve_colors(ctx, word, colors))
    return _closure_value(ctx.root_order, expo, pin, sizes)


def zero_framed_invariant(params: CocycleParams, word: BraidWord, colors) -> CycloNumber:
    """The framed invariant with every component's blackboard self-framing
    cancelled by twist factors (`zero_framing_shifts` of the one coloring),
    from one pass over the word (`_closure_pass`)."""
    ctx = context_for(params)
    coloring = _resolve_colors(ctx, word, colors)
    strand_at, _, firsts, self_writhes = _closure_pass(word)
    twists = ctx.twist_exps[[coloring[j] for j in firsts]].tolist()
    shift = -sum(t * w for t, w in zip(twists, self_writhes))
    expo, pin, sizes = _closure_phases(ctx, word, coloring, shift, strand_at)
    return _closure_value(ctx.root_order, expo, pin, sizes)
