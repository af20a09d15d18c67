"""Colored braid closures evaluated in the twisted double.

A braid word on n strands acts on the tensor product of the colors'
module spaces by monomial operators: generator i braids positions i and
i+1 (positive = left strand crosses over), and bracketing corrections
from the associator are inserted as scalar phases depending only on the
Z_p parts of the fluxes to the left of the crossing.  Each crossing is a
gather from the half-braiding tables of `stw.double`.

One walk over the product basis gives the word's `MonomialOperator`;
the closure invariant is its trace, the root-exponent histogram of the
basis vectors it fixes, materialized as one exact cyclotomic number.
The zero framing is one shift of that histogram (`zero_framing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

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
    "framed_invariant",
    "zero_framed_invariant",
    "zero_framing",
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
                raise ValueError(
                    f"letter {letter} invalid on {self.strands} strands"
                )

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
        body = token
        if not body.startswith("s"):
            raise ValueError(f"cannot parse braid token {token!r}")
        body = body[1:]
        power = 1
        if "^" in body:
            body, _, exp_text = body.partition("^")
            power = int(exp_text)
        index = int(body)
        if not 1 <= index < strands:
            raise ValueError(
                f"generator s{index} out of range on {strands} strands"
            )
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


def _resolve_colors(ctx: DoubleContext, word: BraidWord, colors) -> tuple[list[int], ClosureInfo]:
    if len(colors) != word.strands:
        raise ValueError(
            f"need {word.strands} colors, got {len(colors)}"
        )
    idx = [ctx.index_of(c) for c in colors]
    info = closure_structure(word)
    for comp in info.components:
        first = idx[comp[0] - 1]
        for strand in comp[1:]:
            if idx[strand - 1] != first:
                raise InconsistentColoringError(
                    f"strands {comp} form one closure component but carry "
                    f"colors {[ctx.simples[idx[s - 1]].label for s in comp]}"
                )
    return idx, info


# ----- compiling a word into pair-local monomial instructions -------------


def _pair_tables(ctx: DoubleContext, left_color: int, right_color: int, positive: bool):
    """Tables over all (left state, right state) pairs for one crossing.

    Returns (new_left, new_right, exponent) arrays indexed by
    left * dim_right + right.  For a positive crossing the left strand
    (color X) crosses over and acts on the right one (color Y); for a
    negative crossing the right strand (color X) crosses over acting by
    its inverse flux on the left one (color Y).  Both are gathers from
    the half-braiding tables of Y.
    """
    if positive:
        TX, TY = ctx.tables[left_color], ctx.tables[right_color]
        state, exp = ctx.half_braiding(TY, TX.flux)  # (dim_X, dim_Y)
        new_right = np.repeat(np.arange(TX.dim), TY.dim)
        return state.ravel(), new_right, exp.ravel()
    TY, TX = ctx.tables[left_color], ctx.tables[right_color]
    state, exp = ctx.half_braiding(TY, TX.flux, inverse=True)  # (dim_X, dim_Y)
    new_left = np.tile(np.arange(TX.dim), TY.dim)
    return new_left, state.T.ravel(), exp.T.ravel()


def _compile_word(ctx: DoubleContext, word: BraidWord, color_idx: list[int]):
    """Instruction stream for the walk: per letter, the pair tables with
    the associator phases folded in, plus bookkeeping of how colors move."""
    ne = ctx.root_order
    p = ctx.spec.p
    colc = list(color_idx)
    bparts = [ctx.tables[c].class_bpart for c in colc]
    instrs = []
    for letter in word.letters:
        i = abs(letter) - 1
        positive = letter > 0
        new_left, new_right, exp = _pair_tables(ctx, colc[i], colc[i + 1], positive)
        # associator sandwich: rebracketing the strands left of position i
        # against the two participating fluxes, before and after the swap
        if i > 0:
            left_b = sum(bparts[:i]) % p
            before = ctx.omega_ne(left_b, bparts[i], bparts[i + 1])
            after = ctx.omega_ne(left_b, bparts[i + 1], bparts[i])
            exp = (exp + after - before) % ne
        dim_right = ctx.tables[colc[i + 1]].dim
        instrs.append((i, dim_right, new_left, new_right, exp))
        colc[i], colc[i + 1] = colc[i + 1], colc[i]
        bparts[i], bparts[i + 1] = bparts[i + 1], bparts[i]
    return instrs, colc


# ----- executing the walk ---------------------------------------------------


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
        return (
            isinstance(other, MonomialOperator)
            and self.source_dims == other.source_dims
            and self.target_dims == other.target_dims
            and self.root_order == other.root_order
            and np.array_equal(self.perm, other.perm)
            and np.array_equal(self.exponents, other.exponents)
        )

    def trace_counts(self) -> np.ndarray:
        fixed = self.perm == np.arange(len(self.perm))
        return np.bincount(self.exponents[fixed], minlength=self.root_order)


def _walk(ctx: DoubleContext, word: BraidWord, color_idx: list[int]):
    """Run the word over the full product basis of the colors: the
    monomial operator and the colors at the top of the braid."""
    dims = [ctx.tables[c].dim for c in color_idx]
    instrs, final_colors = _compile_word(ctx, word, color_idx)
    total = prod(dims)
    state = []
    stride = total
    for d in dims:
        stride //= d
        state.append((np.arange(total) // stride) % d)
    expo = np.zeros(total, dtype=np.int64)
    for i, dim_right, new_left, new_right, exp in instrs:
        pair = state[i] * dim_right + state[i + 1]
        state[i], state[i + 1] = new_left[pair], new_right[pair]
        expo += exp[pair]
    final_dims = [ctx.tables[c].dim for c in final_colors]
    target = np.zeros(total, dtype=np.int64)
    stride = 1
    for j in range(len(final_dims) - 1, -1, -1):
        target += state[j] * stride
        stride *= final_dims[j]
    operator = MonomialOperator(
        source_dims=tuple(dims),
        target_dims=tuple(final_dims),
        perm=target,
        exponents=expo % ctx.root_order,
        root_order=ctx.root_order,
    )
    return operator, final_colors


def representation_operator(params: CocycleParams, word: BraidWord, colors) -> MonomialOperator:
    """The monomial operator of the colored word (letters applied first
    to last).  Colors may repeat freely; closure consistency is not
    required here, only for traces."""
    ctx = context_for(params)
    return _walk(ctx, word, [ctx.index_of(c) for c in colors])[0]


def framed_trace_counts(params: CocycleParams, word: BraidWord, colors) -> np.ndarray:
    """Root-of-unity histogram of the colored trace: entry j counts the
    basis vectors fixed by the word's permutation part with accumulated
    phase zeta^j.  The framed invariant is the histogram's root sum."""
    ctx = context_for(params)
    color_idx, _ = _resolve_colors(ctx, word, colors)
    operator, final_colors = _walk(ctx, word, color_idx)
    if final_colors != color_idx:
        raise AssertionError("consistent coloring should return to itself")
    return operator.trace_counts()


def zero_framing(ctx: DoubleContext, info: ClosureInfo, colors, counts: np.ndarray) -> np.ndarray:
    """The trace histogram with every component's blackboard
    self-framing cancelled: multiplying by theta_color^(-self_writhe) per
    closure component shifts the histogram by -sum self_writhe * t_color."""
    shift = 0
    for comp, sw in zip(info.components, info.self_writhes):
        shift -= sw * ctx.tables[ctx.index_of(colors[comp[0] - 1])].twist_exp
    return np.roll(counts, shift % ctx.root_order)


def framed_invariant(params: CocycleParams, word: BraidWord, colors) -> CycloNumber:
    """Trace of the colored word: the invariant of the closure in the
    blackboard framing of the braid diagram."""
    counts = framed_trace_counts(params, word, colors)
    return CycloNumber.from_root_counts(context_for(params).root_order, counts)


def zero_framed_invariant(params: CocycleParams, word: BraidWord, colors) -> CycloNumber:
    """The framed invariant with every component's blackboard self-framing
    cancelled by twist factors (see `zero_framing`)."""
    ctx = context_for(params)
    counts = framed_trace_counts(params, word, colors)
    counts = zero_framing(ctx, closure_structure(word), colors, counts)
    return CycloNumber.from_root_counts(ctx.root_order, counts)
