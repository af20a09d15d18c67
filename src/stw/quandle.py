"""Affine (Alexander) quandle colorings of braid closures.

Each nontrivial flux class of the semidirect-product group carries an
affine quandle structure on Z_q with multiplier t = n^k: x > y =
(1-t)x + t*y.  The crossing map c(x, y) = (x > y, x) solves the braid
equation, and the number of colorings fixed by a braid's closure is a
combinatorial link invariant.  It serves as an independent oracle for
the braid-engine traces: with every strand colored by one B-type anyon,
the framed trace equals twist^writhe times the coloring count.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .braid import BraidWord, _closure_value, framed_invariant
from .cocycle import CocycleParams
from .cyclotomic import CycloNumber
from .double import context_for
from .group import GroupSpec


@dataclass(frozen=True)
class AlexanderQuandle:
    """Z_q with x > y = (1-t)x + t*y, where t = n^k mod q."""

    modulus: int
    multiplier: int

    def __post_init__(self):
        if not 0 < self.multiplier < self.modulus:
            raise ValueError("multiplier must be a nonzero residue")

    @classmethod
    def for_flux_class(cls, spec: GroupSpec, k: int) -> "AlexanderQuandle":
        """The quandle attached to the flux class of b^k (k = 1..p-1)."""
        if not 1 <= k < spec.p:
            raise ValueError(f"flux exponent k={k} must lie in 1..{spec.p - 1}")
        return cls(spec.q, spec.n_pow(k))

    def op(self, x: int, y: int) -> int:
        t = self.multiplier
        return ((1 - t) * x + t * y) % self.modulus


def quandle_op(quandle: AlexanderQuandle, x: int, y: int) -> int:
    """x > y in the given quandle."""
    return quandle.op(x, y)


def quandle_axioms_hold(quandle: AlexanderQuandle) -> bool:
    """Exhaustively check idempotence, left-invertibility, and
    self-distributivity over the whole carrier."""
    q = quandle.modulus
    elems = range(q)
    for x in elems:
        if quandle.op(x, x) != x:
            return False
    for y in elems:
        if len({quandle.op(x, y) for x in elems}) != q:
            return False
    for x, y, z in product(elems, repeat=3):
        lhs = quandle.op(quandle.op(x, y), z)
        rhs = quandle.op(quandle.op(x, z), quandle.op(y, z))
        if lhs != rhs:
            return False
    return True


def braid_equation_holds(quandle: AlexanderQuandle) -> bool:
    """Check that c(x, y) = (x > y, x) satisfies the braid (Yang-Baxter)
    equation (c x 1)(1 x c)(c x 1) = (1 x c)(c x 1)(1 x c) on Q^3."""

    def c12(s):
        x, y, z = s
        return (quandle.op(x, y), x, z)

    def c23(s):
        x, y, z = s
        return (x, quandle.op(y, z), y)

    for s in product(range(quandle.modulus), repeat=3):
        if c12(c23(c12(s))) != c23(c12(c23(s))):
            return False
    return True


def _crossing_states(quandle: AlexanderQuandle, word: BraidWord, state) -> list:
    """Propagate color tuples, given as one row of colors per strand at
    the bottom of the braid, through the word; returns the rows at the
    top."""
    q = quandle.modulus
    t = quandle.multiplier
    t_inv = pow(t, -1, q)
    state = list(state)
    for letter in word.letters:
        i = abs(letter) - 1
        x, y = state[i], state[i + 1]
        if letter > 0:
            state[i], state[i + 1] = ((1 - t) * x + t * y) % q, x
        else:
            state[i], state[i + 1] = y, (t_inv * (x - (1 - t) * y)) % q
    return state


def coloring_count(quandle: AlexanderQuandle, word: BraidWord) -> int:
    """Number of color tuples in Q^strands fixed by the braid action —
    the quandle coloring count of the closure link.

    It is q times the number of fixed tuples whose strand 1 has color 0,
    which are the only ones enumerated.  Adding c to every color commutes
    with x > y = (1-t)x + t*y (and so with its inverse, and with each
    crossing), so it carries fixed tuples to fixed tuples, and it moves
    the color of strand 1 from 0 to c: each of the q values of strand 1
    is taken by equally many fixed tuples."""
    q = quandle.modulus
    start = np.indices((1,) + (q,) * (word.strands - 1)).reshape(word.strands, -1)
    end = _crossing_states(quandle, word, start)
    fixed = end[0] == start[0]
    for j in range(1, word.strands):
        fixed &= end[j] == start[j]
    return q * int(np.count_nonzero(fixed))


def coloring_count_linear(quandle: AlexanderQuandle, word: BraidWord) -> int:
    """The same count via linear algebra over Z_q (q prime): the braid
    action is linear in the colors, so the count is q^dim ker(M - I)."""
    q = quandle.modulus
    t = quandle.multiplier
    t_inv = pow(t, -1, q)
    m = np.eye(word.strands, dtype=np.int64)
    for letter in word.letters:
        i = abs(letter) - 1
        rows = m[[i, i + 1], :]
        if letter > 0:
            new_top = ((1 - t) * rows[0] + t * rows[1]) % q
            new_bot = rows[0]
        else:
            new_top = rows[1]
            new_bot = (t_inv * (rows[0] - (1 - t) * rows[1])) % q
        m[i, :], m[i + 1, :] = new_top, new_bot
    a = (m - np.eye(word.strands, dtype=np.int64)) % q
    return q ** (word.strands - _rank_mod_prime(a, q))


def _rank_mod_prime(matrix: np.ndarray, q: int) -> int:
    """Rank of an integer matrix over the field Z_q by Gaussian
    elimination."""
    a = matrix % q
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r, col] % q), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, q)) % q
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % q
        rank += 1
        if rank == rows:
            break
    return rank


@dataclass(frozen=True)
class SingleColorReport:
    """Outcome of comparing the braid-engine trace against the quandle
    prediction twist^writhe * coloring_count for a single B-type color."""

    ok: bool
    label: str
    writhe: int
    count: int
    invariant: CycloNumber
    predicted: CycloNumber


def single_color_check(
    params: CocycleParams, word: BraidWord, k: int, s: int
) -> SingleColorReport:
    """Color every strand by B_{k,s} and test the exact equality
    framed_invariant = twist^writhe * coloring_count."""
    ctx = context_for(params)
    label = f"B_{k}_{s}"
    colors = [label] * word.strands
    invariant = framed_invariant(params, word, colors)
    quandle = AlexanderQuandle.for_flux_class(params.spec, k)
    count = coloring_count(quandle, word)
    # count * zeta^(twist * writhe): one fixed phase with pin = count, on
    # the closure-value path of the traces.
    exponent = ctx.twist_exps[ctx.index_of(label)] * word.writhe % ctx.root_order
    predicted = _closure_value(ctx.root_order, np.array([exponent]), count, None)
    return SingleColorReport(
        ok=invariant == predicted,
        label=label,
        writhe=word.writhe,
        count=count,
        invariant=invariant,
        predicted=predicted,
    )
