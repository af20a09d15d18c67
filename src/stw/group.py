"""The metacyclic groups Z_q x| Z_p and their exact representation theory.

Elements are pairs (l, m) standing for a^l b^m, where a generates Z_q,
b generates Z_p, and b a b^-1 = a^n for a fixed n of multiplicative
order p mod q.  Multiplication:

    (l, m) * (l', m') = (l + n^m l' mod q, m + m' mod p).

Everything downstream (conjugacy data, centralizers, induced
characters) is computed from integer arithmetic on these pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from stw.cyclotomic import CycloNumber, _is_prime, root_of_unity

__all__ = [
    "GroupSpec",
    "GroupElement",
    "ConjClassInfo",
    "GroupData",
    "multiply",
    "inverse",
    "identity",
    "conjugacy_data",
    "irreps_of_G",
    "centralizer_character",
    "MonomialRep",
]


class GroupElement(NamedTuple):
    """a^l b^m with 0 <= l < q, 0 <= m < p."""

    l: int
    m: int


def _mult_order(n: int, q: int) -> int:
    k, acc = 1, n % q
    while acc != 1:
        acc = acc * n % q
        k += 1
        if k > q:
            raise ArithmeticError("n is not invertible mod q")
    return k


@dataclass(frozen=True)
class GroupSpec:
    """Parameters (q, p, n) defining Z_q x| Z_p; validates on creation."""

    q: int = 11
    p: int = 5
    n: int = 4

    def __post_init__(self):
        if not (_is_prime(self.q) and _is_prime(self.p)):
            raise ValueError(f"q={self.q} and p={self.p} must be prime")
        if (self.q - 1) % self.p != 0:
            raise ValueError(f"p={self.p} must divide q-1={self.q - 1}")
        n = self.n % self.q
        if n in (0, 1):
            raise ValueError(f"n={self.n} must be nontrivial mod q")
        if _mult_order(n, self.q) != self.p:
            raise ValueError(
                f"n={self.n} must have multiplicative order p={self.p} mod q={self.q}"
            )

    @property
    def order(self) -> int:
        return self.q * self.p

    def n_pow(self, m: int) -> int:
        return pow(self.n, m % self.p, self.q)


def identity(spec: GroupSpec) -> GroupElement:
    return GroupElement(0, 0)


def multiply(spec: GroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    l1, m1 = g
    l2, m2 = h
    return GroupElement((l1 + spec.n_pow(m1) * l2) % spec.q, (m1 + m2) % spec.p)


def inverse(spec: GroupSpec, g: GroupElement) -> GroupElement:
    l, m = g
    n_inv_m = spec.n_pow(-m)
    return GroupElement((-n_inv_m * l) % spec.q, (-m) % spec.p)


class ConjClassInfo(NamedTuple):
    """One conjugacy class with the deterministic data the anyon basis uses.

    members[i] == coset_reps[i] * representative * coset_reps[i]^-1, and
    coset_reps[0] is the identity.  centralizer lists the centralizer of
    the representative in a fixed generator-power order.
    """

    representative: GroupElement
    members: tuple[GroupElement, ...]
    centralizer: tuple[GroupElement, ...]
    coset_reps: tuple[GroupElement, ...]


def conjugacy_data(spec: GroupSpec) -> tuple[ConjClassInfo, ...]:
    """Conjugacy classes in canonical order: identity, then the classes
    {a^(l*n^j)} indexed by ascending least exponent l, then the fiber
    classes {a^* b^k} for k = 1..p-1.  Representatives are the
    lexicographically least (l, m) in each class.
    """
    q, p = spec.q, spec.p
    classes = []
    e = GroupElement(0, 0)
    classes.append(
        ConjClassInfo(
            representative=e,
            members=(e,),
            centralizer=tuple(
                GroupElement(l, m) for l in range(q) for m in range(p)
            ),
            coset_reps=(e,),
        )
    )
    seen: set[int] = set()
    cent_a = tuple(GroupElement(x, 0) for x in range(q))
    for l in range(1, q):
        if l in seen:
            continue
        orbit = [(l * spec.n_pow(j)) % q for j in range(p)]
        seen.update(orbit)
        classes.append(
            ConjClassInfo(
                representative=GroupElement(l, 0),
                members=tuple(GroupElement(x, 0) for x in orbit),
                centralizer=cent_a,
                coset_reps=tuple(GroupElement(0, j) for j in range(p)),
            )
        )
    cent_b = tuple(GroupElement(0, y) for y in range(p))
    for k in range(1, p):
        scale = (1 - spec.n_pow(k)) % q
        classes.append(
            ConjClassInfo(
                representative=GroupElement(0, k),
                members=tuple(GroupElement(i * scale % q, k) for i in range(q)),
                centralizer=cent_b,
                coset_reps=tuple(GroupElement(i, 0) for i in range(q)),
            )
        )
    return tuple(classes)


def centralizer_character(
    spec: GroupSpec, cls: ConjClassInfo, index: int, x: GroupElement
) -> CycloNumber:
    """Value at x of the index-th linear character of the centralizer of
    cls.representative (cyclic Z_q for a-type classes, Z_p for b-type;
    not defined for the identity class, whose centralizer is all of G).
    """
    rep = cls.representative
    if rep == GroupElement(0, 0):
        raise ValueError("the identity class has a non-abelian centralizer")
    if rep.m == 0:
        if x.m != 0:
            raise ValueError(f"{x} is not in the centralizer Z_q")
        return root_of_unity(index * x.l, spec.q)
    if x.l != 0:
        raise ValueError(f"{x} is not in the centralizer Z_p")
    return root_of_unity(index * x.m, spec.p)


@dataclass(frozen=True)
class MonomialRep:
    """A monomial representation: g maps basis vector e_i to
    root_of_unity(exponents[g][i], root_order) * e_{perm[g][i]},
    with group elements indexed by l * p + m.
    """

    spec: GroupSpec
    dim: int
    root_order: int
    perm: np.ndarray  # (|G|, dim) int
    exponents: np.ndarray  # (|G|, dim) int
    kind: str  # "linear" or "induced"
    index: int

    def character(self, g: GroupElement) -> CycloNumber:
        gi = g.l * self.spec.p + g.m
        total = CycloNumber.zero(self.root_order)
        for i in range(self.dim):
            if self.perm[gi, i] == i:
                total = total + root_of_unity(int(self.exponents[gi, i]), self.root_order)
        return total

    def matrix_entry_exponent(self, g: GroupElement, i: int) -> tuple[int, int]:
        """(target index, root exponent) for column i of the matrix of g."""
        gi = g.l * self.spec.p + g.m
        return int(self.perm[gi, i]), int(self.exponents[gi, i])


def _parts(spec: GroupSpec):
    """The a and b parts (l, m) of every group index l p + m, and n^m for
    m = 0..p-1, as int64 arrays."""
    a_part, b_part = np.divmod(np.arange(spec.order, dtype=np.int64), spec.p)
    return a_part, b_part, np.array([spec.n_pow(m) for m in range(spec.p)], dtype=np.int64)


def irreps_of_G(spec: GroupSpec) -> tuple[MonomialRep, ...]:
    """All irreducibles: p linear characters factoring through Z_p,
    then (q-1)/p monomial irreps of dimension p induced from Z_q,
    indexed by the canonical orbit representatives of n acting on
    Z_q - {0}.  Listed in that order.  a^l b^m takes basis vector i of
    the induced irrep j to zeta_q^(j l n^-t) e_t, t = i + m mod p.
    """
    q, p = spec.q, spec.p
    a_part, b_part, npow = _parts(spec)
    reps: list[MonomialRep] = []
    for j in range(p):
        reps.append(
            MonomialRep(
                spec=spec, dim=1, root_order=p, perm=np.zeros((spec.order, 1), dtype=np.int64),
                exponents=(j * b_part % p)[:, None], kind="linear", index=j,
            )
        )
    perm = (np.arange(p) + b_part[:, None]) % p
    seen: set[int] = set()
    for j in range(1, q):
        if j in seen:
            continue
        seen.update((j * spec.n_pow(t)) % q for t in range(p))
        reps.append(
            MonomialRep(
                spec=spec, dim=p, root_order=q, perm=perm.copy(),
                exponents=j * a_part[:, None] * npow[-perm % p] % q, kind="induced", index=j,
            )
        )
    return tuple(reps)


@dataclass
class GroupData:
    """Integer lookup tables for one group, indexed by l * p + m."""

    spec: GroupSpec
    mult_table: np.ndarray = field(init=False)  # (|G|, |G|)
    inv_table: np.ndarray = field(init=False)  # (|G|,)
    b_part: np.ndarray = field(init=False)  # (|G|,)
    a_part: np.ndarray = field(init=False)  # (|G|,)

    def __post_init__(self):
        spec = self.spec
        q, p = spec.q, spec.p
        ls, ms, npow = _parts(spec)
        l1 = ls[:, None]
        m1 = ms[:, None]
        l2 = ls[None, :]
        m2 = ms[None, :]
        self.mult_table = ((l1 + npow[m1] * l2) % q) * p + (m1 + m2) % p
        # (l, m)^-1 = (-n^-m l, -m)
        self.inv_table = (-npow[-ms % p] * ls) % q * p + -ms % p
        self.b_part = ms
        self.a_part = ls

    def index(self, g: GroupElement) -> int:
        return g.l * self.spec.p + g.m

    def element(self, idx: int) -> GroupElement:
        return GroupElement(idx // self.spec.p, idx % self.spec.p)
