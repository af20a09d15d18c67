"""Simple objects of the twisted double of Z_q x| Z_p and their
half-braiding data, realized concretely: every simple is an induced
module with a monomial action, so braid generators act by a permutation
of basis vectors times a root of unity.

A simple object is (conjugacy class of the flux t, projective character
of the centralizer of t twisted by theta_t).  Basis vectors of the
underlying space are pairs (coset index i, internal index a): the flux
of (i, a) is members[i] = r_i t r_i^-1, and group elements act by

    y . |r_i, v>  =  theta_{t'}(y, r_i) / theta_{t'}(r_j, s) |r_j, pi(s) v>

where y r_i = r_j s with s in the centralizer and t' = r_j t r_j^-1.
All phases live in the cyclic group of order p^2 * q, so the engine
tracks integer exponents and only materializes exact cyclotomic numbers
at the end.

This formula is evaluated in one place: when a context is built, the
basis vectors of all simple objects are numbered in one global basis
(vector offset + b is basis vector b of the object with that offset),
and the action of every group element on every global vector is stored
as integer arrays of the new vector and the phase exponent, the action
of every g stacked over that of every g^-1 in one (2|G|, sum of dims)
table each (`crossing_state`, `crossing_exp`).  A vector's color is the
object it belongs to, so colors move with the vectors.  The braiding of
X over Y is the action of the flux of the X vector on the Y vector, so
every crossing of the braid engine, and `dpr_action`, `sigma_action` and
`sigma_inverse_action`, read these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from stw.cocycle import CocycleParams, omega_exponent, theta_exponent_table
from stw.cyclotomic import CycloNumber, root_of_unity
from stw.group import (
    ConjClassInfo,
    GroupData,
    GroupElement,
    GroupSpec,
    conjugacy_data,
    irreps_of_G,
)

__all__ = [
    "SimpleObject",
    "AnyonTables",
    "DoubleContext",
    "context_for",
    "galois_relabel",
    "enumerate_simples",
    "qdim",
    "twist",
    "dpr_action",
    "sigma_action",
    "sigma_inverse_action",
    "associator_scalar",
]


@dataclass(frozen=True)
class SimpleObject:
    """One simple object: flux class + centralizer character index."""

    label: str
    class_index: int
    char_index: int
    dim: int  # quantum dimension (a positive integer here)
    internal_dim: int  # dimension of the centralizer character's space

    def __str__(self) -> str:
        return self.label


@dataclass
class AnyonTables:
    """Engine data of one simple object.  Its basis vectors, encoded as
    coset * internal_dim + internal, are the global vectors offset + b of
    its context; twist_exp is in units of zeta_(p^2 q), a copy of its
    entry of `DoubleContext.twist_exps` (which every reader in `stw`
    uses) kept for the benchmark's worker."""

    simple: SimpleObject
    dim: int
    offset: int
    class_bpart: int
    twist_exp: int  # mod p^2 q


class DoubleContext:
    """All engine data for one (group, twisting) pair."""

    def __init__(self, params: CocycleParams):
        self.params = params
        spec = params.spec
        self.spec = spec
        self.root_order = spec.p**2 * spec.q  # every engine phase lives here
        self.gdata = GroupData(spec)
        self.classes = conjugacy_data(spec)
        self.theta_zp = theta_exponent_table(params)  # (p,p,p), zeta_p units
        self._zp_unit = self.root_order // spec.p
        self.theta_ne_tab = self.theta_zp * self._zp_unit  # engine units
        self._zq_unit = self.root_order // spec.q
        self._zp2_unit = self.root_order // spec.p**2
        self.simples: list[SimpleObject] = []
        self.tables: list[AnyonTables] = []
        self._build()
        self.label_index = {s.label: i for i, s in enumerate(self.simples)}

    # ----- construction --------------------------------------------------

    def _coset_action(self, cls: ConjClassInfo):
        """The coset part of the action on the class of t, for every group
        element y and coset i: y r_i = r_j s with s in the centralizer.
        Returns (flux, cent, j, s, exp): the group index of each coset's
        flux and of each centralizer element, then (|G|, n_cosets) arrays
        of j, of the centralizer index of s, and of the exponent of
        theta_{t'}(y, r_i) / theta_{t'}(r_j, s)."""
        gd = self.gdata
        flux = np.array([gd.index(m) for m in cls.members], dtype=np.int64)
        reps = np.array([gd.index(r) for r in cls.coset_reps], dtype=np.int64)
        cent = np.array([gd.index(c) for c in cls.centralizer], dtype=np.int64)
        coset_of = np.full(self.spec.order, -1, dtype=np.int64)
        srep = np.full(self.spec.order, -1, dtype=np.int64)
        for j in range(len(reps)):
            products = gd.mult_table[reps[j], cent]
            coset_of[products] = j
            srep[products] = np.arange(len(cent))
        if np.any(coset_of < 0):
            raise AssertionError("cosets do not cover the group")
        w = gd.mult_table[:, reps]
        j, s = coset_of[w], srep[w]
        theta = self.theta_ne_tab[cls.representative.m]
        exp = (
            theta[gd.b_part[:, None], gd.b_part[reps][None, :]]
            - theta[gd.b_part[reps[j]], gd.b_part[cent[s]]]
        )
        return flux, cent, j, s, exp

    def _build(self):
        """The simple objects, then the global action tables: flux[v] is
        the group index of the flux of global vector v, and g acts on v as

            g . |v>  =  zeta^action_exp[g, v] |action_state[g, v]>,

        g^-1 as zeta^inverse_exp[g, v] |inverse_state[g, v]>, its phase
        lowered by theta_h(g, g^-1) (h the flux of v): the action by
        which an inverse crossing undoes a crossing."""
        spec = self.spec
        p, q, u = spec.p, spec.q, self.params.u
        irreps = irreps_of_G(spec)
        parts = []
        for ci, cls in enumerate(self.classes):
            coset_action = self._coset_action(cls)
            cent = coset_action[1]
            rep_el = cls.representative
            if rep_el == GroupElement(0, 0):
                # identity flux: one coset, characters = irreps of G
                for s, irrep in enumerate(irreps):
                    unit = self.root_order // irrep.root_order
                    parts.append(self._add(
                        f"I_{s}", ci, s, coset_action,
                        pi_perm=irrep.perm[cent],
                        pi_exp=irrep.exponents[cent] * unit,
                    ))
            elif rep_el.m == 0:
                # a-type flux: centralizer Z_q, characters zeta_q^(s l)
                l0 = rep_el.l
                cent_apart = self.gdata.a_part[cent]
                for s in range(q):
                    parts.append(self._add(
                        f"A_{l0}_{s}", ci, s, coset_action,
                        pi_perm=np.zeros((len(cent), 1), dtype=np.int64),
                        pi_exp=(cent_apart * s * self._zq_unit).reshape(-1, 1),
                    ))
            else:
                # b-type flux b^k: centralizer Z_p, characters
                # zeta_(p^2)^((s p + u k) l) on b^l
                k = rep_el.m
                cent_bpart = self.gdata.b_part[cent]
                for s in range(p):
                    lift = _b_character(p, u, k, s)
                    parts.append(self._add(
                        f"B_{k}_{s}", ci, s, coset_action,
                        pi_perm=np.zeros((len(cent), 1), dtype=np.int64),
                        pi_exp=(cent_bpart * lift * self._zp2_unit).reshape(-1, 1),
                    ))
        self.dims = np.array([t.dim for t in self.tables])
        self.offsets = np.array([t.offset for t in self.tables])
        # The one array of twists that every reader in `stw` uses; the
        # per-object copies must agree with it.
        self.twist_exps = self.twist_exps_at(self.params.u)
        if any(t.twist_exp != e for t, e in zip(self.tables, self.twist_exps.tolist())):
            raise AssertionError("per-object twists disagree with twist_exps")
        flux, state, exp = (np.concatenate(part, axis=-1) for part in zip(*parts))
        self._require_transitive(state)
        gd = self.gdata
        g_inv = gd.inv_table
        bpart = np.repeat([t.class_bpart for t in self.tables], self.dims)
        norm = self.theta_ne_tab[bpart[None, :], gd.b_part[:, None], gd.b_part[g_inv][:, None]]
        # Vectors and phases (below size and N) are stored in the narrowest
        # int that holds them, which halves or quarters the bytes a walk
        # moves.  The action of g and of g^-1 are stacked in one (2|G|, size)
        # table each for vectors and phases, so that a crossing of either
        # sign is one gather from the raveled table at flux_row[v] + w (the
        # action by the flux of v) or inverse_row[v] + w (by its inverse).
        self.size = len(flux)
        order = spec.order
        vector, phase = _narrow_dtype(self.size), _narrow_dtype(self.root_order)
        row = np.int32 if 2 * order * self.size < 2**31 else np.int64
        self.flux = flux
        self.flux_row = (flux * self.size).astype(row)
        self.inverse_row = self.flux_row + order * self.size
        self.crossing_state = np.concatenate([state, state[g_inv]]).astype(vector)
        self.crossing_exp = np.concatenate([exp, (exp[g_inv] - norm) % self.root_order]).astype(phase)
        self.action_state, self.inverse_state = self.crossing_state[:order], self.crossing_state[order:]
        self.action_exp, self.inverse_exp = self.crossing_exp[:order], self.crossing_exp[order:]

    def _require_transitive(self, state):
        """Raise unless G acts transitively on the vectors of every simple
        object, which lets `stw.braid.trace_counts` walk one tuple per
        G-orbit: the images of each object's first vector under all of G
        must stay in the object and reach every one of its vectors."""
        n = len(self.tables)
        orbit = state[:, self.offsets]  # (|G|, n)
        reached = np.zeros(state.shape[1], dtype=bool)
        reached[orbit] = True
        owner = np.repeat(np.arange(n), self.dims)
        split = (np.add.reduceat(reached, self.offsets, dtype=np.int64) < self.dims) | np.any(
            owner[orbit] != np.arange(n), axis=0
        )
        if split.any():
            raise AssertionError(
                f"G is not transitive on the vectors of {self.simples[split.argmax()].label}"
            )

    def _add(self, label, ci, s, coset_action, *, pi_perm, pi_exp):
        """Append one simple object and return the flux, new global vector
        and exponent arrays of its vectors: pi_perm/pi_exp give the
        monomial action pi(s) of each centralizer element on the internal
        space."""
        flux, _, j, cent_s, coset_exp = coset_action
        order, n_cosets = j.shape
        internal_dim = pi_perm.shape[1]
        simple = SimpleObject(
            label=label, class_index=ci, char_index=s,
            dim=n_cosets * internal_dim, internal_dim=internal_dim,
        )
        offset = self.tables[-1].offset + self.tables[-1].dim if self.tables else 0
        state = offset + j[:, :, None] * internal_dim + pi_perm[cent_s]
        exp = (coset_exp[:, :, None] + pi_exp[cent_s]) % self.root_order
        self.simples.append(simple)
        self.tables.append(
            AnyonTables(
                simple=simple, dim=simple.dim, offset=offset,
                class_bpart=self.classes[ci].representative.m,
                twist_exp=self._twist_exp(ci, s, self.params.u),
            )
        )
        return np.repeat(flux, internal_dim), state.reshape(order, -1), exp.reshape(order, -1)

    def _twist_exp(self, ci: int, s: int, u: int) -> int:
        """The twist exponent, mod N, of the object with flux class ci and
        character s in theory u of this group: zeta_q^(l s) for the flux
        a^l (l = 0, twist 1, for the identity flux) and
        zeta_(p^2)^(k (s p + u k)) for the flux b^k."""
        rep = self.classes[ci].representative
        if rep.m:
            exp = _b_character(self.spec.p, u, rep.m, s) * rep.m * self._zp2_unit
        else:
            exp = rep.l * s * self._zq_unit
        return exp % self.root_order

    def twist_exps_at(self, u: int) -> np.ndarray:
        """The twist exponents of this context's objects in theory u of
        the same group, whose labels and dims are the same for every u."""
        return np.array([self._twist_exp(s.class_index, s.char_index, u) for s in self.simples])

    # ----- scalar helpers -------------------------------------------------

    def theta_ne(self, flux_bpart: int, x_bpart: int, y_bpart: int) -> int:
        """theta exponent in engine units (zeta_(p^2 q))."""
        return int(self.theta_zp[flux_bpart, x_bpart, y_bpart]) * self._zp_unit

    def omega_ne(self, gm: int, hm: int, km: int) -> int:
        """omega exponent in engine units."""
        return omega_exponent(self.params, gm, hm, km) * self._zp_unit

    def index_of(self, anyon) -> int:
        if isinstance(anyon, SimpleObject):
            return self.label_index[anyon.label]
        if isinstance(anyon, str):
            return self.label_index[anyon]
        return int(anyon)

    def root(self, exponent: int) -> CycloNumber:
        return root_of_unity(exponent % self.root_order, self.root_order)


def _b_character(p: int, u: int, k: int, s: int) -> int:
    """The exponent c = s p + u k (mod p^2) of the centralizer character
    of B_k_s in theory u, which takes b^l to zeta_(p^2)^(c l)."""
    return (s * p + u * k) % (p * p)


def _narrow_dtype(bound: int):
    """The narrowest int dtype that holds 0..bound-1: int16 up to 2^15,
    else int32."""
    return np.int16 if bound <= 2**15 else np.int32


@lru_cache(maxsize=None)
def context_for(params: CocycleParams) -> DoubleContext:
    return DoubleContext(params)


def galois_relabel(params: CocycleParams, f: int) -> tuple[CocycleParams, np.ndarray]:
    """Where sigma_f (zeta -> zeta^f, f = 1 mod q and prime to p) sends
    each simple object of the theory `params`: returns the theory with
    u' = f u mod p and the index of the image of each object, read off
    the characters in `DoubleContext._build`.  Every theory of a group
    lists the same labels in the same order, so the indices are read
    from the context of `params` and no context of u' is built.

    sigma_f fixes every zeta_q-valued character, so the A_l_m and the
    induced I_j keep their labels; a linear I_j takes the character
    zeta_p^(f j m), so it becomes I_(f j mod p); B_k_s takes
    zeta_(p^2)^(f (s p + u k) l), which is the character of B_k_s' in
    theory u' when s' p + u' k = f (s p + u k) (mod p^2)."""
    spec = params.spec
    p, q, u = spec.p, spec.q, params.u
    if f % q != 1 or f % p == 0:
        raise ValueError(f"sigma_{f} must fix zeta_q and be a unit mod p")
    target = CocycleParams(spec, f * u % p)
    ctx = context_for(params)
    images = []
    for simple in ctx.simples:
        k = ctx.classes[simple.class_index].representative.m
        s, label = simple.char_index, simple.label
        if k:
            label = f"B_{k}_{(f * (s * p + u * k) - target.u * k) % (p * p) // p}"
        elif label.startswith("I_") and s < p:
            label = f"I_{f * s % p}"
        images.append(ctx.label_index[label])
    return target, np.array(images)


def enumerate_simples(params: CocycleParams) -> list[SimpleObject]:
    """All simple objects in canonical order: identity-flux objects
    (linear characters first, then the induced ones), a-type fluxes by
    ascending class representative, then b-type fluxes b^1..b^(p-1)."""
    return list(context_for(params).simples)


def qdim(simple: SimpleObject) -> CycloNumber:
    """Quantum dimension (here always the integer |class| * dim(char))."""
    return CycloNumber.from_rational(simple.dim)


def twist(params: CocycleParams, simple) -> CycloNumber:
    """Ribbon twist theta = pi(t) / id evaluated on the flux t."""
    ctx = context_for(params)
    return ctx.root(int(ctx.twist_exps[ctx.index_of(simple)]))


def dpr_action(
    params: CocycleParams, simple, y: GroupElement, basis: int
) -> tuple[int, CycloNumber]:
    """Action of the group element y on basis vector `basis` of the
    module underlying `simple`: returns (new basis index, coefficient).
    The coefficient is always a single root of unity (monomial action).
    """
    ctx = context_for(params)
    off = ctx.tables[ctx.index_of(simple)].offset
    g = ctx.gdata.index(y)
    v = off + basis
    return int(ctx.action_state[g, v]) - off, ctx.root(int(ctx.action_exp[g, v]))


def basis_flux(params: CocycleParams, simple, basis: int) -> GroupElement:
    """Flux (group grading) of one basis vector."""
    ctx = context_for(params)
    off = ctx.tables[ctx.index_of(simple)].offset
    return ctx.gdata.element(int(ctx.flux[off + basis]))


def sigma_action(
    params: CocycleParams, pair, bases: tuple[int, int]
) -> tuple[CycloNumber, tuple[int, int]]:
    """Braiding c_{X,Y}: V_X (x) V_Y -> V_Y (x) V_X on basis vectors.

    pair = (X, Y) are the colors (labels, indices or SimpleObjects) and
    bases = (bx, by).  Returns (phase, (by', bx')): the X vector crosses
    over, acting on the Y vector by its flux.
    """
    ctx = context_for(params)
    x, y = (ctx.tables[ctx.index_of(c)].offset for c in pair)
    bx, by = bases
    g = ctx.flux[x + bx]
    new = int(ctx.action_state[g, y + by]) - y
    return ctx.root(int(ctx.action_exp[g, y + by])), (new, bx)


def sigma_inverse_action(
    params: CocycleParams, pair, bases: tuple[int, int]
) -> tuple[CycloNumber, tuple[int, int]]:
    """Inverse braiding c_{X,Y}^-1: V_Y (x) V_X -> V_X (x) V_Y.

    pair = (X, Y) and bases = (by, bx) in the order they sit on the
    strands.  Satisfies sigma_action . sigma_inverse_action = id.
    """
    ctx = context_for(params)
    x, y = (ctx.tables[ctx.index_of(c)].offset for c in pair)
    by, bx = bases
    g = ctx.flux[x + bx]
    new = int(ctx.inverse_state[g, y + by]) - y
    return ctx.root(int(ctx.inverse_exp[g, y + by])), (bx, new)


def associator_scalar(params: CocycleParams, fluxes) -> CycloNumber:
    """Scalar by which the associator acts on a triple of flux sectors."""
    f1, f2, f3 = fluxes
    ctx = context_for(params)
    return ctx.root(ctx.omega_ne(f1.m, f2.m, f3.m))
