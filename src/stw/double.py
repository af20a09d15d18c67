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

This formula is evaluated in one place: the basis vectors of all simple
objects are numbered in one global basis (vector offset + b is basis
vector b of the object with that offset), and the action of every group
element on every global vector is stored as integer arrays of the new
vector and the phase exponent, the action of every g stacked over that
of every g^-1 in one (2|G|, sum of dims) table each (`crossing_state`,
`crossing_exp`).  A vector's color is the object it belongs to, so
colors move with the vectors.  The braiding of X over Y is the action of
the flux of the X vector on the Y vector, so every crossing of the braid
engine, and `dpr_action`, `sigma_action` and `sigma_inverse_action`,
read these tables.

The engine data come in a group part and a theory part.  Every theory
u of a group has the same simple objects, the same global basis and the
same action of G on it (Dijkgraaf, Pasquier, Roche 1990); only the
phases and the twists depend on u, as omega_u is omega_1 to the u and a
B character is s p + u k.  So `GroupTables`, built once per group
(`group_for`), lists the objects and their twists; on the group's first
context it writes `flux` and `crossing_state` and checks transitivity,
and it keeps the second pin's orbit table, all read-only.  A
`DoubleContext`, built once per theory (`context_for`), binds those
arrays as plain attributes and builds only `crossing_exp`, the twists
and its `AnyonTables`.  Reading labels, dims and twists
(`galois_relabel`, the placement of u = 0 in `stw.modular`) builds no
vector table.  The objects are listed first, which fixes the number of
global vectors and so the dtypes of the tables; each
table is then allocated once, in its final dtype, and each run of
objects of one flux class and one internal dim writes its own columns:
the action of g, and that of g^-1 through the inverse table, its phase
lowered by theta_h(g, g^-1), which is one column per run since it
depends on the flux h only through its Z_p part.  The group checks on
each run that G acts transitively on the vectors of each of its objects.
No (|G|, sum of dims) intermediate is built, so each part peaks at well
under twice the bytes of the tables it keeps.

Transitivity is what lets `stw.braid` walk one tuple per G-orbit: the
braiding commutes with the diagonal G-action, so one strand of each
coloring may sit on its object's first vector v.  The same lemma, with
G replaced by the stabiliser Stab(v) = {g : action_state[g, v] == v},
lets a second strand walk one vector per Stab(v)-orbit of its object,
each counted with its orbit's size (`GroupTables.orbits`).  Stab(v) is
<b> for a B object and <a> for an A object or an induced I_j.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    "OrbitTable",
    "GroupTables",
    "DoubleContext",
    "group_for",
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


@dataclass(frozen=True)
class OrbitTable:
    """The orbits of the stabiliser H = Stab(v) of each object's first
    vector v on the vectors of every object, for the second pin of
    `stw.braid`.

    stab[x] numbers the stabiliser of object x's first vector (-1 for an
    object of dimension 1, which is pinned only when every strand has
    dimension 1).  For stabiliser s, count[s, y] is its number of orbits
    on object y; the segment of object y in reps[s] (its columns offset
    to offset + dim) starts with their representatives, the least vector
    of each orbit, increasing, so it is a CSR of the representatives with
    the object offsets as its row starts; size[s, w] is the size of the
    orbit of vector w.  stab_list is stab as Python ints, for the
    one-coloring branch."""

    stab: np.ndarray
    count: np.ndarray
    reps: np.ndarray
    size: np.ndarray
    stab_list: list[int]


class GroupTables:
    """The engine data that every theory u of one group shares: the
    simple objects, their global basis and twists, the action of G on
    that basis and the second pin's orbit table.  Built once per group by
    `group_for`, which lists the objects only; the vector action is
    written on the group's first `DoubleContext` (`write_vectors`) and
    the orbit table on first use.  Its arrays are read-only, and every
    `DoubleContext` of the group binds them."""

    def __init__(self, spec: GroupSpec):
        p, q = spec.p, spec.q
        self.spec = spec
        self.root_order = p * p * q  # every engine phase lives here
        self.gdata = GroupData(spec)
        self.classes = conjugacy_data(spec)
        self.irreps = irreps_of_G(spec)
        # omega_u = omega_1^u, so theta_u = u theta_1: one table, zeta_p units
        self.theta1_zp = theta_exponent_table(CocycleParams(spec, 1))
        self.simples: list[SimpleObject] = []
        self.runs: list[tuple[int, range, int]] = []  # (first object, characters, class)
        for ci, cls in enumerate(self.classes):
            rep = cls.representative
            if rep == GroupElement(0, 0):
                # identity flux: one coset, characters = irreps of G, the
                # p linear ones (dim 1) before the induced ones (dim p)
                self._list("I_{}", ci, range(p), 1)
                self._list("I_{}", ci, range(p, len(self.irreps)), p)
            elif rep.m == 0:
                self._list(f"A_{rep.l}_{{}}", ci, range(q), 1)  # the characters of Z_q
            else:
                self._list(f"B_{rep.m}_{{}}", ci, range(p), 1)  # the characters of Z_p
        self.label_index = {s.label: i for i, s in enumerate(self.simples)}
        self.dims = np.array([s.dim for s in self.simples])
        self.offsets = self.dims.cumsum() - self.dims
        self.size = int(self.dims.sum())
        # The twist of A_l_s is zeta_q^(l s), that of B_k_s in theory u
        # zeta_(p^2)^(k (s p + u k)) and that of I_j 1: base + u slope.
        l, k = np.array([self.classes[s.class_index].representative for s in self.simples]).T
        chars = np.array([s.char_index for s in self.simples])
        zp2 = self.root_order // p**2
        self._twist = (l * chars * (self.root_order // q) + k * chars * p * zp2, k * k * zp2)
        # The vector table, written by `write_vectors` on the first context.
        self.flux = self.crossing_state = self.flux_row = self.inverse_row = None
        self.action_state = self.inverse_state = None
        for array in (self.dims, self.offsets):
            array.flags.writeable = False

    def write_vectors(self) -> None:
        """Write the vector table on the first call, once per group: the
        flux of every global vector and the action of every g and g^-1 on
        it (`flux`, `crossing_state`, `flux_row`, `inverse_row`, and the
        views `action_state` and `inverse_state`).  The first
        `DoubleContext` of the group calls it; the labels, dims and twists
        that `galois_relabel` and the twist placement of u = 0 read need
        no vector table.

        Vectors (below size) are stored in the narrowest int that holds
        them, which halves or quarters the bytes a walk moves, the action
        of g and of g^-1 stacked in one (2|G|, size) table, so that a
        crossing of either sign is one gather from the raveled table at
        flux_row[v] + w (the action by the flux of v) or inverse_row[v] + w
        (by its inverse).  `crossing_exp` is stacked the same way."""
        if self.action_state is not None:
            return
        order = self.spec.order
        self.flux = np.empty(self.size, dtype=np.int64)
        self.crossing_state = np.empty((2 * order, self.size), _narrow_dtype(self.size))
        for run in self.runs:
            self._add_states(run)
        row = np.int32 if 2 * order * self.size < 2**31 else np.int64
        self.flux_row = (self.flux * self.size).astype(row)
        self.inverse_row = self.flux_row + order * self.size
        for array in (self.flux, self.crossing_state, self.flux_row, self.inverse_row):
            array.flags.writeable = False
        self.action_state, self.inverse_state = np.split(self.crossing_state, 2)

    def _list(self, label, ci, chars, internal_dim):
        """Append the simple objects of class ci with the characters
        `chars`, all of internal dim `internal_dim`, as one run."""
        dim = len(self.classes[ci].members) * internal_dim
        self.runs.append((len(self.simples), chars, ci))
        self.simples.extend(SimpleObject(label.format(s), ci, s, dim, internal_dim) for s in chars)

    def _coset_action(self, cls: ConjClassInfo):
        """The coset part of the action on the class of t, for every group
        element y and coset i: y r_i = r_j s with s in the centralizer.
        Returns (flux, reps, cent, j, s): the group index of each coset's
        flux, of each coset representative and of each centralizer
        element, then (|G|, n_cosets) arrays of j and of the centralizer
        index of s."""
        gd = self.gdata
        flux, reps, cent = (
            np.array([gd.index(x) for x in xs], dtype=np.int64)
            for xs in (cls.members, cls.coset_reps, cls.centralizer)
        )
        coset_of = np.full(self.spec.order, -1, dtype=np.int64)
        srep = np.full(self.spec.order, -1, dtype=np.int64)
        for j in range(len(reps)):
            products = gd.mult_table[reps[j], cent]
            coset_of[products] = j
            srep[products] = np.arange(len(cent))
        if np.any(coset_of < 0):
            raise AssertionError("cosets do not cover the group")
        w = gd.mult_table[:, reps]
        return flux, reps, cent, coset_of[w], srep[w]

    def _pi(self, ci: int, chars, cent, u: int):
        """The monomial action pi(s) of the centralizer elements `cent`
        (group indices) on the internal space of each character in
        `chars` of class ci in theory u: (perm, exp) of shape (characters
        or one for all, len(cent), internal dim), exp in zeta_N units."""
        gd, ne = self.gdata, self.root_order
        rep = self.classes[ci].representative
        if rep == GroupElement(0, 0):
            irreps = [self.irreps[s] for s in chars]
            perm = np.stack([r.perm[cent] for r in irreps])
            return perm, np.stack([r.exponents[cent] * (ne // r.root_order) for r in irreps])
        if rep.m == 0:
            # a-type flux: centralizer Z_q, characters zeta_q^(s l) on a^l
            char_exp, part = np.array(chars) * (ne // self.spec.q), gd.a_part
        else:
            # b-type flux b^k: centralizer Z_p, characters
            # zeta_(p^2)^((s p + u k) l) on b^l
            char_exp = (np.array(chars) * self.spec.p + u * rep.m) * (ne // self.spec.p**2)
            part = gd.b_part
        pi_exp = np.outer(char_exp, part[cent])[:, :, None]
        return np.zeros((1, len(cent), 1), dtype=np.int64), pi_exp

    def _columns(self, table: np.ndarray, run) -> np.ndarray:
        """The columns of one run of objects in a (2|G|, size) table as a
        (g or g^-1, |G|, character, coset, internal) view: the columns are
        contiguous within each row."""
        first, chars, _ = run
        simple, lo = self.simples[first], int(self.offsets[first])
        cols = table[:, lo : lo + len(chars) * simple.dim]
        return cols.reshape(2, self.spec.order, len(chars), -1, simple.internal_dim)

    def _add_states(self, run):
        """Write the columns of one run of objects into `flux` and
        `crossing_state`: y takes the vector (coset i, internal v) of an
        object to (j, pi(s) v), with y r_i = r_j s, and y^-1 as the row of
        the inverse of y.  Then check that G acts transitively on
        the vectors of each object, which lets every trace of `stw.braid`
        walk one tuple per G-orbit (and, on a second strand, one vector per
        orbit of the pinned vector's stabiliser): the images of each
        object's first vector under all of G must stay in the object and
        reach every one of its vectors."""
        first, chars, ci = run
        flux, _, cent, j, cent_s = self._coset_action(self.classes[ci])
        state = self._columns(self.crossing_state, run)
        dim, internal_dim = self.simples[first].dim, self.simples[first].internal_dim
        starts = self.offsets[first] + dim * np.arange(len(chars))
        cols = self.flux[starts[0] : starts[0] + len(chars) * dim]
        cols.reshape(len(chars), -1, internal_dim)[...] = flux[:, None]
        pi_perm = self._pi(ci, chars, cent, 0)[0][:, cent_s].transpose(1, 0, 2, 3)
        state[0] = starts[:, None, None] + j[:, None, :, None] * internal_dim + pi_perm
        state[1] = state[0][self.gdata.inv_table]
        local = state[0, :, :, 0, 0] - starts  # (|G|, chars): images of each first vector
        reached = np.zeros((len(chars), dim), dtype=bool)
        reached[np.arange(len(chars)), local.clip(0, dim - 1)] = True
        split = ((local < 0) | (local >= dim)).any(axis=0) | ~reached.all(axis=1)
        if split.any():
            label = self.simples[first + int(split.argmax())].label
            raise AssertionError(f"G is not transitive on the vectors of {label}")

    def twists(self, u: int) -> np.ndarray:
        """The twist exponents, mod N, of the objects in theory u of the
        group: zeta_q^(l s) for A_l_s, zeta_(p^2)^(k (s p + u k)) for
        B_k_s and 1 for every I_j."""
        base, slope = self._twist
        return (base + u * slope) % self.root_order

    @cached_property
    def orbits(self) -> OrbitTable:
        """The `OrbitTable` of the group, built on first use from
        `action_state`: Stab(v) = {g : action_state[g, v] == v}.  The
        stabilisers of the first vectors are few (<b> for the B objects,
        <a> for the A objects and the induced I_j, G for the linear I_j),
        and each is kept only for objects of dimension d >= 2, so it has
        order |G|/d <= |G|/2: the least vector of every orbit is one min
        over its rows of the action table, and the orbit sizes one
        bincount of those least vectors."""
        self.write_vectors()
        state, first = self.action_state, self.offsets
        n, size = len(first), self.size
        wide = np.flatnonzero(self.dims > 1)
        masks = state[:, first[wide]] == first[wide]  # (|G|, objects): g fixes the first vector
        keys: dict[bytes, int] = {}  # a stabiliser's packed mask -> its number
        ids = [keys.setdefault(row.tobytes(), len(keys)) for row in np.packbits(masks, axis=0).T]
        stab = np.full(n, -1)
        stab[wide] = ids
        members = [masks[:, ids.index(s)].nonzero()[0] for s in range(len(keys))]
        object_of = np.repeat(np.arange(n), self.dims)
        vectors = np.arange(size)
        count = np.zeros((len(keys), n), dtype=np.int64)
        reps = np.empty((len(keys), size), dtype=state.dtype)
        orbit_size = np.empty((len(keys), size), dtype=np.int64)
        for s, group in enumerate(members):
            least = state[group].min(axis=0)  # the least vector of each vector's orbit
            is_rep = least == vectors
            orbit_size[s] = np.bincount(least, minlength=size)[least]
            count[s] = np.bincount(object_of[is_rep], minlength=n)
            # each object's representatives first in its segment, increasing
            reps[s] = np.argsort(2 * object_of + ~is_rep, kind="stable")
        for array in (stab, count, reps, orbit_size):
            array.flags.writeable = False
        return OrbitTable(stab, count, reps, orbit_size, stab.tolist())

    def index_of(self, anyon) -> int:
        if isinstance(anyon, str):
            if anyon not in self.label_index:
                spec = self.spec
                raise KeyError(
                    f"{anyon!r} names no simple object of the twisted double of the group"
                    f" Z_{spec.q} x| Z_{spec.p} (n = {spec.n})"
                )
            return self.label_index[anyon]
        if isinstance(anyon, SimpleObject):
            return self.label_index[anyon.label]
        return _object_index(anyon, len(self.simples))


class DoubleContext:
    """All engine data for one (group, twisting) pair: the tables of its
    group (`GroupTables`), bound as plain attributes, and the phases of
    the action and the twists, which depend on u.  flux[v] is the group
    index of the flux of global vector v, and g acts on v as

        g . |v>  =  zeta^action_exp[g, v] |action_state[g, v]>,

    g^-1 as zeta^inverse_exp[g, v] |inverse_state[g, v]>, its phase
    lowered by theta_h(g, g^-1) (h the flux of v): the action by which an
    inverse crossing undoes a crossing."""

    def __init__(self, params: CocycleParams):
        group = group_for(params.spec)
        group.write_vectors()
        self.params, self.group = params, group
        # The group's tables as plain attributes: the one-coloring branch
        # of `stw.braid` reads about ten of them per call.
        self.spec, self.root_order, self.gdata = group.spec, group.root_order, group.gdata
        self.classes, self.simples, self.label_index = group.classes, group.simples, group.label_index
        self.index_of, self.size = group.index_of, group.size
        self.dims, self.offsets, self.flux = group.dims, group.offsets, group.flux
        self.crossing_state, self.flux_row, self.inverse_row = (
            group.crossing_state, group.flux_row, group.inverse_row
        )
        self.action_state, self.inverse_state = group.action_state, group.inverse_state
        self.theta_zp = group.theta1_zp * params.u % self.spec.p  # (p,p,p), zeta_p units
        self._zp_unit = self.root_order // self.spec.p
        # The one array of twists that every reader in `stw` uses.
        self.twist_exps = group.twists(params.u)
        self.tables = [
            AnyonTables(s, s.dim, int(offset), self.classes[s.class_index].representative.m, int(t))
            for s, offset, t in zip(self.simples, self.offsets, self.twist_exps)
        ]
        # Phases (below N) in the narrowest int that holds them, stacked
        # as `crossing_state`.
        self.crossing_exp = np.empty(self.crossing_state.shape, _narrow_dtype(self.root_order))
        for run in group.runs:
            self._add_phases(run)
        self.action_exp, self.inverse_exp = np.split(self.crossing_exp, 2)

    def _add_phases(self, run):
        """Write the columns of one run of objects into `crossing_exp`: y
        takes the vector (coset i, internal v) with the phase of
        theta_t'(y, r_i) / theta_t'(r_j, s) pi(s), with y r_i = r_j s, and
        y^-1 with that of its inverse lowered by theta_h(y, y^-1), which
        depends on the flux h only through its Z_p part, that of the class
        representative."""
        first, chars, ci = run
        group, b, ne = self.group, self.gdata.b_part, self.root_order
        _, reps, cent, j, cent_s = group._coset_action(self.classes[ci])
        theta = self.theta_zp[self.classes[ci].representative.m] * self._zp_unit
        coset_exp = theta[b[:, None], b[reps][None, :]] - theta[b[reps[j]], b[cent[cent_s]]]
        pi_exp = group._pi(ci, chars, cent, self.params.u)[1][:, cent_s].transpose(1, 0, 2, 3)
        exp = group._columns(self.crossing_exp, run)
        exp[0] = (coset_exp[:, None, :, None] + pi_exp) % ne
        g_inv = self.gdata.inv_table
        exp[1] = (exp[0][g_inv] - theta[b, b[g_inv]][:, None, None, None]) % ne

    # ----- scalar helpers -------------------------------------------------

    def theta_ne(self, flux_bpart: int, x_bpart: int, y_bpart: int) -> int:
        """theta exponent in engine units (zeta_(p^2 q))."""
        return int(self.theta_zp[flux_bpart, x_bpart, y_bpart]) * self._zp_unit

    def omega_ne(self, gm: int, hm: int, km: int) -> int:
        """omega exponent in engine units."""
        return omega_exponent(self.params, gm, hm, km) * self._zp_unit

    def root(self, exponent: int) -> CycloNumber:
        return root_of_unity(exponent % self.root_order, self.root_order)


def _narrow_dtype(bound: int):
    """The narrowest int dtype that holds 0..bound-1: int16 up to 2^15,
    else int32."""
    return np.int16 if bound <= 2**15 else np.int32


def _object_index(obj, n: int) -> int:
    """An object given by its index among n objects, as an int: refuses
    a non-integer (2.5 would truncate to 2) and an index outside range(n)
    (-1 would count from the end)."""
    try:
        index = operator.index(obj)
    except TypeError:
        index = -1
    if not 0 <= index < n:
        raise ValueError(f"object index must be an integer in range({n}), got {obj!r}")
    return index


@lru_cache(maxsize=None)
def group_for(spec: GroupSpec) -> GroupTables:
    return GroupTables(spec)


@lru_cache(maxsize=None)
def context_for(params: CocycleParams) -> DoubleContext:
    return DoubleContext(params)


def galois_relabel(params: CocycleParams, f: int) -> tuple[CocycleParams, np.ndarray]:
    """Where sigma_f (zeta -> zeta^f, f = 1 mod q and prime to p) sends
    each simple object of the theory `params`: returns the theory with
    u' = f u mod p and the index of the image of each object, read off
    the characters in `GroupTables._pi`.  Every theory of a group lists
    the same labels in the same order, so the indices are read from the
    group's tables (`group_for`) and no context is built.

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
    group = group_for(spec)
    images = []
    for simple in group.simples:
        k = group.classes[simple.class_index].representative.m
        s, label = simple.char_index, simple.label
        if k:
            label = f"B_{k}_{(f * (s * p + u * k) - target.u * k) % (p * p) // p}"
        elif label.startswith("I_") and s < p:
            label = f"I_{f * s % p}"
        images.append(group.label_index[label])
    return target, np.array(images)


def enumerate_simples(params: CocycleParams) -> list[SimpleObject]:
    """All simple objects in canonical order: identity-flux objects
    (linear characters first, then the induced ones), a-type fluxes by
    ascending class representative, then b-type fluxes b^1..b^(p-1)."""
    return list(group_for(params.spec).simples)


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
