"""Modular data (S, T), the symmetrized Whitehead W-matrix, derived knot
and 3-manifold invariants, and the permutation-equivalence search that
separates the five twisted-double theories of one group by (S, T, W).

Everything here is exact.  Matrix entries live in Z[zeta_N] (N = p^2*q).
S-tilde and the clasp matrix V are stored as (n, n) int32 ids into a
table of their distinct values, phi(N) canonical numerators per id
(`_value_ids`).  The braid engine walks the n^2 colorings in blocks of
`_TRACE_BLOCK` and gives each block of root-of-unity histograms in
sparse form, the few nonzero bins of each row (`sparse_trace_counts`).
Each block is keyed as it comes, exactly and with no fingerprint: one
dict keyed by the bytes of each row's (exponent, count) pairs finds the
rows seen before, and only the new rows are scattered to N bins and
reduced.  No (colorings, N) block of histograms and no (n, n, N) array
is built.
Bulk identities are certified by a rigorous modular-evaluation scheme:
the canonical numerators of the distinct values are mapped into F_P
(for several primes P = 1 mod N) by evaluating at gamma^f with gamma of
multiplicative order N, and gathered by id.  Every certificate rests on
one lemma.  Because P = 1 (mod N) splits completely in Z[zeta_N], X in
Z[zeta_N] lies in P Z[zeta_N] iff its evaluations vanish at every
frequency f coprime to N.  If they vanish mod each of the primes, X lies
in (prod P) Z[zeta_N], so a nonzero X has |Norm X| >= (prod P)^phi(N),
a nonzero rational integer being at least 1 in absolute value.  Every
embedding has |sigma_f(X)| <= L1 of any integer vector of root
coefficients that represents X, so L1 < prod P forces X = 0.  A rational
integer, and each coefficient of a cyclic histogram, is recovered by
centred CRT once prod P exceeds twice a bound on it.  Each checker
takes primes whose product exceeds twice its bound (`_checker`).  No
floating point enters any decision.

The S identities need far fewer frequencies than phi(N).  In a modular
category each Galois automorphism sigma_f (zeta -> zeta^f) acts on S as
a signed permutation, sigma_f(S_ab) = eps_f(a) S_{pi_f(a) b}, and the
twists obey theta_{pi_f(a)} = sigma_f^2(theta_a) (Coste and Gannon,
Phys. Lett. B 323 (1994); Dong, Lin and Ng, arXiv:1201.6644).
`_galois_check` verifies this exactly for the generators of
(Z/N)^x on the value ids of S-tilde, so sigma_f(S~) = G_f S~ = S~ G_f^T
holds for every unit f with G_f a permutation matrix, and
G_h T G_h^T = sigma_{h^2}(T).  An identity X in S~ alone then satisfies
sigma_f(X) = G_f X G_f^T, and X(gamma^f) is X(gamma) permuted: one
frequency certifies it.  S~ T S~ - D T^-1 S~ T^-1, which stands for
(ST)^3 = S^2 once S is unitary, satisfies only sigma_{h^2}(X) =
G_h X G_h^T, so it is evaluated at one frequency per coset of the
squares in (Z/N)^x (4 at N = 275).  The Galois action on V
is not checked, so `punctured_vanishing_report` keeps every primitive
frequency, and `_exact_sums`, the one route for the R-table, punctured
traces, W from them and lens chains, every frequency for its inverse.

A twisted double has Gauss sum +D, so c = 0 mod 8 (Mueger, JPAA 180
(2003)); `modular_data` checks this once, and every value derived here
lies in Q(zeta_N), with no eighth root of unity.

Where each S identity is certified: `modular_data` runs the S traces and
the Gauss check and uses no prime.  The charge conjugation
`ModularData.dual` reads no S: in D^omega(G) the dual of (class C,
character chi) is (C^-1, conj(chi)), and the group's tables give it
(`GroupTables.conjugation`).  `modularity_report` runs the Galois check
and, in one loop over the primes, certifies S^2 = D^2 times the
permutation of the certified pi_{-1}, which is unitarity as S-tilde is
symmetric, and S~ T S~ = D T^-1 S~ T^-1, which is (ST)^3 = S^2 as S is
unitary; S^2 passes when `dual`, the group's conjugation, is pi_{-1}
too, an independent check of one against the other.  The W identities
(`w_identities`) read V and `dual` only, so `stw wmatrix` builds no S.
The norm bound of the lemma above makes each of these zero tests exact.
The fusion rules
(`fusion_rules`) follow from the same action: D^3 N_ab^c is rational
and sigma_f maps it to D^3 N_{pi_f(a) pi_f(b)}^{pi_f(c)}, so
N_{pi_f(a) pi_f(b)}^{pi_f(c)} = N_ab^c.  The Verlinde product is formed
for one representative per orbit of the certified generators pi_g only
(7 orbits on 49 objects at the flagship: 343 rows, not the 1,225 pairs
a <= b), and only those rows are kept: every other object's rows are
that representative's, permuted exactly when read.

The equivalence search reads S, T and W only, never a certificate.
W_ab = V_ab / (theta_a theta_b), so a bijection that preserves T maps W
onto itself exactly when it maps V onto itself: `theory_data` keys V
into the table of S, and no value of W is built for the search.  The
search compares ids only: a Galois conjugate of theory 1 keeps theory
1's ids, and any other pair is compared after the second theory's table
is mapped into the first's.
Every substitution zeta -> zeta^f together with a twist factor zeta^s,
the Galois images of values and the theta factors of W, of the punctured
traces and of the R-sums alike, is one call of `map_exponents`.
`galois_classes` partitions all p theories of one group from theory 1
alone: the twists of the group's tables place u = 0, and a few searches
against Galois conjugates of theory 1 the others.  Each conjugate's S is
theory 1's S with its rows permuted by the pi_f that `_galois_check`
certified, in theory 1's own ids (`galois_conjugate`): S's values are
mapped by sigma_f only inside that check, and only V's q + 4 values,
whose Galois action is not certified, are mapped per conjugate.  Under
(S, T, W) each search walks V a row at a time and stops at the first
object whose row no candidate image matches (`_row_search`); `w_matrix`
is the case that walks every row.  `modular_data` and `w_matrix` keep no
cache.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .braid import BraidWord, closure_structure, parse_braid, zero_framing_shifts
from .braid import sparse_trace_counts
from .cocycle import CocycleParams
from .cyclotomic import (
    CycloNumber,
    _factorize,
    _is_prime,
    euler_phi,
    map_exponents,
    reduce_counts,
    root_of_unity,
)
from .double import GroupTables, SimpleObject, _object_index, context_for, galois_relabel, group_for
from .group import GroupSpec

# Three-strand words whose closures are the two-component clasp pattern
# (a doubled strand clasped through a bare one with zero total linking):
# the pattern computed on every color pair assembles the W-matrix.  The
# second word is the mirror image of the first.
WHITEHEAD_WORD = "s2^-2 s1 s2^-1 s1"
WHITEHEAD_MIRROR_WORD = "s2^-2 s1^-1 s2^2 s1^2"

_INT64_LIMIT = 2**63 - 1


# ----- primes and modular evaluation -----------------------------------------


def _verification_primes(modulus: int, count: int) -> tuple[int, ...]:
    """The largest `count` primes below 2^31 congruent to 1 mod modulus."""
    primes = []
    k = (2**31 - 2) // modulus
    while len(primes) < count and k > 0:
        candidate = k * modulus + 1
        if _is_prime(candidate):
            primes.append(candidate)
        k -= 1
    if len(primes) < count:
        raise RuntimeError("not enough verification primes below 2^31")
    return tuple(primes)


def _element_of_order(prime: int, n: int) -> int:
    """Some gamma of multiplicative order exactly n modulo prime."""
    if (prime - 1) % n:
        raise ValueError("n must divide prime - 1")
    factors = _factorize(n)
    for a in range(2, prime):
        gamma = pow(a, (prime - 1) // n, prime)
        if gamma != 1 and all(pow(gamma, n // r, prime) != 1 for r in factors):
            return gamma
    raise RuntimeError("no element of the requested order")


# Exact mod-P matrix products through float64 BLAS (the limb technique of
# FFLAS-FFPACK, Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008): residues
# below P < 2^31 times 16-bit limbs, summed over at most 64 terms, stay
# below 64 * 2^31 * 2^16 = 2^53, where float64 arithmetic is exact.
_LIMB_BITS = 16
_BLOCK = 64
# Exact block sums below 2^53 are added in int64 at most this many at a
# time between reductions, so the running sum stays below 2^63.
_SUMS_PER_REDUCTION = 1024
# Histograms transformed per product in _FreqPrime.evaluate.
_EVAL_BLOCK = 256
# Rows (r, b) per product in fusion_rules: whole orbit representatives
# r, at least one, so the product temporaries stay bounded.
_VERLINDE_ROWS = 2048


def _mulmod(a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """(a @ b) mod prime for residue arrays in [0, prime), batched like
    np.matmul.  b is split into two 16-bit limbs that share one float64
    product, and the inner dimension is cut into blocks of at most 64 so
    every partial sum is exact, whatever the inner dimension."""
    b = np.asarray(b, dtype=np.int64)
    cols = b.shape[-1]
    limbs = np.concatenate((b >> _LIMB_BITS, b & ((1 << _LIMB_BITS) - 1)), axis=-1)
    limbs = limbs.astype(np.float64)
    a = np.asarray(a, dtype=np.float64)
    acc = None
    for i, start in enumerate(range(0, a.shape[-1], _BLOCK)):
        stop = start + _BLOCK
        part = (a[..., start:stop] @ limbs[..., start:stop, :]).astype(np.int64)
        if acc is None:
            acc = part
            continue
        if i % _SUMS_PER_REDUCTION == 0:
            acc %= prime
        acc += part
    acc %= prime
    out = acc[..., :cols] << _LIMB_BITS
    out += acc[..., cols:]
    out %= prime
    return out


class _FreqPrime:
    """Evaluation of integer vectors at powers of a fixed root of unity
    gamma modulo one prime, and the exact inverse transform.  Evaluations
    are frequency first: index i holds the values at gamma^freqs[i].  The
    transform tables are built per call for the frequencies asked for, so
    a checker kept for the process holds only the n powers of gamma.

    Evaluation at gamma^f mod P is reduction modulo one prime of
    Z[zeta_n] above P (P = 1 mod n splits completely), so the residues
    at the primitive f vanish exactly when the value lies in
    P Z[zeta_n]; the zero tests of this module rest on that."""

    def __init__(self, prime: int, n: int):
        self.prime = prime
        self.n = n
        gamma = _element_of_order(prime, n)
        pows = np.empty(n, dtype=np.int64)
        pows[0] = 1
        for k in range(1, n):
            pows[k] = pows[k - 1] * gamma % prime
        self.pows = pows

    def evaluate(self, counts: np.ndarray, freqs: np.ndarray | None = None) -> np.ndarray:
        """(..., L) integer vectors, L <= n, the coefficients of
        zeta^0..zeta^(L-1) (canonical numerators or whole histograms) ->
        (F, ...) residues of the values at gamma^f for the F frequencies f
        in freqs (default: all n)."""
        c = np.asarray(counts, dtype=np.int64)
        length = c.shape[-1]
        flat = c.reshape(-1, length)
        freqs = np.arange(self.n) if freqs is None else np.asarray(freqs)
        # Row i of table holds gamma^(f_i * j), j = 0..L-1.
        table = self.pows[np.outer(freqs, np.arange(length)) % self.n]
        out = np.empty((len(table), len(flat)), dtype=np.int64)
        # Fixed blocks of vectors bound the limb and product temporaries.
        for start in range(0, len(flat), _EVAL_BLOCK):
            block = flat[start : start + _EVAL_BLOCK] % self.prime
            out[:, start : start + _EVAL_BLOCK] = _mulmod(table, block.T, self.prime)
        return out.reshape((len(table),) + c.shape[:-1])

    def invert(self, evals: np.ndarray) -> np.ndarray:
        """Inverse transform: (n, ...) residues at all n frequencies back
        to the (..., n) residues of the histogram coefficients, the
        forward transform at the frequencies -k times n^-1."""
        flat = np.moveaxis(evals, 0, -1)
        out = self.evaluate(flat, -np.arange(self.n) % self.n) * pow(self.n, -1, self.prime)
        return np.moveaxis(out % self.prime, 0, -1)


def _crt_centered(residues: list[np.ndarray], primes: tuple[int, ...]) -> np.ndarray:
    """Combine per-prime residue arrays into the centered exact integers."""
    product = math.prod(primes)
    if len(primes) == 2 and product < _INT64_LIMIT:
        (r1, r2), (p1, p2) = residues, primes
        t = (r2 - r1) * pow(p1, -1, p2) % p2
        x = r1 + p1 * t
        return np.where(x > product // 2, x - product, x)
    x = residues[0].astype(object)
    m = primes[0]
    for r, p in zip(residues[1:], primes[1:]):
        t = (r.astype(object) - x) * pow(m % p, -1, p) % p
        x = x + m * t
        m *= p
    return np.where(x > m // 2, x - m, x)


class _ExactChecker:
    """Shared rigor machinery for one root order and prime count: primes,
    one evaluator per prime and the primitive frequencies."""

    def __init__(self, order: int, prime_count: int):
        self.primes = _verification_primes(order, prime_count)
        self.freq = [_FreqPrime(p, order) for p in self.primes]
        self.product = math.prod(self.primes)
        self.prim = np.array([f for f in range(order) if math.gcd(f, order) == 1])


@lru_cache(maxsize=None)
def _checker_with(order: int, prime_count: int) -> _ExactChecker:
    return _ExactChecker(order, prime_count)


def _checker(order: int, l1_bound: int) -> _ExactChecker:
    """The cached checker with the fewest primes, at least two, whose
    product exceeds 2 * l1_bound.  That certifies both uses of the
    module's one lemma: a value with an integer representation of L1
    norm at most l1_bound that vanishes mod every prime at every
    primitive frequency is 0 (its norm would be a nonzero multiple of
    (prod P)^phi, at most l1_bound^phi), and a rational integer or a
    histogram coefficient of magnitude at most l1_bound is recovered by
    centred CRT."""
    count = 2
    while True:
        checker = _checker_with(order, count)
        if 2 * int(l1_bound) < checker.product:
            return checker
        count += 1


# ----- modular data -----------------------------------------------------------


class _Rows:
    """Objects named by label, index or SimpleObject, resolved to their
    rows through the `labels` of the table, so a copy whose labels are
    permuted resolves each label to its own row."""

    def index_of(self, obj) -> int:
        label = obj.label if isinstance(obj, SimpleObject) else obj
        if not isinstance(label, str):
            return _object_index(obj, len(self.labels))
        if label not in self._positions:
            raise KeyError(f"{label!r} names no simple object among the labels of u={self.params.u}")
        return self._positions[label]

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def dual(self) -> tuple[int, ...]:
        """The charge conjugation a -> a* of the theory, the row of each
        object's dual, from the group's classes and twists
        (`GroupTables.conjugation`), matched by label.  No S is read:
        `modularity_report` certifies that it is the pi_{-1} of S."""
        group = group_for(self.params.spec)
        image = group.conjugation(self.params.u)
        return tuple(
            self._positions[group.simples[image[group.label_index[label]]].label] for label in self.labels
        )

    def dual_of(self, a) -> int:
        return self.dual[self.index_of(a)]


@dataclass
class ModularData(_Rows):
    """Exact modular data of one twisted-double theory.

    The unnormalized S-matrix entry S-tilde_ab, the two-strand trace, is
    the value with id s_ids[a, b] in s_values, whose row i holds the
    canonical numerators of id i (`_value_ids`); the normalized S divides
    by the total dimension D.  The twist exponents give T = diag(zeta^t),
    and `dual`, the charge conjugation, comes from the group's classes
    and twists, not from S.  Only the Gauss sum is checked on
    construction; `modularity_report` certifies the S identities, and
    that S^2 is D^2 times the permutation matrix of `dual`.
    """

    params: CocycleParams
    labels: tuple[str, ...]
    dims: np.ndarray
    twist_exps: np.ndarray
    root_order: int
    s_ids: np.ndarray
    s_values: np.ndarray
    total_dim: int
    _fusion: FusionRules | None = field(init=False, repr=False, default=None)
    _conj: tuple[int, ...] | None = field(init=False, repr=False, default=None)  # certified
    # pi_g for the generators g of `_unit_generators`, certified with `_conj`
    _galois_gens: tuple[tuple[int, ...], ...] | None = field(init=False, repr=False, default=None)
    _r_table: np.ndarray | None = field(init=False, repr=False, default=None)

    @property
    def n_objects(self) -> int:
        return len(self.labels)

    def twist(self, a) -> CycloNumber:
        return root_of_unity(int(self.twist_exps[self.index_of(a)]), self.root_order)

    @property
    def s_counts(self) -> np.ndarray:
        """S-tilde as (n, n, N) histograms, its values lifted on each call.
        Nothing in `stw` reads it, as S is keyed from sparse traces: it
        stays for the benchmark's float checks (`stwbench/checks.py`) and
        for the tests, which perturb dense histograms and key them again."""
        return _lift(self.s_values, self.root_order)[self.s_ids]

    def s_tilde(self, a, b) -> CycloNumber:
        """Unnormalized S entry (the bare two-strand trace)."""
        a, b = self.index_of(a), self.index_of(b)
        return CycloNumber(self.root_order, self.s_values[self.s_ids[a, b]])

    def s_entry(self, a, b) -> CycloNumber:
        """Normalized S entry: the trace divided by D."""
        return self.s_tilde(a, b) / self.total_dim

    def s_table(self) -> tuple[np.ndarray, list[CycloNumber]]:
        """The normalized S as (ids, values): S_ab = values[ids[a, b]],
        each distinct value divided by D once (`s_entry` is the entry by
        entry reference)."""
        values = [CycloNumber(self.root_order, v) / self.total_dim for v in self.s_values]
        return self.s_ids, values

    def galois_permutation(self, f: int) -> tuple[int, ...] | None:
        """The permutation pi_f with sigma_f(S~_ab) = S~_{pi_f(a) b}, where
        sigma_f maps zeta_N to zeta_N^f (f a unit mod N), matched exactly
        on value ids: only the distinct values of S are mapped and reduced,
        and each mapped row of ids is looked up among the rows of S-tilde.
        None unless the matches form a permutation."""
        index = {v.tobytes(): i for i, v in enumerate(self.s_values)}
        image_ids = _image_ids(self.root_order, self.s_values, f, index)
        rows = {row.tobytes(): b for b, row in enumerate(self.s_ids)}
        perm = tuple(rows.get(image_ids[row].tobytes(), -1) for row in self.s_ids)
        if len(rows) != self.n_objects or sorted(perm) != list(range(self.n_objects)):
            return None
        return perm


# Histograms per `reduce_counts` or `map_exponents` call, frequencies per
# `evaluations` call of `_exact_sums`: a block saves the fixed cost of a
# call and bounds its temporaries.
_REDUCE_BLOCK = 256

# Colorings per `sparse_trace_counts` call in the S and V walks.  A sparse
# block holds a few bins per row, so its temporaries are mostly the walk's
# start vectors (strands x tuples): `w_matrix` at (79,13,8) peaks at 43 MB
# traced (40 MB in blocks of 256, 59 MB in blocks of 1024), and each
# call's fixed cost is spread over twice as many colorings.
_TRACE_BLOCK = 512

def _blocks(rows: np.ndarray, size: int):
    """The consecutive slices of `size` rows of an array or list."""
    return (rows[lo : lo + size] for lo in range(0, len(rows), size))


def _key_into(index: dict[bytes, int], values: np.ndarray) -> np.ndarray:
    """The int32 id in `index` (extended in place, new values in order) of
    each row of canonical numerators in `values`, or of each entry of any
    array of one dtype, by its bytes."""
    return np.array([index.setdefault(v.tobytes(), len(index)) for v in values], dtype=np.int32)


def _table(index: dict[bytes, int], order: int, start: int = 0) -> np.ndarray:
    """The rows of an index of values in Q(zeta_order) with ids start,
    start + 1, ...: row i holds the phi(order) numerators of id start + i
    (no rows for an empty index)."""
    values = b"".join(itertools.islice(index, start, None))
    return np.frombuffer(values, dtype=np.int64).reshape(-1, euler_phi(order))


class _Keyer:
    """Int32 ids of the exact values of sparse trace blocks, kept across
    calls, so that blocks walked at different times share one table.
    Each call takes the CSR triples (indptr, exponents, counts) of one
    block of rows in canonical form (int64 exponents below order,
    increasing within each row, and nonzero int64 counts, as
    `sparse_trace_counts` gives them) and returns the ids of its rows.
    Ids number the values in order of first occurrence (`_key_into`).

    Keying is exact; no fingerprint is used.  A row's key is the bytes
    of its (exponent, count) pairs, sliced from one buffer of the
    block's pairs.  One dict maps each key seen so far to its value id;
    only the keys it has not seen are scattered to dense rows of order
    bins, `_REDUCE_BLOCK` at a time, and reduced, once."""

    def __init__(self, order: int):
        self.order = order
        self.index: dict[bytes, int] = {}  # canonical numerators -> value id
        self.seen: dict[bytes, int] = {}  # a row's key -> its value id

    def __call__(self, indptr, exps, counts) -> np.ndarray:
        raw = np.stack((exps, counts), axis=1).tobytes()
        bounds = (16 * indptr).tolist()
        keys = [raw[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        # The block's unseen keys, in order of first occurrence.
        new = [key for key in dict.fromkeys(keys) if key not in self.seen]
        for part in _blocks(new, _REDUCE_BLOCK):
            reduced = reduce_counts(self.order, _scatter(self.order, part))
            ids = _key_into(self.index, np.ascontiguousarray(reduced, dtype=np.int64))
            self.seen.update(zip(part, ids.tolist()))
        return np.array([self.seen[key] for key in keys], dtype=np.int32)

    def table(self, start: int = 0) -> np.ndarray:
        """The rows of the values with ids start, start + 1, ... (`_table`)."""
        return _table(self.index, self.order, start)


def _value_ids(order: int, blocks):
    """The ids of all the rows of sparse trace blocks, in order, from any
    iterable (a generator is keyed as it goes), and the table `values`,
    row i for id i, both from one `_Keyer`."""
    keyer = _Keyer(order)
    ids = [np.zeros(0, dtype=np.int32)] + [keyer(*block) for block in blocks]
    return np.concatenate(ids), keyer.table()


def _scatter(order: int, keys: list[bytes]) -> np.ndarray:
    """Dense int64 rows of order bins from the keys of `_value_ids`,
    each the bytes of one row's (exponent, count) pairs."""
    out = np.zeros((len(keys), order), dtype=np.int64)
    for row, key in zip(out, keys):
        exps, counts = np.frombuffer(key, dtype=np.int64).reshape(-1, 2).T
        row[exps] = counts
    return out


def _lift(values: np.ndarray, order: int) -> np.ndarray:
    """Histograms (..., order) whose root sums are the values with canonical
    numerators values (..., phi(order)): the numerators padded with zeros."""
    out = np.zeros(values.shape[:-1] + (order,), dtype=values.dtype)
    out[..., : values.shape[-1]] = values
    return out


def _image_ids(order: int, values: np.ndarray, f: int, index: dict[bytes, int]) -> np.ndarray:
    """The ids in `index` (extended in place) of sigma_f of each exact value
    in the table `values`.  Each image comes reduced from `map_exponents`,
    in blocks of `_REDUCE_BLOCK`, and is keyed directly: sigma_f is
    injective, so distinct values have distinct images and there is
    nothing to group.  ValueError unless f is a unit mod order."""
    ids = [np.zeros(0, dtype=np.int32)]
    for block in _blocks(values, _REDUCE_BLOCK):
        image = map_exponents(order, block, f)
        ids.append(_key_into(index, np.ascontiguousarray(image, dtype=np.int64)))
    return np.concatenate(ids)


def t_matrix(params: CocycleParams) -> list[CycloNumber]:
    """Diagonal of T: the twists in canonical label order."""
    ctx = context_for(params)
    return [ctx.root(e) for e in ctx.twist_exps.tolist()]


def modular_data(params: CocycleParams) -> ModularData:
    """Assemble the exact modular data of one theory.

    The S-matrix is defined through the braid engine: the unnormalized
    entry is the trace of the two-strand word sigma_1^-2 colored (a, b).
    With T the diagonal of twists this normalization satisfies, exactly:
    unit row = dims/D, S unitary, S^2 = charge conjugation, and
    (ST)^3 = S^2.  The last holds because the Gauss sum
    sum_a d_a^2 theta_a is +D, which is the one check made here; the
    others are certified by `modularity_report`.
    """
    ctx = context_for(params)
    n = len(ctx.simples)
    labels = tuple(s.label for s in ctx.simples)
    dims = np.array([s.dim for s in ctx.simples], dtype=np.int64)
    twist_exps = ctx.twist_exps.astype(np.int64)
    total_sq = int(np.sum(dims * dims))
    total_dim = math.isqrt(total_sq)
    if total_dim * total_dim != total_sq:
        raise ArithmeticError("sum of squared dimensions is not a perfect square")
    gauss = np.zeros(ctx.root_order, dtype=np.int64)
    np.add.at(gauss, twist_exps, dims * dims)
    gauss = reduce_counts(ctx.root_order, gauss)
    if gauss[0] != total_dim or gauss[1:].any():
        raise ArithmeticError("Gauss sum is not the total dimension D")

    # The colorings (a, b) in row-major order, one batched trace per block,
    # keyed as walked.
    word = BraidWord(2, (-1, -1))
    colorings = np.stack(np.divmod(np.arange(n * n), n), 1)
    blocks = (sparse_trace_counts(ctx, word, c) for c in _blocks(colorings, _TRACE_BLOCK))
    s_ids, s_values = _value_ids(ctx.root_order, blocks)

    return ModularData(
        params=params,
        labels=labels,
        dims=dims,
        twist_exps=twist_exps,
        root_order=ctx.root_order,
        s_ids=s_ids.reshape(n, n),
        s_values=s_values,
        total_dim=total_dim,
    )


# ----- Galois certificate ------------------------------------------------------


def _unit_generators(order: int) -> list[tuple[int, int]]:
    """Generators of (Z/order)^x, one per cyclic factor, as pairs
    (generator, multiplicative order).  Each generates the units modulo
    one prime power r^e of order (two at r = 2, e >= 3) and is lifted by
    CRT to 1 modulo the rest; for N = p^2 q this is
    (Z/N)^x = Z_{p(p-1)} x Z_{q-1}."""
    gens = []
    for r, e in sorted(_factorize(order).items()):
        m = r**e
        if r == 2:
            cyclic = [(m - 1, 2)] if m >= 4 else []  # -1, and 5 of order m/4
            cyclic += [(5, m // 4)] if m >= 8 else []
        else:
            phi = m - m // r
            factors = _factorize(phi)
            root = next(
                g for g in range(2, m)
                if g % r and all(pow(g, phi // s, m) != 1 for s in factors)
            )
            cyclic = [(root, phi)]
        rest = order // m
        for g, g_order in cyclic:
            gens.append((1 + rest * ((g - 1) * pow(rest, -1, m) % m), g_order))
    return gens


def _square_classes(order: int) -> np.ndarray:
    """One representative per coset of the squares in (Z/order)^x,
    sorted, so 1 (the squares' own) comes first: the products of the
    subsets of the even-order generators."""
    reps = [1]
    for g, g_order in _unit_generators(order):
        if g_order % 2 == 0:
            reps += [r * g % order for r in reps]
    return np.array(sorted(reps), dtype=np.int64)


def _galois_check(md: ModularData) -> tuple[int, ...]:
    """Certify exactly that the Galois group acts on S-tilde as in a
    modular category, and return the charge conjugation pi_{-1}.

    On the value ids of S-tilde: S-tilde is symmetric, its unit row is the
    dimension vector, and for each generator g of (Z/N)^x (`_unit_generators`)
    sigma_g(S~) is a row permutation of S~, sigma_g(S~_ab) = S~_{pi_g(a) b},
    with t_{pi_g(a)} = g^2 t_a (mod N).  In general the rows match up to
    a sign eps_g(a); here the unit column is the positive dims (symmetry
    plus the unit row), and sigma_g fixes it, so every sign is +1 and the
    match is on the rows themselves.  Composing generators gives
    sigma_f(S~) = G_f S~ for every unit f with G_f a permutation matrix
    (pi_fg = pi_f pi_g); symmetry gives sigma_f(S~) = S~ G_f^T, and
    d_{pi_f(a)} = d_a.  The rows of S~ are distinct, so G_f commutes with
    the conjugation G_{-1}.  pi_{-1} is composed from the pi_g
    (`_galois_pi`), so S is mapped once per generator and never for -1.
    Raises ArithmeticError naming the first failed condition: then
    S-tilde is not the S-matrix of any modular category.  A passed check is kept on `md` (its `_conj`, and the
    generator permutations pi_g in `_galois_gens`), so it runs once per
    theory."""
    if md._conj is not None:
        return md._conj
    ids = md.s_ids
    ne = md.root_order
    if not np.array_equal(ids, ids.T):
        raise ArithmeticError("Galois check fails: S-tilde is not symmetric")
    if not _unit_row_is_dims(md):
        raise ArithmeticError(
            "Galois check fails: the unit row of S-tilde is not the dimension vector"
        )
    gens = []
    for g, _ in _unit_generators(ne):
        perm = md.galois_permutation(g)
        if perm is None:
            raise ArithmeticError(
                f"Galois check fails: sigma_{g} does not permute the rows of S-tilde"
            )
        bad = md.twist_exps[list(perm)] != g * g * md.twist_exps % ne
        if bad.any():
            raise ArithmeticError(
                f"Galois check fails: theta at pi_{g}(a) is not sigma_{g}^2(theta_a)"
                f" for a = {md.labels[int(np.argmax(bad))]}"
            )
        gens.append(perm)
    md._galois_gens = tuple(gens)
    md._conj = tuple(_galois_pi(md, -1).tolist())
    return md._conj


def _galois_pi(md: ModularData, f: int) -> np.ndarray:
    """pi_f for a unit f mod N, composed from the permutations pi_g that
    `_galois_check` certified: pi_fg = pi_f pi_g.  N = p^2 q is odd or
    4 q, so each generator g of `_unit_generators` generates the units
    modulo one prime power m of N (p^2 or 4, and q) and is 1 modulo the
    other: f is the product of the g^k with g^k = f (mod m)."""
    ne, pi = md.root_order, np.arange(md.n_objects)
    for (g, _), perm in zip(_unit_generators(ne), md._galois_gens):
        m, h = next(r**e for r, e in _factorize(ne).items() if (g - 1) % r**e), 1
        while h != f % m:
            h, pi = h * g % m, np.asarray(perm)[pi]
    return pi


def _galois_orbits(gens, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbits on range(n) of the group that the permutations gens
    generate, by breadth-first search from the smallest object of each.
    Returns rep, the smallest object of each object's orbit, and moves,
    whose row a is a group element pi_a with pi_a(rep[a]) = a."""
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    rep = np.full(n, -1, dtype=np.int64)
    moves = np.empty((n, n), dtype=np.int64)
    for r in range(n):
        if rep[r] >= 0:
            continue
        rep[r] = r
        moves[r] = np.arange(n)
        queue = [r]
        for x in queue:
            for g in gens:
                y = int(g[x])
                if rep[y] < 0:
                    rep[y] = r
                    moves[y] = g[moves[x]]  # pi_y = g pi_x
                    queue.append(y)
    return rep, moves


def _unit_row_is_dims(md: ModularData) -> bool:
    """Whether row 0 of S-tilde is md.dims exactly: numerators (d, 0, ..., 0)."""
    row = md.s_values[md.s_ids[0]]
    return np.array_equal(row[:, 0], md.dims) and not row[:, 1:].any()


def _evaluations(fp: _FreqPrime, values: np.ndarray, ids: np.ndarray, freqs) -> np.ndarray:
    """Residues modulo one prime of the entries ids of a value table at the
    frequencies freqs, frequency first: (F,) + ids.shape.  Only the
    canonical numerators of the distinct values are transformed."""
    return fp.evaluate(values, freqs)[:, ids]


def _l1(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """L1 norms of the canonical numerators of the entries ids, in int64:
    each bounds |sigma_f| of its value at every embedding.  A product of
    them that may outgrow int64 is formed in Python ints (astype(object))."""
    return np.abs(values).sum(axis=1)[ids]


def _exact_sums(order: int, bound: int, evaluations) -> np.ndarray:
    """The integer histograms (..., order) whose (F, ...) residues at
    gamma^freqs `evaluations(fp, freqs)` gives, per prime and block of
    frequencies: inverse transform, then CRT.  Exact if no coefficient
    exceeds bound in absolute value; ArithmeticError if one comes out
    larger."""
    checker = _checker(order, bound)
    per_prime = []
    for fp in checker.freq:
        evals = [evaluations(fp, freqs) for freqs in _blocks(np.arange(order), _REDUCE_BLOCK)]
        per_prime.append(fp.invert(np.concatenate(evals)))
    exact = _crt_centered(per_prime, checker.primes)
    if np.any(np.abs(exact.astype(object)) > bound):
        raise ArithmeticError("exact sums exceeded their bound")
    return exact


# ----- modularity verification -------------------------------------------------


@dataclass(frozen=True)
class ModularityReport:
    """Outcome of the exact modularity suite for one theory."""

    unitary: bool
    s2_permutation: bool
    charge_conjugation: bool
    self_dual_count: int
    unit_row_is_dims: bool
    st_cubed_matches_s2: bool
    verlinde_integral_nonnegative: bool
    dim_homomorphism: bool
    failures: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def modularity_report(md: ModularData) -> ModularityReport:
    """Run the full exact modularity suite on one theory.

    The Galois check (`_galois_check`) runs first.  One checker, for the
    larger bound, then certifies at every prime: S~^2 = D^2 times the
    permutation matrix of the certified conjugation G_{-1} at frequency
    1, and S~ T S~ = D T^-1 S~ T^-1 at one frequency per coset of the
    squares in (Z/N)^x, one product per frequency.  The first is
    unitarity: S~ is symmetric and conj(S~)_cb = S~_{conj(c) b}, so the
    gram matrix S~ S~^dagger has entry (a, c) equal to (S~^2)_{a conj(c)},
    and S~ S~^dagger = D^2 I exactly when S~^2 = D^2 G_{-1}.  The second
    is (ST)^3 = S^2 ((ST)^3 = S^2 times the Gauss sum over D, which is 1,
    checked in modular_data) once S is unitary.  Write C = S^2 = G_{-1}:
    an involution, and it commutes with T, as t_{pi_{-1}(a)} = t_a (the
    twist condition at f = -1).  If STS = T^-1 S T^-1, then
    (ST)^3 = (STS) T S T = T^-1 S^2 T = C.  If (ST)^3 = C, then
    STS = C T^-1 S^-1 T^-1 = T^-1 S T^-1, as S^-1 = C S.  So the (ST)^3
    line also requires unitarity.  S^2 = D^2 times the `md.dual`
    permutation passes when, besides, `md.dual`, the charge conjugation
    read from the group's classes and twists (`GroupTables.conjugation`),
    is G_{-1}.  The charge conjugation must be an involution fixing the
    unit, and, when |G| is odd, fix no other object (Burnside: no element
    or irreducible character of a group of odd order is real besides the
    trivial ones); at p = 2 every object may be self-dual.

    Why these frequencies suffice (Coste and Gannon, Phys. Lett. B 323
    (1994); Dong, Lin and Ng, arXiv:1201.6644, for the action checked
    here): evaluating a value at gamma^f is evaluating its image under
    sigma_f at gamma.  With the check passed, sigma_f(S~) = G_f S~ =
    S~ G_f^T, and G_f commutes with G_{-1}, so X = S~^2 - D^2 G_{-1}
    satisfies sigma_f(X) = G_f X G_f^T for every unit f.  For
    X = S~ T S~ - D T^-1 S~ T^-1, sigma_{h^2}(S~) = G_h S~ G_h^T and
    sigma_{h^2}(T) = G_h T G_h^T (the twist condition), and T^-1
    transforms as T, so sigma_{h^2}(X) = G_h X G_h^T, and the square
    classes reach every unit.  So X = 0 at the evaluated frequencies mod
    P implies X = 0 at every primitive frequency, that is, X = 0 mod
    P Z[zeta_N], because P = 1 (mod N) splits completely; the norm bound
    of the module's lemma, with the L1 bound of each entry below the
    product of the primes, then gives X = 0.  An entry of S~ T S~ has L1
    at most max(l1 @ l1) and one of D T^-1 S~ T^-1 at most D max(l1).
    If the Galois check fails, S-tilde is not the S-matrix of any modular
    category: the report names the failure, and unitarity, S^2, (ST)^3
    and the fusion rules fail."""
    failures: list[str] = []
    n = md.n_objects
    d_sq = md.total_dim * md.total_dim

    unit_ok = _unit_row_is_dims(md)
    if not unit_ok:
        failures.append("unit row of S-tilde is not the dimension vector")
    try:
        conj = list(_galois_check(md))
    except ArithmeticError as err:
        conj = None
        failures.append(str(err))

    dual = md.dual
    galois_ok = conj is not None
    unitary = st_ok = galois_ok
    if galois_ok:
        l1 = _l1(md.s_values, md.s_ids)
        l1_sq = int(np.max(l1 @ l1))
        bounds = (  # S~^2 and S~ T S~ minus their targets
            l1_sq + d_sq,
            l1_sq + md.total_dim * int(np.max(l1)),
        )
        checker = _checker(md.root_order, max(bounds))
        reps = _square_classes(md.root_order)  # reps[0] = 1
        # row a of D^2 G_{-1} holds D^2 in column conj(a)
        d2_conj = d_sq * np.eye(n, dtype=np.int64)[conj]
        # theta_b^f, the entry b of T at gamma^f, and T^-1's
        twist_exps = reps[:, None] * md.twist_exps[None, :] % md.root_order
        for fp in checker.freq:
            prime = fp.prime
            ev = _evaluations(fp, md.s_values, md.s_ids, reps)
            unitary = unitary and not np.any(_mulmod(ev[0], ev[0], prime) != d2_conj % prime)
            theta, theta_inv = fp.pows[twist_exps], fp.pows[-twist_exps % md.root_order]
            sts = _mulmod(ev * theta[:, None, :] % prime, ev, prime)
            target = ev * theta_inv[:, :, None] % prime * theta_inv[:, None, :] % prime
            st_ok = st_ok and not np.any((sts - md.total_dim % prime * target) % prime)
    if not unitary:
        failures.append("S-tilde times its conjugate transpose is not D^2 times identity")
    st_ok = st_ok and unitary  # S~ T S~ = D T^-1 S~ T^-1 is (ST)^3 = S^2 only for S invertible
    s2_ok = unitary and dual == tuple(conj)

    self_dual = 0
    charge_ok = s2_ok
    if s2_ok:
        self_dual = sum(1 for a, b in enumerate(dual) if a == b)
        if dual[0] != 0 or any(dual[b] != a for a, b in enumerate(dual)):
            charge_ok = False
            failures.append("charge conjugation is not an involution fixing the unit")
        elif md.params.spec.order % 2 and self_dual != 1:
            charge_ok = False
            failures.append("charge conjugation does not fix exactly the unit")
    else:
        failures.append("S^2 is not D^2 times a permutation matrix")

    if not st_ok:
        failures.append("(ST)^3 does not equal the Gauss phase times S^2")

    # Without the Galois check the table is not certified; the failure is named above.
    verlinde_ok = galois_ok
    dim_hom = True
    if galois_ok:
        try:
            fusion = fusion_rules(md)
            # On the representatives' rows only: transport gives the rest (`fusion_rules`).
            reps = np.flatnonzero(fusion.rep == np.arange(n))
            dim_hom = all(np.array_equal(rows @ md.dims, md.dims[r] * md.dims)
                          for r, rows in zip(reps, fusion.rows))
        except ArithmeticError as err:
            verlinde_ok = False
            failures.append(str(err))
    if verlinde_ok and not dim_hom:
        failures.append("fusion multiplicities break the dimension homomorphism")

    return ModularityReport(
        unitary=unitary,
        s2_permutation=s2_ok,
        charge_conjugation=charge_ok,
        self_dual_count=self_dual,
        unit_row_is_dims=unit_ok,
        st_cubed_matches_s2=st_ok,
        verlinde_integral_nonnegative=verlinde_ok,
        dim_homomorphism=dim_hom,
        failures=tuple(failures),
    )


# ----- fusion rules -------------------------------------------------------------


def verlinde(md: ModularData, a, b, c) -> int:
    """One fusion multiplicity N_ab^c = sum_z S_az S_bz S*_cz / S_0z,
    evaluated with exact cyclotomic arithmetic."""
    a, b, c = md.index_of(a), md.index_of(b), md.index_of(c)
    acc = CycloNumber.zero(md.root_order)
    for z in range(md.n_objects):
        weight = md.total_dim // int(md.dims[z])
        term = md.s_tilde(a, z) * md.s_tilde(b, z) * md.s_tilde(c, z).conjugate()
        acc = acc + term * weight
    value = acc / md.total_dim**3
    if not value.is_integer():
        raise ArithmeticError(f"Verlinde value for {(a, b, c)} is not an integer")
    result = int(value.as_fraction())
    if result < 0:
        raise ArithmeticError(f"Verlinde value for {(a, b, c)} is negative")
    return result


@dataclass(frozen=True, eq=False)
class FusionRules:
    """The fusion rules N_ab^c in orbit form (`fusion_rules`): rows[i] is
    N_r as an (n, n) matrix [b, c] for the i-th orbit representative r,
    in the narrowest unsigned dtype that holds the largest multiplicity;
    rep[a] is the representative of a's orbit and moves[a] a permutation
    pi_a with pi_a(rep[a]) = a.  N_ab^c = N_{r pi_a^-1(b)}^{pi_a^-1(c)}:
    `self[a]` is N_a, `self[a, b]` the row N_ab^., `self[a, b, c]` one
    multiplicity."""

    rows: np.ndarray
    rep: np.ndarray
    moves: np.ndarray

    @cached_property
    def _slot(self) -> np.ndarray:
        """The index into rows of each object's representative."""
        return np.cumsum(self.rep == np.arange(len(self.rep)))[self.rep] - 1

    def __getitem__(self, key):
        a, *rest = key if isinstance(key, tuple) else (key,)
        inverse = np.empty(len(self.rep), dtype=np.int64)
        inverse[self.moves[a]] = np.arange(len(self.rep))  # pi_a^-1
        matrix = self.rows[self._slot[a]]
        if not rest:
            return matrix[np.ix_(inverse, inverse)]
        row = matrix[inverse[rest[0]]]
        return row[inverse] if len(rest) == 1 else int(row[inverse[rest[1]]])


def verlinde_table(md: ModularData) -> np.ndarray:
    """All fusion multiplicities N_ab^c as a dense (n, n, n) int64 array,
    expanded from `fusion_rules`, which nothing in `stw` expands."""
    fusion = fusion_rules(md)
    return np.stack([fusion[a] for a in range(md.n_objects)]).astype(np.int64)


def fusion_rules(md: ModularData) -> FusionRules:
    """The fusion rules N_ab^c in orbit form, certified exactly at one
    frequency, from one product per Galois orbit.

    D^3 N_ab^c = V_abc = sum_z S~_az S~_bz conj(S~_cz) w_z with
    w_z = D/d_z.  Once `_galois_check` passes (Coste and Gannon, Phys.
    Lett. B 323 (1994); Dong, Lin and Ng, arXiv:1201.6644), every sigma_f
    permutes the columns, sigma_f(S~_az) = S~_{a pi_f(z)}, and fixes the
    weights, w_{pi_f(z)} = w_z; reindexing z gives sigma_f(V_abc) = V_abc.
    So V_abc is fixed by the whole Galois group: it is a rational integer,
    and its value at gamma mod P is V_abc mod P.  The CRT over the
    checker's primes, whose product exceeds twice the bound, gives V_abc
    exactly; it must be a nonnegative multiple of D^3.

    The rows transport along the same action: sigma_f permutes the rows
    too, sigma_f(S~_az) = S~_{pi_f(a) z}, so sigma_f(V_abc) =
    V_{pi_f(a) pi_f(b) pi_f(c)}, and rationality gives
    N_{pi_f(a) pi_f(b)}^{pi_f(c)} = N_ab^c.  So the product is formed
    for one representative r per orbit of the certified pi_g
    (`_galois_orbits`) only, and only the representatives' rows are
    kept: per prime, the (r, b, z) residues of S~_rz S~_bz w_z times
    conj(S~)^T, the matrix S~ Lambda_r S~^dagger of
    Lambda_r = diag(S~_rz w_z), in blocks of whole representatives.
    Every other row is a representative's, permuted (`FusionRules`), and
    so is nonnegative-integral with it; since d_{pi_f(z)} = d_z, the
    dimension homomorphism sum_c N_ab^c d_c = d_a d_b holds for a =
    pi_a(r) once it holds for r, which `modularity_report` checks.
    Raises ArithmeticError if the Galois check fails or a
    representative's row is not nonnegative-integral."""
    if md._fusion is not None:
        return md._fusion
    conj = list(_galois_check(md))
    n = md.n_objects
    rep, moves = _galois_orbits(md._galois_gens, n)
    reps = np.flatnonzero(rep == np.arange(n))
    weights = (md.total_dim // md.dims).astype(np.int64)
    colmax = np.max(_l1(md.s_values, md.s_ids), axis=0).astype(object)
    checker = _checker(md.root_order, int(np.sum(weights.astype(object) * colmax**3)))

    # Per prime: S~, S~ w and conj(S~)^T = S~[conj]^T at gamma, since
    # conj(S~)_cz = S~_{conj(c) z}.
    evals = []
    for fp in checker.freq:
        s = _evaluations(fp, md.s_values, md.s_ids, [1])[0]
        evals.append((fp.prime, s, s * weights % fp.prime, s[conj].T))
    scale = md.total_dim**3
    blocks = []
    step = max(1, _VERLINDE_ROWS // n)
    for start in range(0, len(reps), step):
        r = reps[start : start + step]
        per_prime = [_mulmod(s[r][:, None, :] * sw % prime, s_conj_t, prime)
                     for prime, s, sw, s_conj_t in evals]
        exact = _crt_centered(per_prime, checker.primes)
        if np.any(exact % scale) or np.any(exact < 0):
            raise ArithmeticError("Verlinde table is not nonnegative-integral")
        exact //= scale
        blocks.append(exact.astype(np.min_scalar_type(int(exact.max()))))
    md._fusion = FusionRules(np.concatenate(blocks), rep, moves)
    return md._fusion


# ----- W-matrix -----------------------------------------------------------------


@dataclass
class WMatrix(_Rows):
    """The clasp-pattern invariants on all color pairs.

    V_ab, the zero-framed invariant of the two-component clasp closure
    with the doubled strand colored a and the bare strand colored b, is
    the value with id v_ids[a, b] in v_values (as S in `ModularData`).
    The retained matrix is W-tilde_ab = theta_a^-2 V_ab, and
    W_ab = (theta_a/theta_b) W-tilde_ab.
    """

    params: CocycleParams
    labels: tuple[str, ...]
    word_text: str
    mirror: bool
    root_order: int
    twist_exps: np.ndarray
    v_ids: np.ndarray
    v_values: np.ndarray

    @property
    def v_counts(self) -> np.ndarray:
        """V as (n, n, N) histograms, its values lifted on each call; it
        stays, unread in `stw`, for the same readers as
        `ModularData.s_counts`."""
        return _lift(self.v_values, self.root_order)[self.v_ids]

    def _v_value(self, a, b) -> np.ndarray:
        """The canonical numerators of V_ab."""
        return self.v_values[self.v_ids[self.index_of(a), self.index_of(b)]]

    def v_entry(self, a, b) -> CycloNumber:
        """The raw zero-framed clasp invariant V_ab."""
        return CycloNumber(self.root_order, self._v_value(a, b))

    def w_tilde_entry(self, a, b) -> CycloNumber:
        """W-tilde_ab = theta_a^-2 V_ab: V with the internal clasp framing
        of the doubled component removed."""
        shift = -2 * int(self.twist_exps[self.index_of(a)])
        value = map_exponents(self.root_order, self._v_value(a, b), shifts=shift)
        return CycloNumber(self.root_order, value)

    def w_entry(self, a, b) -> CycloNumber:
        """W_ab = (theta_a/theta_b) W-tilde_ab = V_ab/(theta_a theta_b)."""
        shift = -int(self.twist_exps[self.index_of(a)] + self.twist_exps[self.index_of(b)])
        value = map_exponents(self.root_order, self._v_value(a, b), shifts=shift)
        return CycloNumber(self.root_order, value)

    def w_table(self, tilde: bool = False) -> tuple[np.ndarray, list[CycloNumber]]:
        """W (or W-tilde) as (ids, values): W_ab = values[ids[a, b]].  An
        entry is V shifted by -(t_a + t_b) (W-tilde: -2 t_a), so each
        distinct (V id, shift mod N) is shifted once (`w_entry` and
        `w_tilde_entry` are the entry by entry references)."""
        order, t = self.root_order, self.twist_exps
        shifts = -2 * t[:, None] if tilde else -(t[:, None] + t[None, :])
        keys = self.v_ids * np.int64(order) + shifts % order
        distinct, ids = np.unique(keys, return_inverse=True)
        v, shift = np.divmod(distinct, order)
        rows = map_exponents(order, self.v_values[v], shifts=shift)
        return ids.reshape(keys.shape), [CycloNumber(order, row) for row in rows]


class _ClaspRows:
    """V of one theory walked a row at a time, on demand.  Row a holds
    the zero-framed clasp traces at the colorings (doubled component a,
    bare b) for every b, keyed into one table as walked (`_Keyer`), so
    the rows walked so far, in whatever order, share one exact table.
    `matrix` walks the rows not walked yet and gives the `WMatrix`."""

    def __init__(self, params: CocycleParams, mirror: bool = False):
        self.params, self.mirror = params, bool(mirror)
        self.ctx = ctx = context_for(params)
        self.text = WHITEHEAD_MIRROR_WORD if mirror else WHITEHEAD_WORD
        self.word = parse_braid(self.text, 3)
        self.info = closure_structure(self.word)
        if sorted(len(c) for c in self.info.components) != [1, 2]:
            raise ValueError("clasp word must close to a doubled plus a bare component")
        doubled = max(self.info.components, key=len)
        self.on_doubled = np.isin(np.arange(1, 4), doubled)  # strands colored a
        n = len(ctx.simples)
        self.ids = np.zeros((n, n), dtype=np.int32)
        self.walked = np.zeros(n, dtype=bool)
        self.keyer = _Keyer(ctx.root_order)

    def rows(self, objects) -> np.ndarray:
        """The V ids of the rows `objects` (an int array), walking in one
        pass, a block of colorings per trace call, those not walked yet."""
        new = np.array(list(dict.fromkeys(objects[~self.walked[objects]].tolist())), dtype=np.int64)
        if len(new):
            ctx, n = self.ctx, len(self.walked)
            a, b = np.repeat(new, n), np.tile(np.arange(n), len(new))
            colorings = np.where(self.on_doubled, a[:, None], b[:, None])
            ids = [
                self.keyer(*sparse_trace_counts(ctx, self.word, c, zero_framing_shifts(ctx, self.info, c)))
                for c in _blocks(colorings, _TRACE_BLOCK)
            ]
            self.ids[new] = np.concatenate(ids).reshape(len(new), n)
            self.walked[new] = True
        return self.ids[objects]

    def matrix(self) -> WMatrix:
        """The W-matrix, every row of V walked."""
        ctx, n = self.ctx, len(self.walked)
        return WMatrix(
            params=self.params,
            labels=tuple(s.label for s in ctx.simples),
            word_text=self.text,
            mirror=self.mirror,
            root_order=ctx.root_order,
            twist_exps=ctx.twist_exps.astype(np.int64),
            v_ids=self.rows(np.arange(n)),
            v_values=self.keyer.table(),
        )


def w_matrix(params: CocycleParams, mirror: bool = False) -> WMatrix:
    """Compute the W-matrix by running the clasp braid on every ordered
    color pair (doubled-component color, bare-component color): the
    rows of `_ClaspRows`, all walked in order, so the colorings go in
    row-major order."""
    return _ClaspRows(params, mirror).matrix()


@dataclass(frozen=True)
class WIdentityReport:
    """Exhaustive exact checks of the W-matrix structure identities."""

    symmetric: bool
    twist_duality: bool
    second_dual_invariance: bool
    failures: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def w_identities(wm: WMatrix) -> WIdentityReport:
    """Check, for all pairs: W symmetric; theta_a^2 W-tilde_ax equals
    theta_x^2 W-tilde_{x, dual(a)}; and W-tilde_ax = W-tilde_{a, dual(x)}.
    In terms of the raw clasp values these are V_ax = V_xa,
    V_ax = V_{x, dual(a)}, and V_ax = V_{a, dual(x)}.  Only V and the
    charge conjugation are read, the latter from the group's classes and
    twists (`wm.dual`), so no S is built."""
    dual = np.array(wm.dual, dtype=np.int64)
    # Equal exact values have equal ids, so (n, n) ids stand in for V.
    v, v_t = wm.v_ids, wm.v_ids.T  # v_t[a, x] is V_xa
    asymmetric = v != v_t
    twist_bad = v != v_t[dual]  # against V_{x, dual(a)}
    dual_bad = v != v[:, dual]  # against V_{a, dual(x)}
    failures = []
    for a, x in zip(*np.nonzero(asymmetric | twist_bad | dual_bad)):
        pair = f"({wm.labels[a]}, {wm.labels[x]})"
        if asymmetric[a, x]:
            failures.append(f"W asymmetry at {pair}")
        if twist_bad[a, x]:
            failures.append(f"twist-duality identity fails at {pair}")
        if dual_bad[a, x]:
            failures.append(f"dual-argument identity fails at {pair}")
    return WIdentityReport(
        symmetric=not asymmetric.any(),
        twist_duality=not twist_bad.any(),
        second_dual_invariance=not dual_bad.any(),
        failures=tuple(failures),
    )


def ba_block_formula_report(wm: WMatrix) -> tuple[bool, list[str]]:
    """Compare every (B-type, A-type) W entry against the closed formula

        W(B_k_s, A_l_m) = q p theta_A^(1 - x - x^-1) theta_B^-1,

    with x = n^k mod q and theta_A = zeta_q^(l m), or, for the mirror
    clasp word, against

        W_mirror(B_k_s, A_l_m) = q p theta_A^(x + x^-1 - 3) theta_B^-1.

    Derivation, from the half-braiding of the double (module docstring
    of `stw.double`) on the clasp word s2^-2 s1 s2^-1 s1 colored
    (B, A, B).  B = B_k_s has basis |i>, i in Z_q, of flux
    a^(i (1-x)) b^k (coset representative a^i); A = A_l_m has basis |j>,
    j in Z_p, of flux a^(l n^j) (representative b^j).  The cocycle
    depends only on Z_p parts and vanishes when one argument is in Z_q,
    so theta_h(g, g') = 1 when h, or both g and g', lie in Z_q
    (`cocycle.theta_exponent`), and every associator phase of this word
    is 1.  So A is untwisted: a^z |j> = zeta_q^(m z n^-j) |j> and
    b^k |j> = |j + k>; a^z |i> = |i + z> on B with phase 1; and B over B
    is the quandle rule g_i |y> = theta_B |(1-x) i + x y>.  From the
    basis vector (i1, j, i2) the five letters act as follows ("A by Z"
    means A is acted on by the flux of Z's vector, "by Z^-1" by its
    inverse):

        s2^-1  A by B_i2^-1     zeta_q^(-m i2 (1-x) n^-j)  j -> j - k
        s2^-1  B_i2 by A^-1     1                          i2 -> i3 = i2 - l n^(j-k)
        s1     A by B_i1        zeta_q^(m i1 (1-x) n^-j)   j - k -> j
        s2^-1  B_i1 by B_i3^-1  theta_B^-1                 i1 -> (i1 - (1-x) i3) / x
        s1     B_i3 by A        1                          i3 -> i3 + l n^j

    The closure fixes the vector iff i1 = i2 + l n^j (1 - x^-1), which
    picks one i1 for each of the q p pairs (i2, j), and then the phase
    is theta_B^-1 theta_A^((1-x)(1-x^-1)).  The doubled component has
    self-writhe -1, so V = trace * theta_B = q p theta_A^((1-x)(1-x^-1)),
    W = V/(theta_A theta_B) = trace/theta_A, and the exponent of theta_A
    is (1-x)(1-x^-1) - 1 = 1 - x - x^-1.

    The mirror word closes to the mirror image of the same link with the
    same coloring (doubled component B, bare component A), so its
    zero-framed invariant is the complex conjugate, V_mirror = conj(V) =
    q p theta_A^(-(1-x)(1-x^-1)) (pinned by `test_mirror_w_is_conjugate`).
    Then W_mirror = V_mirror/(theta_A theta_B) has theta_A exponent
    -(1-x)(1-x^-1) - 1 = x + x^-1 - 3 and theta_B exponent -1."""
    spec = wm.params.spec
    q, p = spec.q, spec.p
    ne = wm.root_order
    labels = wm.labels
    rows = np.array([a for a, la in enumerate(labels) if la.startswith("B_")], dtype=np.int64)
    cols = np.array([b for b, lb in enumerate(labels) if lb.startswith("A_")], dtype=np.int64)
    # l*m of each A_l_m column
    lms = np.array([math.prod(map(int, labels[b].split("_")[1:])) for b in cols], dtype=np.int64)
    # the theta_A exponent c of W on each B_k_s row, from x = n^k mod q
    cs = []
    for a in rows:
        x = spec.n_pow(int(labels[a].split("_")[1]))
        v = (1 - x) * (1 - pow(x, -1, q))  # the theta_A exponent of V
        cs.append(((-v if wm.mirror else v) - 1) % q)
    # W = q*p * theta_A^c theta_B^-1 with theta_A = zeta_q^(l m) = zeta_N^(l m N/q),
    # so V = W theta_B theta_b = q*p * zeta_N^(c l m N/q + t_b), exactly.
    shifts = (np.outer(cs, lms) * (ne // q) + wm.twist_exps[cols]) % ne
    ids = wm.v_ids[np.ix_(rows, cols)]
    # A pair is decided by its (shift, V id): one exponent map over the
    # distinct shifts, at most q as theta_A^c theta_b is a q-th root of unity,
    # and one compare per distinct (shift, id), so the numerators of the
    # (B, A) pairs, (pairs, phi(N)), are never gathered.
    shift_set, shift_of = np.unique(shifts, return_inverse=True)
    expected = map_exponents(ne, [q * p], shifts=shift_set)
    keys = shift_of.reshape(ids.shape) * len(wm.v_values) + ids
    pairs, pair_of = np.unique(keys, return_inverse=True)
    shift_at, id_at = np.divmod(pairs, len(wm.v_values))
    wrong = np.any(expected[shift_at] != wm.v_values[id_at], axis=1)[pair_of.reshape(ids.shape)]
    failures = [
        f"BA formula fails at ({labels[rows[i]]}, {labels[cols[j]]})"
        for i, j in zip(*np.nonzero(wrong))
    ]
    return (not failures, failures)


# ----- punctured traces -----------------------------------------------------------


def punctured_s_trace(md: ModularData, wm: WMatrix, z, a) -> CycloNumber:
    """The diagonal block trace of the once-punctured torus S-matrix:
    (d_a/(theta_a D^2)) * sum_x S_zx theta_x W_ax.  With S = S~/D and
    W_ax = V_ax/(theta_a theta_x), theta_x cancels and the trace is
    d_a theta_a^-2 F_za / D^3 with F_za = sum_x S~_zx V_ax (`_exact_sums`)."""
    z, a = md.index_of(z), md.index_of(a)

    def evaluations(fp, freqs):
        s = _evaluations(fp, md.s_values, md.s_ids[z], freqs)
        v = _evaluations(fp, wm.v_values, wm.v_ids[a], freqs)
        return _mulmod(s[:, None, :], v[:, :, None], fp.prime)[:, 0, 0]

    bound = int(_l1(md.s_values, md.s_ids[z]).astype(object) @ _l1(wm.v_values, wm.v_ids[a]))
    f_za = _exact_sums(md.root_order, bound, evaluations)
    shift = -2 * int(md.twist_exps[a])
    value = CycloNumber(md.root_order, map_exponents(md.root_order, f_za, shifts=shift))
    return value * int(md.dims[a]) / md.total_dim**3


def punctured_vanishing_report(md: ModularData, wm: WMatrix) -> tuple[bool, list[str]]:
    """Certify that the punctured trace vanishes whenever the fusion
    channel is absent: N_{a, dual(a)}^z = 0 implies the trace is zero.
    (The converse can fail: accidental zeros inside the support exist.)"""
    n = md.n_objects
    fusion = fusion_rules(md)
    l1s, l1v = _l1(md.s_values, md.s_ids), _l1(wm.v_values, wm.v_ids)
    checker = _checker(md.root_order, int(np.max(l1s @ l1v.T)))
    # theta_x cancels between S_zx theta_x and W_ax = V_ax/(theta_a theta_x),
    # so the trace is proportional to F_za = sum_x S~_zx V_ax.
    zero_mask = None
    for fp in checker.freq:
        v_ev = _evaluations(fp, wm.v_values, wm.v_ids, checker.prim)
        s_ev = _evaluations(fp, md.s_values, md.s_ids, checker.prim)
        f_vals = _mulmod(s_ev, v_ev.transpose(0, 2, 1), fp.prime)
        mask = ~np.any(f_vals, axis=0)
        zero_mask = mask if zero_mask is None else (zero_mask & mask)
    failures = []
    for a in range(n):
        channel = fusion[a, md.dual_of(a)]
        for z in range(n):
            if channel[z] == 0 and not zero_mask[z, a]:
                failures.append(
                    f"trace nonzero outside fusion support at (z={md.labels[z]},"
                    f" a={md.labels[a]})"
                )
    return (not failures, failures)


def w_from_punctured(md: ModularData, wm: WMatrix, a, b) -> CycloNumber:
    """Reconstruct W_ab from the punctured traces by S-unitarity:
    W_ab = (theta_a D^2/(d_a theta_b)) sum_x S*_bx trace(x, a), which with
    the trace as in punctured_s_trace is
    sum_x conj(S~_bx) F_xa / (theta_a theta_b D^2) (`_exact_sums`)."""
    a, b = md.index_of(a), md.index_of(b)

    def evaluations(fp, freqs):
        s = _evaluations(fp, md.s_values, md.s_ids, freqs)
        v = _evaluations(fp, wm.v_values, wm.v_ids[a], freqs)
        s_conj = _evaluations(fp, md.s_values, md.s_ids[b], -freqs % md.root_order)
        f_a = _mulmod(s, v[:, :, None], fp.prime)  # F_xa: (f, x, 1)
        return _mulmod(s_conj[:, None, :], f_a, fp.prime)[:, 0, 0]

    l1s = _l1(md.s_values, md.s_ids).astype(object)
    bound = int(l1s[b] @ (l1s @ _l1(wm.v_values, wm.v_ids[a])))
    g_ab = _exact_sums(md.root_order, bound, evaluations)
    shift = -int(md.twist_exps[a]) - int(md.twist_exps[b])
    value = CycloNumber(md.root_order, map_exponents(md.root_order, g_ab, shifts=shift))
    return value / md.total_dim**2


# ----- diagonal R-sums and two-strand closures ------------------------------------


# Residues over all primes per `_exact_sums` call in `_r_table`, at least
# one column of channels c: it bounds the inverse transforms and the CRT
# held at once.
_R_RESIDUES = 2**24


def _r_table(md: ModularData) -> np.ndarray:
    """Canonical numerators (n, n, phi(N)) of the integer targets R~(a, c),
    with r(a, c) = sum_mu [R^aa_c]_mu,mu = theta_a^-1 R~(a, c) / D^5: all
    diagonal R-sums from modular data only, reconstructed exactly through
    `_exact_sums`, a block of channels c at a time (`_R_RESIDUES`): a
    block forms only its own rows B~_cz, |block| n^2 products per
    frequency, and repeats only the n^2 of A~ and the gathers of S."""
    if md._r_table is not None:
        return md._r_table
    n, ne = md.n_objects, md.root_order
    l1 = _l1(md.s_values, md.s_ids).astype(object)
    weights = (md.total_dim // md.dims).astype(np.int64)
    # Integer target: R~(a, c) = sum_z S~_az B~_cz A~_z (D/d_z), where
    # A~_z = sum_y d_y theta_y^2 S~*_yz and B~_cz = sum_x theta_x^-2 S~*_xz S~*_cx;
    # then r(a, c) = theta_a^-1 R~(a, c) / D^5.
    l1_sym = np.maximum(l1, l1.T)
    a_l1 = l1_sym.T @ md.dims.astype(object)
    b_l1 = l1_sym.T @ l1_sym
    bound = int(np.max((l1_sym * (a_l1 * weights.astype(object))[None, :]) @ b_l1))

    def evaluations(fp, freqs, cols):
        # Each product takes the (f, n, n) factor on its left, so only the
        # narrow right factor, (f, n, 1) or (f, n, |cols|), is split in limbs.
        ev = _evaluations(fp, md.s_values, md.s_ids, freqs)
        conj_t = _evaluations(fp, md.s_values, md.s_ids, -freqs % ne).transpose(0, 2, 1)
        exps = freqs[:, None] * (2 * md.twist_exps)[None, :] % ne  # (f, x)
        twist_pos = fp.pows[exps]
        twist_neg = fp.pows[(-exps) % ne]
        # A~_z evaluations: (f, z, 1)
        a_ev = _mulmod(conj_t, (md.dims * twist_pos % fp.prime)[:, :, None], fp.prime)
        # B~_cz evaluations: sum_x S~*_xz (theta_x^-2 S~*_cx), (f, z, c), c in cols
        b_ev = _mulmod(conj_t, twist_neg[:, :, None] * conj_t[:, :, cols] % fp.prime, fp.prime)
        k_ev = b_ev * (a_ev * weights[:, None] % fp.prime) % fp.prime
        # R~(a, c) evaluations: sum_z S~_az K_cz, (f, a, c)
        return _mulmod(ev, k_ev, fp.prime)

    width = max(1, _R_RESIDUES // (n * ne * len(_checker(ne, bound).primes)))
    md._r_table = np.concatenate([
        reduce_counts(ne, _exact_sums(ne, bound, lambda fp, freqs: evaluations(fp, freqs, cols)))
        for cols in _blocks(np.arange(n), width)
    ], axis=1)
    return md._r_table


def r_symbol_sum(md: ModularData, a, c) -> CycloNumber:
    """sum_mu [R^aa_c]_mu,mu: the braiding eigenvalue sum in channel c."""
    a, c = md.index_of(a), md.index_of(c)
    shift = -int(md.twist_exps[a])
    value = map_exponents(md.root_order, _r_table(md)[a, c], shifts=shift)
    return CycloNumber(md.root_order, value) / md.total_dim**5


@dataclass(frozen=True)
class LambdaReport:
    """The signed multiplicity Lambda_ac = r(a,c) theta_a / theta_c^(1/2),
    with theta_c^(1/2) = zeta^k for the k with 2k = t_c (mod N) that is
    t_c/2 when t_c is even (the only one when N is odd).  A nonzero value
    flips sign under the other branch, so only its magnitude is
    branch-free."""

    value: int | None
    integral: bool
    branch_sensitive: bool


def lambda_signature(md: ModularData, a, c) -> LambdaReport:
    """Divide the R-sum by its ribbon phase; the result must be a plain
    integer (a signed count of eigenvalue multiplicities).  ValueError
    when N is even and t_c odd: then theta_c has no square root zeta^k
    in Q(zeta_N)."""
    a, c = md.index_of(a), md.index_of(c)
    ne, t = md.root_order, int(md.twist_exps[c])
    if t % 2 and ne % 2 == 0:
        raise ValueError(f"theta of {md.labels[c]} = zeta_{ne}^{t} has no square root zeta_{ne}^k")
    # theta_a cancels against the theta_a^-1 of r(a, c); theta_c^(1/2) = zeta^k
    # with k = t_c/2, or (t_c + N)/2 for odd t_c at odd N.
    shift = -((t + (t % 2) * ne) // 2)
    value = CycloNumber(ne, map_exponents(ne, _r_table(md)[a, c], shifts=shift)) / md.total_dim**5
    if not value.is_integer():
        return LambdaReport(value=None, integral=False, branch_sensitive=True)
    n = int(value.as_fraction())
    return LambdaReport(value=n, integral=True, branch_sensitive=n != 0)


def two_strand_closure(md: ModularData, a, b, n: int, parity: str) -> CycloNumber:
    """Closed-form invariant of the (2, *) torus closures.

    parity 'even': the closure of sigma_1^(2n) colored (a, b) equals
    sum_c d_c N_ab^c (theta_c/(theta_a theta_b))^n.  parity 'odd': the
    closure of sigma_1^(2n+1) colored a (one component; requires b = a)
    equals sum_c d_c r(a, c) (theta_c/theta_a^2)^n."""
    a, b = md.index_of(a), md.index_of(b)
    ne = md.root_order
    if parity == "even":
        hist = np.zeros(ne, dtype=np.int64)
        exps = (n * (md.twist_exps - md.twist_exps[a] - md.twist_exps[b])) % ne
        np.add.at(hist, exps, md.dims * fusion_rules(md)[a, b])
        return CycloNumber.from_root_counts(ne, hist)
    if parity == "odd":
        if a != b:
            raise ValueError("odd closures are knots: both strands carry one color")
        # sum_c d_c theta_c^n theta_a^-(2n+1) R~(a, c) in Python ints, then / D^5
        shifts = n * md.twist_exps - (2 * n + 1) * int(md.twist_exps[a])
        terms = map_exponents(ne, _r_table(md)[a], shifts=shifts)
        return CycloNumber(ne, md.dims.astype(object) @ terms) / md.total_dim**5
    raise ValueError("parity must be 'even' or 'odd'")


# ----- Frobenius-Schur indicators -------------------------------------------------


def fs_indicator(md: ModularData, a, n: int) -> CycloNumber:
    """The n-th Frobenius-Schur indicator
    nu_n(a) = (1/D^2) sum_{x,y} N_ax^y d_x d_y (theta_y/theta_x)^n."""
    a = md.index_of(a)
    ne = md.root_order
    exps = (n * (md.twist_exps[None, :] - md.twist_exps[:, None])) % ne
    weights = fusion_rules(md)[a] * np.outer(md.dims, md.dims)
    hist = np.zeros(ne, dtype=np.int64)
    np.add.at(hist, exps, weights)
    return CycloNumber.from_root_counts(ne, hist) / md.total_dim**2


# ----- lens spaces ----------------------------------------------------------------


def negative_continued_fraction(p_surgery: int, q_surgery: int) -> tuple[int, ...]:
    """Digits of the negative-regular continued fraction
    p/q = a_1 - 1/(a_2 - 1/(...)); unique with all digits >= 2 when
    0 < q < p, and the natural short expansions for the small cases."""
    if q_surgery <= 0:
        raise ValueError("q_surgery must be positive")
    if math.gcd(p_surgery, q_surgery) != 1:
        raise ValueError("surgery coefficients must be coprime")
    p, q = p_surgery, q_surgery
    digits = []
    while q:
        a = -(-p // q)  # ceiling
        digits.append(a)
        p, q = q, a * q - p
    return tuple(digits)


def linking_signature(digits: tuple[int, ...]) -> int:
    """Signature of the tridiagonal linking matrix with the digits on the
    diagonal and ones off it, by exact LDL^T pivots."""
    from fractions import Fraction

    signature = 0
    pivot = None
    for i, a in enumerate(digits):
        pivot = Fraction(a) if pivot is None or pivot == 0 else a - 1 / pivot
        if pivot > 0:
            signature += 1
        elif pivot < 0:
            signature -= 1
        elif i != len(digits) - 1:
            raise ArithmeticError("interior zero pivot in the linking matrix")
    return signature


def lens_space_invariant(md: ModularData, p_surgery: int, q_surgery: int) -> CycloNumber:
    """The surgery invariant of the lens space L(p, q):

        Z = 1/D^(n+1) * sum over colorings of the n-chain of
            d theta^a_1 ... d theta^a_n times the chain of positive Hopf
            traces, one dimension factor per chain edge endpoint shared.

    No signature correction enters: it is a power of the Gauss sum over
    D, which is 1.  The coloring sums come from `_exact_sums`."""
    digits = negative_continued_fraction(p_surgery, q_surgery)
    ne, t = md.root_order, md.twist_exps
    # vec[x]: the chain so far summed over colorings ending in x;
    # L1(vec'_y) <= sum_x L1(S~_xy) L1(vec_x).
    l1s, l1_vec = _l1(md.s_values, md.s_ids).astype(object), md.dims.astype(object)
    for _ in digits[1:]:
        l1_vec = l1_vec @ l1s
    bound = int(md.dims @ l1_vec)

    def evaluations(fp, freqs):
        # hop[f, y, x] = conj(S~_xy) at gamma^f: a chain edge from x to y.
        hop = _evaluations(fp, md.s_values, md.s_ids.T, -freqs % ne)
        vec = md.dims * fp.pows[np.outer(freqs, digits[0] * t) % ne] % fp.prime
        for a in digits[1:]:
            # The next component, colored y, carries the framing theta_y^a.
            vec = _mulmod(hop, vec[:, :, None], fp.prime)[:, :, 0]
            vec = vec * fp.pows[np.outer(freqs, a * t) % ne] % fp.prime
        return _mulmod(vec, md.dims[:, None], fp.prime)[:, 0]  # sum_y d_y vec[y]

    total = _exact_sums(ne, bound, evaluations)
    return CycloNumber.from_root_counts(ne, total) / md.total_dim ** (len(digits) + 1)


def lens_space_via_chain_braid(md: ModularData, p_surgery: int, q_surgery: int) -> CycloNumber:
    """Independent route: evaluate the same surgery sum with the chain of
    Hopf traces replaced by one braid-engine trace of the chain braid
    sigma_1^2 sigma_2^2 ... on n strands per coloring."""
    digits = negative_continued_fraction(p_surgery, q_surgery)
    n_comp = len(digits)
    ne, n = md.root_order, md.n_objects
    ctx = context_for(md.params)
    word = BraidWord(n_comp, tuple(j for j in range(1, n_comp) for _ in (0, 1)))
    # Every coloring of the chain, one batched trace per first color.
    rest = np.argwhere(np.ones([n] * (n_comp - 1), dtype=bool))  # the other colors
    hist = np.zeros(ne, dtype=np.int64)
    for first in range(n):
        colorings = np.concatenate([np.full((len(rest), 1), first), rest], axis=1)
        # Each component, colored y, carries the framing theta_y^digit.
        shifts = md.twist_exps[colorings] @ np.array(digits)
        indptr, exps, counts = sparse_trace_counts(ctx, word, colorings, shifts)
        weights = np.prod(md.dims[colorings], axis=1).repeat(np.diff(indptr))
        np.add.at(hist, exps, weights * counts)
    return CycloNumber.from_root_counts(ne, hist) / md.total_dim ** (n_comp + 1)


# ----- equivalence search ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TheoryData:
    """Exact fingerprint data of one theory for the search, as integer ids.

    t_keys holds the twist exponents mod N.  s_keys and w_keys are (n, n)
    int32 arrays of the value ids of S-tilde and of V into one table,
    `values`, shared by both: row i holds the canonical power-basis
    numerators of id i, so equal ids mean equal exact values.  W_ab =
    V_ab / (theta_a theta_b), so W is carried by V and the twists (see
    `theory_data`).  A Galois conjugate (`galois_conjugate`) keeps the
    ids of the theory it conjugates, so two theories whose `values` are
    one array compare ids as they are; any other pair is compared after
    `_shared_ids` maps one table into the other.  md is the modular data
    a theory was frozen from, whose certified Galois action gives the S
    of its conjugates (None for a conjugate).  The arrays make it
    unhashable by value."""

    name: str
    labels: tuple[str, ...]
    dims: np.ndarray
    root_order: int
    t_keys: np.ndarray
    s_keys: np.ndarray
    w_keys: np.ndarray | None
    values: np.ndarray
    md: ModularData | None = None

    @cached_property
    def index(self) -> dict[bytes, int]:
        """The id of each value of `values` by its bytes, built on first
        use, once per table: `galois_conjugate` keys the images of V's
        values into it, so ids past the table are images new to it, and
        every conjugate of this theory shares its id space."""
        return {v.tobytes(): i for i, v in enumerate(self.values)}


def theory_data(md: ModularData, wm: WMatrix | None = None) -> TheoryData:
    """Freeze (S, T[, W]) into value ids: those of S, then the values of V
    keyed into the same table (46 values in S, 57 in S and V at the
    flagship).

    W_ab = V_ab / (theta_a theta_b).  A bijection pi that preserves T
    preserves the twist factors as well, so it maps W onto itself exactly
    when it maps V onto itself: every map the search tries matches T, and
    W is decided on the ids of V.  V's values are canonical already, so
    none is rolled or reduced here."""
    data = TheoryData(
        name=f"u={md.params.u}", labels=md.labels, dims=md.dims, root_order=md.root_order,
        t_keys=md.twist_exps, s_keys=md.s_ids, w_keys=None, values=md.s_values, md=md,
    )
    return data if wm is None else _with_v(data, wm)


def _with_v(data: TheoryData, wm: WMatrix) -> TheoryData:
    """`data` (S and T only) with the values of V keyed into its table."""
    index = {v.tobytes(): i for i, v in enumerate(data.values)}
    w_keys = _key_into(index, wm.v_values)[wm.v_ids]
    return replace(data, w_keys=w_keys, values=_table(index, data.root_order))


def galois_conjugate(data: TheoryData, params: CocycleParams, u: int) -> TheoryData:
    """Theory u as the Galois conjugate of `data`, the theory `params`
    (params.u != 0) as frozen by `theory_data`, with no trace walk:
    sigma_f (zeta_N -> zeta_N^f) maps theory v to theory f v mod p (see
    `galois_classes`).

    f is a power of the generator g of (Z/N)^x that fixes zeta_q, with
    f = u / params.u (mod p), and pi_f the same power of the certified
    pi_g (`_galois_map`).  The objects are relabelled by
    `double.galois_relabel`: source[b] is the object that sigma_f sends
    to b, so the conjugate's S~_bc is sigma_f(S~_{source b, source c}) =
    S~_{pi_f(source b), source c} (`_galois_check`): its S ids are
    data's own, rows and columns permuted, and no S value is mapped.
    The Galois action on V is not certified, so each distinct value of V
    (q + 4 of them) is mapped by j -> f j (mod N) and reduced, and keyed
    into `data.index`; only images new to data's table extend the
    conjugate's `values`.  Each twist exponent t goes to f t.  Rows and
    columns come in the label order that every theory of the group
    shares; the conjugate's dims and twist exponents must equal theory
    u's, read from the group's tables (`GroupTables.twists`), or
    ArithmeticError is raised, as it is when the Galois check of
    data.md fails.  No context of theory u is built."""
    ne = data.root_order
    f, pi, target, source = _galois_map(data.md, u)
    group = group_for(params.spec)  # labels and dims are the same for every u
    t_keys = f * data.t_keys[source] % ne
    if not (np.array_equal(data.dims[source], group.dims) and np.array_equal(t_keys, group.twists(target.u))):
        raise ArithmeticError(
            f"the conjugate of {data.name} by sigma_{f} does not match the dims"
            f" and twists of u={target.u}"
        )
    values, w_keys = data.values, None
    if data.w_keys is not None:
        v, at = np.unique(data.w_keys[np.ix_(source, source)], return_inverse=True)
        w_keys = _image_ids(ne, values[v], f, data.index)[at].reshape(len(source), -1)
        if len(data.index) > len(values):
            values = np.concatenate((values, _table(data.index, ne, len(values))))
    return TheoryData(
        name=f"u={target.u}", labels=tuple(s.label for s in group.simples), dims=group.dims,
        root_order=ne, t_keys=t_keys, s_keys=data.s_keys[pi[source]][:, source], w_keys=w_keys,
        values=values,
    )


def _galois_map(md: ModularData, u: int) -> tuple[int, np.ndarray, CocycleParams, np.ndarray]:
    """The f of `galois_conjugate` that sends the theory of `md` to theory
    u, pi_f, that theory, and source: source[b] is the object that
    sigma_f sends to b.  f is the least power g^k with g^k = u / md.params.u
    (mod p) of the generator g of `_unit_generators` that is 1 mod q,
    which generates the units mod p^2, and pi_f is pi_g^k (`_galois_pi`,
    raising the ArithmeticError of `_galois_check` if the check fails)."""
    _galois_check(md)
    spec, ne = md.params.spec, md.root_order
    ratio = u * pow(md.params.u, -1, spec.p) % spec.p
    g = next(g for g, _ in _unit_generators(ne) if g % spec.q == 1)
    f = next(f for f in (pow(g, k, ne) for k in range(spec.p)) if f % spec.p == ratio)
    target, images = galois_relabel(md.params, f)
    return f, _galois_pi(md, f), target, np.argsort(images)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the permutation search between two theories."""

    equivalent: bool
    permutation: tuple[int, ...] | None
    nodes: int
    reason: str


def _shared_ids(d1: TheoryData, d2: TheoryData) -> np.ndarray:
    """For each value id of d2, the id of the same exact value in d1's
    table, or a fresh id past it when d1 has no such value."""
    return _key_into({v.tobytes(): i for i, v in enumerate(d1.values)}, d2.values)


def equivalence_search(d1: TheoryData, d2: TheoryData) -> SearchResult:
    """Decide whether a bijection pi exists with T_pi(a) = T_a,
    S_pi(a)pi(b) = S_ab, and (when supplied) W_pi(a)pi(b) = W_ab, with
    pi fixing the unit.  Backtracking over candidate sets pruned by dims,
    T and the sorted rows of S ids (and of the codes V id * N + t_b), in
    one id space; returns a witness permutation when one exists.

    Every pair of candidates matches T, so equal codes at matched
    columns mean equal V and so equal W (`theory_data`).  A row's codes
    determine its W values given t_a, so their multiset prunes at least
    as much as the multiset of its W values."""
    if len(d1.labels) != len(d2.labels) or d1.root_order != d2.root_order:
        return SearchResult(False, None, 0, "different object counts or root orders")
    n = len(d1.labels)
    use_w = d1.w_keys is not None and d2.w_keys is not None

    def keys(d: TheoryData, ids: np.ndarray) -> np.ndarray:
        if not use_w:
            return ids[d.s_keys][:, :, None]
        codes = ids[d.w_keys].astype(np.int64) * d.root_order + d.t_keys
        return np.stack([ids[d.s_keys], codes], axis=2)

    # m[a, b] holds the id of S_ab (and the code of V_ab), both theories
    # in d1's id space: a conjugate's ids are in it already.
    ids = np.arange(len(d1.values), dtype=np.int32)
    m1, m2 = keys(d1, ids), keys(d2, ids if d2.values is d1.values else _shared_ids(d1, d2))
    match = _candidates(d1, d2, m1, m2)
    has_image = match.any(axis=1)
    if not has_image.all():
        return _no_image(d1, int(np.argmin(has_image)))
    candidates = [np.flatnonzero(row).tolist() for row in match]
    order = sorted(range(n), key=lambda a: len(candidates[a]))
    src: list[int] = []
    dst: list[int] = []
    used = [False] * n
    nodes = 0

    def search(depth: int) -> bool:
        nonlocal nodes
        if depth == n:
            return True
        a = order[depth]
        for b in candidates[a]:
            if used[b] or not np.array_equal(m1[a, src], m2[b, dst]):
                continue
            nodes += 1
            src.append(a)
            dst.append(b)
            used[b] = True
            if search(depth + 1):
                return True
            src.pop()
            dst.pop()
            used[b] = False
        return False

    if search(0):
        perm = tuple(b for _, b in sorted(zip(src, dst)))
        return SearchResult(True, perm, nodes, "witness permutation found")
    return SearchResult(False, None, nodes, "search space exhausted")


def _candidates(d1: TheoryData, d2: TheoryData, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """match[a, b]: object b of d2 has the dim and twist of object a of
    d1 and the same sorted rows of keys, m1[a] against m2[b] (each key
    sorted along the row on its own), the unit going to the unit."""
    # Each sorted row of either theory gets an id through one dict keyed
    # by its bytes, so candidates are matched on (n,) ids.
    row_index: dict[bytes, int] = {}
    rows1, rows2 = (_key_into(row_index, np.sort(m, axis=1)) for m in (m1, m2))
    match = (
        (d1.dims[:, None] == d2.dims[None, :])
        & (d1.t_keys[:, None] == d2.t_keys[None, :])
        & (rows1[:, None] == rows2[None, :])
    )
    match[0, 1:] = False  # the unit goes to the unit
    return match


def _no_image(d1: TheoryData, a: int) -> SearchResult:
    """The search's exit at 0 nodes: object a of d1 has no candidate."""
    return SearchResult(False, None, 0, f"no fingerprint-compatible image for {d1.labels[a]}")


def _row_search(one: TheoryData, rows: _ClaspRows, params: CocycleParams, h: int) -> SearchResult:
    """`equivalence_search` of theory 1 (`one`, its S and T; the theory
    `params`) against sigma_h(theory 1) under (S, T, W), V walked a row at
    a time (`rows`, theory 1's clasp rows).

    The (S, T) candidates come from the conjugate's S and T
    (`galois_conjugate`), whose S ids are theory 1's own, permuted by
    the certified pi_f: no S value is mapped or keyed.  The conjugate's
    row b of V is theory 1's row source[b] with its values mapped by
    sigma_f and its columns permuted by source, and its twist at column
    b is f t_source[b], so the multiset of its codes V id * N + t is
    that of theory 1's row source[b] under sigma_f, read without the
    permutation.  Objects are taken in order of fewest (S, T)
    candidates, as the search orders them; each object's row and the
    rows source[b] of its candidates b are walked, each distinct V value
    is mapped by sigma_f once, and both are keyed into one index of V's
    values and their images, so equal ids are equal values.  The first
    object whose codes match no candidate's decides "not equivalent",
    as the search's exit at 0 nodes does (`_no_image`).  Only if every
    object has a candidate are the other rows walked and the search run
    on the whole V."""
    conj = galois_conjugate(one, params, h)
    f, _, _, source = _galois_map(one.md, h)
    match = _candidates(one, conj, one.s_keys[:, :, None], conj.s_keys[:, :, None])
    ne, t1, index = one.root_order, one.t_keys, {}
    own = image = np.zeros(0, dtype=np.int64)  # index ids of theory 1's V values, of their images
    counts = match.sum(axis=1).tolist()
    for a in sorted(range(len(counts)), key=counts.__getitem__):
        images = np.flatnonzero(match[a])
        if not len(images):
            return _no_image(one, a)
        v = rows.rows(np.concatenate(([a], source[images])))
        new = rows.keyer.table(len(own))
        own = np.concatenate((own, _key_into(index, new)))
        image = np.concatenate((image, _image_ids(ne, new, f, index)))
        mine = np.sort(own[v[0]] * ne + t1)
        theirs = np.sort(image[v[1:]] * ne + f * t1 % ne, axis=1)
        if not (theirs == mine).all(axis=1).any():
            return _no_image(one, a)
    full = _with_v(one, rows.matrix())
    return equivalence_search(full, galois_conjugate(full, params, h))


@dataclass(frozen=True)
class ObstructionCertificate:
    """A human-readable inequivalence proof localized at two objects.

    The twists alone force the anchor's image into `anchor_images` and
    the labelled object's image into `t_allowed`.  Equality of the
    single W entry at (anchor, label) then forces the labelled object's
    image into `w_required`, among the objects of the label's dimension
    whatever their twist.  An empty intersection of `t_allowed` with
    `w_required` rules out every permutation matching both T and W."""

    label: str
    anchor: str
    anchor_images: tuple[str, ...]
    t_allowed: tuple[str, ...]
    w_required: tuple[str, ...]
    compatible: tuple[str, ...]


def _w_values(d: TheoryData, rows, cols) -> np.ndarray:
    """The exact W_ab = V_ab zeta^-(t_a + t_b) for a in rows and b in cols,
    as (len(rows), len(cols), phi(N)) canonical numerators."""
    a, b = np.asarray(rows)[:, None], np.asarray(cols)[None, :]
    shifts = -(d.t_keys[a] + d.t_keys[b])
    return map_exponents(d.root_order, d.values[d.w_keys[a, b]], shifts=shifts)


def obstruction_certificate(
    d1: TheoryData, d2: TheoryData, label: str = "A_1_4", anchor: str = "B_1_0"
) -> ObstructionCertificate:
    """Build the local T-versus-W obstruction between two theories.

    `w_required` compares W across objects of different twists, where V
    ids alone do not decide W, so the few W entries it reads are reduced
    here (`_w_values`)."""
    if d1.w_keys is None or d2.w_keys is None:
        raise ValueError("obstruction certificate needs W data on both sides")
    a = d1.labels.index(label)
    anc = d1.labels.index(anchor)

    def t_images(i: int) -> np.ndarray:
        return np.flatnonzero((d1.dims[i] == d2.dims) & (d1.t_keys[i] == d2.t_keys))

    anchor_idx = t_images(anc)
    t_allowed = tuple(d2.labels[b] for b in t_images(a))
    same_dim = np.flatnonzero(d1.dims[a] == d2.dims)
    w_label = _w_values(d1, [anc], [a])[0, 0]
    w_hit = np.all(_w_values(d2, anchor_idx, same_dim) == w_label, axis=2).any(axis=0)
    w_required = tuple(d2.labels[x] for x in same_dim[w_hit])
    return ObstructionCertificate(
        label=label,
        anchor=anchor,
        anchor_images=tuple(d2.labels[b] for b in anchor_idx),
        t_allowed=t_allowed,
        w_required=w_required,
        compatible=tuple(x for x in t_allowed if x in w_required),
    )


def _u0_obstruction(group: GroupTables) -> int:
    """An object of theory 0 whose (dim, twist) no object of any theory
    u != 0 has, read from the group's dims and twists alone: so no
    (S, T) map, let alone an (S, T, W) one, sends theory 0 to a theory
    u != 0.

    The B_k_s, the only objects of dimension q, have the twist
    zeta_(p^2)^(k (s p + u k)): a p-th root of unity at u = 0 and never at
    u != 0, as p divides neither u nor k.  Returns the first object
    without a partner; ArithmeticError, naming the first object of
    dimension q, if every object has one."""
    dims = group.dims.tolist()
    others = {pair for u in range(1, group.spec.p) for pair in zip(dims, group.twists(u).tolist())}
    for a, pair in enumerate(zip(dims, group.twists(0).tolist())):
        if pair not in others:
            return a
    label = group.simples[dims.index(max(dims))].label
    raise ArithmeticError(
        f"every object of u=0 has a (dim, twist) partner in some u != 0,"
        f" {label} included: T does not place u=0"
    )


def _galois_partition(
    one: TheoryData, params: CocycleParams, bounds: dict[int, int], rows: _ClaspRows | None = None
) -> tuple[list[tuple[str, ...]], dict[int, int]]:
    """The classes of u = 1..p-1 under the data of `one` (theory 1 of
    `params`: S and T), with W too when `rows` (theory 1's clasp rows)
    is given, through H = {h : theory 1 ~ sigma_h(theory 1)}, u = 0 first
    in a class of its own (`_u0_obstruction`).

    With g generating (Z/p)^x, k_r is the largest k <= bounds[r] with
    g^((p-1)/r^k) in H, testing k = 1, 2, ... up to the first failure,
    each by one search (with W, `_row_search`).  Each coset fH of more
    than one member is certified by a search of theory f against theory
    f h, h = g^((p-1)/|H|), unless that search was made; with W, H is
    nontrivial only after a `_row_search` walked every row, and the
    cosets are searched on the whole V.  Each conjugate lives for its
    search only.  Returns the classes and the k_r; raises ArithmeticError
    where a search contradicts the Galois argument."""
    p = params.spec.p
    g = next((root for root, _ in _unit_generators(p)), 1)

    def theory(f: int) -> TheoryData:
        return one if f == 1 else galois_conjugate(one, params, f)

    exps, found = {}, set()
    for r, bound in bounds.items():
        exps[r] = 0
        for k in range(1, bound + 1):
            h = pow(g, (p - 1) // r**k, p)
            if rows is None:
                result = equivalence_search(one, theory(h))
            else:
                result = _row_search(one, rows, params, h)
            if not result.equivalent:
                break
            exps[r] = k
            found.add(h)
    order = math.prod(r**k for r, k in exps.items())
    if rows is not None and order > 1:
        one = _with_v(one, rows.matrix())
    h = pow(g, (p - 1) // order, p)
    cosets = sorted({tuple(sorted(f * pow(h, i, p) % p for i in range(order))) for f in range(1, p)})
    for f, *rest in cosets:
        if rest and not (f == 1 and h in found):
            if not equivalence_search(theory(f), theory(f * h % p)).equivalent:
                raise ArithmeticError(
                    f"u={f} and u={f * h % p} are not equivalent, although theory 1"
                    f" is equivalent to its conjugate by sigma_{h}"
                )
    return [("u=0",)] + [tuple(f"u={u}" for u in coset) for coset in cosets], exps


def galois_classes(md1: ModularData, with_w: bool) -> list[list[tuple[str, ...]]]:
    """The classes of the theories u = 0..p-1 of one group under (S, T),
    and, if with_w, under (S, T, W), from theory 1 alone.  Each partition
    lists its classes by least member, each class ascending, as a
    pairwise search over every theory would.

    The twists alone put u = 0 in a class of its own: some object of
    theory 0 has a (dim, twist) that no object of any other theory has
    (`_u0_obstruction`, from the group's tables; no context of u = 0 is
    built).  Every value of omega_u is a p-th root of unity, so sigma_f
    (zeta_N -> zeta_N^f, f = 1 mod q) maps theory v to theory f v mod p,
    with S, T and W conjugated entrywise (Galois conjugates of modular
    categories: Dong, Lin and Ng, arXiv:1201.6644); `galois_conjugate`
    builds that conjugate exactly, its S from theory 1's S rows permuted
    by the certified pi_f.  So the Galois check (`_galois_check`) runs on
    theory 1 first, whether or not a conjugate is built, and its
    ArithmeticError propagates: an S-tilde that fails it is not modular,
    and no classes are returned.  Conjugation preserves equivalence,
    so theory f ~ theory g exactly when theory 1 ~ sigma_(g/f)(theory 1),
    and the classes of u != 0 are the cosets of the subgroup H_X of the
    cyclic group (Z/p)^x that fixes the class of theory 1 under the data
    X.  Under (S, T) they are the square classes of Mignard and
    Schauenburg (arXiv:1708.02796) at the groups checked so far.  H_STW
    lies in H_ST, so it is searched there only (`_galois_partition`),
    and only when H_ST is nontrivial; each of its steps walks only the
    rows of V that decide it (`_row_search`)."""
    params = md1.params
    _u0_obstruction(group_for(params.spec))
    _galois_check(md1)
    one = theory_data(md1)
    st, exps = _galois_partition(one, params, _factorize(params.spec.p - 1))
    if not with_w:
        return [st]
    if not any(exps.values()):
        return [st, st]  # (S, T) already separates every theory
    stw, _ = _galois_partition(one, params, exps, _ClaspRows(params))
    return [st, stw]


# ----- serialization --------------------------------------------------------------


def modular_data_to_json(md: ModularData) -> dict:
    """JSON document of the exact modular data (plus float previews)."""
    spec = md.params.spec
    return {
        "group": {"q": spec.q, "p": spec.p, "n": spec.n},
        "u": md.params.u,
        "labels": list(md.labels),
        "dims": [int(d) for d in md.dims],
        "total_dim": md.total_dim,
        "c_mod_8": 0,  # the Gauss sum is +D (modular_data checks it), so c = 0
        "T": [md.twist(a).to_json() for a in range(md.n_objects)],
        "S": _json_matrix(*md.s_table()),
    }


def w_matrix_to_json(wm: WMatrix) -> dict:
    """JSON document of the W-matrix (and the retained W-tilde)."""
    return {
        "group": {
            "q": wm.params.spec.q,
            "p": wm.params.spec.p,
            "n": wm.params.spec.n,
        },
        "u": wm.params.u,
        "word": wm.word_text,
        "mirror": wm.mirror,
        "labels": list(wm.labels),
        "W": _json_matrix(*wm.w_table()),
        "W_tilde": _json_matrix(*wm.w_table(tilde=True)),
    }


def _json_matrix(ids: np.ndarray, values: list[CycloNumber]) -> list[list[dict]]:
    """The JSON rows of a matrix of value ids, each value formatted once."""
    formatted = [value.to_json() for value in values]
    return [[formatted[i] for i in row] for row in ids.tolist()]


def write_json(document: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_matrix_csv(ids, values: list[CycloNumber], labels, path: str, col_labels=None) -> None:
    """Float-preview CSV (real and imaginary parts) of the matrix with
    entry values[ids[a][b]], each value previewed once; display only.
    The columns are labelled by `labels` too unless `col_labels` is
    given."""
    previews = []
    for value in values:
        z = value.to_complex()
        previews.append((f"{z.real:.12f}", f"{z.imag:.12f}"))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "col", "re", "im"])
        for la, row in zip(labels, np.asarray(ids).tolist()):
            for lb, i in zip(labels if col_labels is None else col_labels, row):
                writer.writerow([la, lb, *previews[i]])
