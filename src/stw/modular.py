"""Modular data (S, T), the symmetrized Whitehead W-matrix, derived knot
and 3-manifold invariants, and the permutation-equivalence search that
separates the five twisted-double theories of one group by (S, T, W).

Everything here is exact.  Matrix entries live in Z[zeta_N] (N = p^2*q).
S-tilde and the clasp matrix V are stored as (n, n) int32 ids into a
table of their distinct values, phi(N) canonical numerators per id
(`_value_ids`).  The braid engine walks the n^2 colorings in blocks of
`_TRACE_BLOCK` and gives each block of root-of-unity histograms in
sparse form, the few nonzero bins of each row (`sparse_trace_counts`).
Each block is keyed as it comes: a fingerprint summed over the nonzero
bins proposes a group, an exact compare of the sparse rows decides it,
and only the distinct rows are scattered to N bins and reduced.  No
(colorings, N) block of histograms and no (n, n, N) array is built.
Bulk identities are certified by a rigorous modular-evaluation scheme:
the distinct values, lifted to histograms by padding to N (`_lift`), are
mapped into F_P (for several primes P = 1 mod N) by evaluating at
gamma^f with gamma of multiplicative order N, and gathered by id.
Because P = 1 (mod N) splits completely in Z[zeta_N], E in Z[zeta_N]
lies in P Z[zeta_N] iff its evaluations vanish at every frequency f
coprime to N; E = 0 then follows once the product of the primes
exceeds twice a bound, from the L1 norms of the same lifts, on the
coefficients of E modulo Phi_N.  No floating point enters any decision.

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
frequency certifies it.  (S~T)^3 - D S~^2 satisfies only
sigma_{h^2}(X) = G_h X G_h^T, so it is evaluated at one frequency per
coset of the squares in (Z/N)^x (4 at N = 275).  The Galois action on V
is not checked, so `punctured_vanishing_report` keeps every primitive
frequency, and `_exact_sums`, the one route for the R-table, punctured
traces, W from them and lens chains, every frequency for its inverse.

A twisted double has Gauss sum +D, so c = 0 mod 8 (Mueger, JPAA 180
(2003)); `modular_data` checks this once, and every value derived here
lies in Q(zeta_N), with no eighth root of unity.

Where each S identity is certified: `modular_data` runs the S traces and
the Gauss check and uses no prime.  The charge conjugation
`ModularData.dual` is read off S exactly, as the f = -1 case of the row
match of the Galois check.  `modularity_report` runs the Galois check
and, in one loop over the primes, certifies unitarity, S^2 = D^2 times
the dual permutation and (ST)^3 = D * S^2.

The equivalence search reads S, T and W only, never a certificate.
W_ab = V_ab / (theta_a theta_b), so a bijection that preserves T maps W
onto itself exactly when it maps V onto itself: `theory_data` keys V
into the table of S, and no value of W is built for the search.  The
search maps the second theory's table into the first's and then
compares ids only.
`galois_classes` partitions all p theories of one group from theories 0
and 1 alone, with a few searches against Galois conjugates of theory 1.
`modular_data` and `w_matrix` keep no cache.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .braid import BraidWord, closure_structure, parse_braid, trace_counts, zero_framing_shifts
from .braid import sparse_trace_counts
from .cocycle import CocycleParams
from .cyclotomic import (
    CycloNumber,
    _factorize,
    _is_prime,
    _roll_rows,
    reduce_counts,
    reduction_bound_factor,
    root_of_unity,
)
from .double import context_for, galois_relabel
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
# Pairs (a, b) per product in verlinde_table.
_VERLINDE_PAIRS = 2048


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
    """Evaluation of histogram vectors at powers of a fixed root of unity
    gamma modulo one prime, and the exact inverse transform.  Evaluations
    are frequency first: index i holds the values at gamma^freqs[i].  The
    transform tables are built per call for the frequencies asked for, so
    a checker kept for the process holds only the n powers of gamma."""

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
        """(..., n) integer vectors -> (F, ...) residues of the values at
        gamma^f for the F frequencies f in freqs (default: all n)."""
        c = np.asarray(counts, dtype=np.int64)
        flat = c.reshape(-1, self.n)
        freqs = np.arange(self.n) if freqs is None else np.asarray(freqs)
        # Row i of table holds gamma^(f_i * j), j = 0..n-1.
        table = self.pows[np.outer(freqs, np.arange(self.n)) % self.n]
        out = np.empty((len(table), len(flat)), dtype=np.int64)
        # Fixed blocks of vectors bound the limb and product temporaries.
        for start in range(0, len(flat), _EVAL_BLOCK):
            block = flat[start : start + _EVAL_BLOCK] % self.prime
            out[:, start : start + _EVAL_BLOCK] = _mulmod(table, block.T, self.prime)
        return out.reshape((len(table),) + c.shape[:-1])

    def invert(self, evals: np.ndarray) -> np.ndarray:
        """Inverse transform: (n, ...) residues at all n frequencies back
        to the (..., n) residues of the histogram coefficients."""
        flat = evals.reshape(self.n, -1)
        inv_table = self.pows[-np.outer(np.arange(self.n), np.arange(self.n)) % self.n]
        out = _mulmod(inv_table, flat, self.prime) * pow(self.n, -1, self.prime) % self.prime
        return out.T.reshape(evals.shape[1:] + (self.n,))


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
    one evaluator per prime, the primitive frequencies and the reduction
    bound factor."""

    def __init__(self, order: int, prime_count: int):
        self.kappa = reduction_bound_factor(order)
        self.primes = _verification_primes(order, prime_count)
        self.freq = [_FreqPrime(p, order) for p in self.primes]
        self.product = math.prod(self.primes)
        self.prim = np.array([f for f in range(order) if math.gcd(f, order) == 1])


@lru_cache(maxsize=None)
def _checker_with(order: int, prime_count: int) -> _ExactChecker:
    return _ExactChecker(order, prime_count)


def _checker(order: int, l1_bound: int) -> _ExactChecker:
    """The cached checker with the fewest primes, at least two, whose
    product exceeds 2 * kappa * l1_bound: enough to certify values whose
    cyclic lifts have L1 norm at most l1_bound."""
    count = 2
    while True:
        checker = _checker_with(order, count)
        if 2 * checker.kappa * int(l1_bound) < checker.product:
            return checker
        count += 1


# ----- modular data -----------------------------------------------------------


@dataclass
class ModularData:
    """Exact modular data of one twisted-double theory.

    The unnormalized S-matrix entry S-tilde_ab, the two-strand trace, is
    the value with id s_ids[a, b] in s_values, whose row i holds the
    canonical numerators of id i (`_value_ids`); the normalized S divides
    by the total dimension D.  The twist exponents give T = diag(zeta^t).
    Only the Gauss sum is checked on construction; `modularity_report`
    certifies the S identities, S^2 = D^2 times the `dual` permutation too.
    """

    params: CocycleParams
    labels: tuple[str, ...]
    dims: np.ndarray
    twist_exps: np.ndarray
    root_order: int
    s_ids: np.ndarray
    s_values: np.ndarray
    total_dim: int
    _label_index: dict = field(repr=False, default_factory=dict)
    _verlinde: np.ndarray | None = field(init=False, repr=False, default=None)
    _r_table: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def n_objects(self) -> int:
        return len(self.labels)

    def index_of(self, obj) -> int:
        if isinstance(obj, str):
            return self._label_index[obj]
        return int(obj)

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

    def galois_permutation(self, f: int) -> tuple[int, ...] | None:
        """The permutation pi_f with sigma_f(S~_ab) = S~_{pi_f(a) b}, where
        sigma_f maps zeta_N to zeta_N^f (f a unit mod N), matched exactly
        on value ids: only the distinct values of S are mapped and reduced,
        and each mapped row of ids is looked up among the rows of S-tilde.
        None unless the matches form a permutation."""
        index = {v.tobytes(): i for i, v in enumerate(self.s_values)}
        image_ids, _ = _galois_image_ids(self.root_order, self.s_values, f, index)
        rows = {row.tobytes(): b for b, row in enumerate(self.s_ids)}
        perm = tuple(rows.get(image_ids[row].tobytes(), -1) for row in self.s_ids)
        if len(rows) != self.n_objects or sorted(perm) != list(range(self.n_objects)):
            return None
        return perm

    @cached_property
    def dual(self) -> tuple[int, ...] | None:
        """The charge conjugation a -> a*: the unique b whose S-tilde row
        is the complex conjugate of row a (S_a*b = conj(S_ab) in any
        modular category), i.e. `galois_permutation(-1)`.  None unless the
        matches form a permutation."""
        return self.galois_permutation(-1)

    def dual_of(self, a) -> int:
        if self.dual is None:
            raise ArithmeticError(
                "charge conjugation undefined: no permutation matches each S row"
                " with the conjugate of another"
            )
        return self.dual[self.index_of(a)]


# Histograms per `reduce_counts` call, colorings per `trace_counts` call,
# frequencies in `_exact_sums`: a block saves the fixed cost of a call and
# bounds its temporaries.
_REDUCE_BLOCK = 256

# Colorings per `sparse_trace_counts` call in the S and V walks.  A sparse
# block holds a few bins per row, so its temporaries are mostly the walk's
# start vectors (strands x tuples): `w_matrix` at (79,13,8) peaks at 43 MB
# traced (40 MB in blocks of 256, 59 MB in blocks of 1024), and each
# call's fixed cost is spread over twice as many colorings.
_TRACE_BLOCK = 512

# The base B of the fingerprints sum count * B^exponent mod 2^64: any odd
# constant will do, since a fingerprint only proposes a group and never
# decides equality.
_FINGERPRINT_BASE = 0x9E3779B97F4A7C15


@lru_cache(maxsize=None)
def _fingerprint_weights(order: int) -> np.ndarray:
    """The uint64 weights B^j mod 2^64, j < order, of the Karp-Rabin
    fingerprints in `_value_ids` (Karp and Rabin, IBM J. Res. Dev. 31
    (1987)), built once per order."""
    weights, w = [], 1
    for _ in range(order):
        weights.append(w)
        w = w * _FINGERPRINT_BASE % 2**64
    return np.array(weights, dtype=np.uint64)


def _blocks(rows: np.ndarray, size: int):
    """The consecutive slices of `size` rows of an array."""
    return (rows[lo : lo + size] for lo in range(0, len(rows), size))


def _index_values(order: int, blocks, index: dict[bytes, int]) -> np.ndarray:
    """Int32 ids of the exact values of the histogram blocks, each (m, L)
    with m <= `_REDUCE_BLOCK`, reduced one block per call: each value
    gets its id through `index`, a dict keyed by its canonical
    numerators' bytes (extended in place, new values in order)."""
    ids = [np.zeros(0, dtype=np.int32)]
    for block in blocks:
        reduced = np.ascontiguousarray(reduce_counts(order, block), dtype=np.int64)
        ids.append(_key_into(index, reduced))
    return np.concatenate(ids)


def _key_into(index: dict[bytes, int], values: np.ndarray) -> np.ndarray:
    """The int32 id in `index` (extended in place, new values in order) of
    each row of canonical numerators in `values`."""
    return np.array([index.setdefault(v.tobytes(), len(index)) for v in values], dtype=np.int32)


def _table(index: dict[bytes, int]) -> np.ndarray:
    """The table of an index: row i holds the numerators of id i."""
    return np.frombuffer(b"".join(index), dtype=np.int64).reshape(len(index), -1)


def _entries(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of the entries of CSR rows with these starts and
    lengths, row after row."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def _value_ids(order: int, blocks):
    """Int32 ids of the exact values of sparse trace blocks, each the CSR
    triples (indptr, exponents, counts) of its rows in canonical form
    (int64 exponents below order, increasing within each row, and
    nonzero int64 counts, as `sparse_trace_counts` gives them),
    from any iterable (a generator is keyed as it goes).  Returns the ids
    of all the rows, in order, and the table `values`, row i for id i.
    Ids number the values in order of first occurrence (`_index_values`).

    No row is hashed.  Each gets a Karp-Rabin fingerprint sum count *
    w[exponent] (`_fingerprint_weights`; uint64, so wrap-around is
    defined), one cumsum over the block's terms differenced at indptr.
    It only proposes a group: an int dict maps it to one stored row, and
    every row is compared exactly with its group's, length first, then
    exponents and counts.  One that differs (a collision) is keyed by its
    exact bytes.  Only the new distinct rows of a block are scattered to
    dense rows of order bins, `_REDUCE_BLOCK` at a time, and reduced,
    once."""
    weights = _fingerprint_weights(order)
    index: dict[bytes, int] = {}
    groups: dict[int, int] = {}  # fingerprint -> slot of its stored row
    collided: dict[bytes, int] = {}  # row bytes -> slot, after a collision
    # The stored rows, one per slot, in CSR: slot s holds the entries
    # bounds[s] to bounds[s + 1] of stored_exps and stored_counts.
    stored_exps = stored_counts = slot_ids = np.zeros(0, dtype=np.int64)
    bounds = np.zeros(1, dtype=np.int64)
    ids = []

    def dense(slots: np.ndarray) -> np.ndarray:
        lengths = np.diff(bounds)[slots]
        at = _entries(bounds[slots], lengths)
        rows = np.zeros((len(slots), order), dtype=np.int64)
        rows[np.repeat(np.arange(len(slots)), lengths), stored_exps[at]] = stored_counts[at]
        return rows

    def store(exps, counts, row_lengths) -> None:
        nonlocal stored_exps, stored_counts, bounds, slot_ids
        stored_exps = np.concatenate((stored_exps, exps))
        stored_counts = np.concatenate((stored_counts, counts))
        bounds = np.concatenate((bounds, bounds[-1] + np.cumsum(row_lengths)))
        slot_ids = np.concatenate((slot_ids, np.zeros(len(row_lengths), dtype=np.int64)))

    for indptr, exps, counts in blocks:
        row_lengths = np.diff(indptr)
        sums = np.zeros(len(exps) + 1, dtype=np.uint64)
        np.cumsum(counts.view(np.uint64) * weights[exps], out=sums[1:])
        keys, first, inverse = np.unique(
            sums[indptr[1:]] - sums[indptr[:-1]], return_index=True, return_inverse=True
        )
        known = len(slot_ids)
        proposed, new = [], []
        for key, i in zip(keys.tolist(), first.tolist()):
            if key not in groups:
                groups[key] = known + len(new)
                new.append(i)
            proposed.append(groups[key])
        if new:
            at = _entries(indptr[new], row_lengths[new])
            store(exps[at], counts[at], row_lengths[new])
        slot = np.array(proposed, dtype=np.int64)[inverse]
        # The exact compare: equal lengths, then equal entries.
        bad = row_lengths != np.diff(bounds)[slot]
        rows = np.flatnonzero(~bad)
        mine = _entries(indptr[rows], row_lengths[rows])
        theirs = _entries(bounds[slot[rows]], row_lengths[rows])
        differ = (exps[mine] != stored_exps[theirs]) | (counts[mine] != stored_counts[theirs])
        bad[np.repeat(rows, row_lengths[rows])[differ]] = True
        for i in np.flatnonzero(bad).tolist():
            row = slice(indptr[i], indptr[i + 1])
            raw = exps[row].tobytes() + counts[row].tobytes()
            if raw not in collided:
                collided[raw] = len(slot_ids)
                store(exps[row], counts[row], row_lengths[i : i + 1])
            slot[i] = collided[raw]
        # Every row is matched: key the new slots in order of first
        # occurrence, so that the value ids follow it too.
        if len(slot_ids) > known:
            fresh, at = np.unique(slot, return_index=True)
            fresh = fresh[np.argsort(at)]
            fresh = fresh[fresh >= known]
            slot_ids[fresh] = _index_values(order, map(dense, _blocks(fresh, _REDUCE_BLOCK)), index)
        ids.append(slot_ids[slot].astype(np.int32))
    return np.concatenate(ids), _table(index)


def _lift(values: np.ndarray, order: int) -> np.ndarray:
    """Histograms (..., order) whose root sums are the values with canonical
    numerators values (..., phi(order)): the numerators padded with zeros."""
    out = np.zeros(values.shape[:-1] + (order,), dtype=values.dtype)
    out[..., : values.shape[-1]] = values
    return out


def _galois_image_ids(order: int, values: np.ndarray, f: int, index: dict[bytes, int]):
    """The ids in `index` (extended in place) of sigma_f of each exact value
    in the table `values`, and the table, as `_value_ids` returns them.
    Each image is built, reduced and keyed directly, in blocks of
    `_REDUCE_BLOCK`: sigma_f is injective, so distinct values have
    distinct images and there is nothing to group."""
    # sigma_f(sum_j c_j zeta^j) is the histogram with c_j at f*j mod N.
    targets = f * np.arange(values.shape[1]) % order

    def images():
        for block in _blocks(values, _REDUCE_BLOCK):
            image = np.zeros((len(block), order), dtype=np.int64)
            image[:, targets] = block
            yield image

    return _index_values(order, images(), index), _table(index)


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
    the conjugation G_{-1}.  Raises ArithmeticError naming the first
    failed condition: then S-tilde is not the S-matrix of any modular
    category."""
    ids = md.s_ids
    ne = md.root_order
    if not np.array_equal(ids, ids.T):
        raise ArithmeticError("Galois check fails: S-tilde is not symmetric")
    if not _unit_row_is_dims(md):
        raise ArithmeticError(
            "Galois check fails: the unit row of S-tilde is not the dimension vector"
        )
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
    conj = md.galois_permutation(-1)
    if conj is None:
        raise ArithmeticError(
            "Galois check fails: complex conjugation does not permute the rows of S-tilde"
        )
    return conj


def _unit_row_is_dims(md: ModularData) -> bool:
    """Whether row 0 of S-tilde is md.dims exactly: numerators (d, 0, ..., 0)."""
    row = md.s_values[md.s_ids[0]]
    return np.array_equal(row[:, 0], md.dims) and not row[:, 1:].any()


def _evaluations(fp: _FreqPrime, values: np.ndarray, ids: np.ndarray, freqs) -> np.ndarray:
    """Residues modulo one prime of the entries ids of a value table at the
    frequencies freqs, frequency first: (F,) + ids.shape.  Only the lifts
    of the distinct values are transformed."""
    return fp.evaluate(_lift(values, fp.n), freqs)[:, ids]


def _l1(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """L1 norms of the entries ids, as Python ints."""
    return np.abs(values).sum(axis=1).astype(object)[ids]


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
    largest bound, then certifies at every prime: S~ S~^dagger = D^2 I and
    S~^2 = D^2 times the permutation matrix of `md.dual` at frequency 1,
    and (S~T)^3 = D S~^2 ((ST)^3 = S^2 times the Gauss sum over D, which
    is 1, checked in modular_data) at one frequency per coset of the
    squares in (Z/N)^x.  The charge conjugation must be an involution
    fixing the unit, and, when |G| is odd, fix no other object (Burnside:
    no element or irreducible character of a group of odd order is real
    besides the trivial ones); at p = 2 every object may be self-dual.

    Why these frequencies suffice (Coste and Gannon, Phys. Lett. B 323
    (1994); Dong, Lin and Ng, arXiv:1201.6644, for the action checked
    here): evaluating a histogram at gamma^f is evaluating its image under
    sigma_f at gamma.  With the check passed, sigma_f(S~) = G_f S~ =
    S~ G_f^T, and conj(S~) = G_{-1} S~ is exact, so the gram matrix
    X = S~ (G_{-1} S~)^T - D^2 I and X = S~^2 - D^2 G_{-1} satisfy
    sigma_f(X) = G_f X G_f^T for every unit f.  For X = (S~T)^3 - D S~^2,
    sigma_{h^2}(S~) = G_h S~ G_h^T and sigma_{h^2}(T) = G_h T G_h^T (the
    twist condition), so sigma_{h^2}(X) = G_h X G_h^T, and the square
    classes reach every unit.  So X = 0 at the evaluated frequencies mod
    P implies X = 0 at every primitive frequency, that is,
    X = 0 mod P Z[zeta_N], because P = 1 (mod N) splits completely; the
    coefficient bound over all primes then gives X = 0.  `md.dual` must
    equal G_{-1} for S^2 to pass.  If the Galois check fails, S-tilde is
    not the S-matrix of any modular category: the report names the
    failure, and unitarity, S^2, (ST)^3 and the fusion rules fail."""
    failures: list[str] = []
    n = md.n_objects
    l1 = np.abs(md.s_values).sum(axis=1)[md.s_ids]
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
    s2_ok = galois_ok and dual == tuple(conj)
    if galois_ok:
        l1_sq = int(np.max(l1 @ l1))
        bounds = (  # gram, S~^2 and (S~T)^3 minus their targets
            int(np.max(l1 @ l1.T)) + d_sq,
            l1_sq + d_sq,
            int(np.max(l1 @ l1 @ l1)) + md.total_dim * l1_sq,
        )
        checker = _checker(md.root_order, max(bounds))
        reps = _square_classes(md.root_order)  # reps[0] = 1
        d2_identity = d_sq * np.eye(n, dtype=np.int64)
        # column b of S-tilde T at gamma^f is scaled by theta_b^f
        twist_exps = reps[:, None] * md.twist_exps[None, :] % md.root_order
        for fp in checker.freq:
            ev = _evaluations(fp, md.s_values, md.s_ids, reps)
            # conj(S~)_ba = S~_{conj(b) a}: the gram matrix at frequency 1
            gram = _mulmod(ev[0], ev[0][conj].T, fp.prime)
            unitary = unitary and not np.any(gram != d2_identity % fp.prime)
            s2 = _mulmod(ev, ev, fp.prime)
            # row a of D^2 P_dual holds D^2 in column dual(a)
            s2_ok = s2_ok and not np.any(s2[0] != d2_identity[list(dual)] % fp.prime)
            st = ev * fp.pows[twist_exps][:, None, :] % fp.prime
            cubed = _mulmod(_mulmod(st, st, fp.prime), st, fp.prime)
            st_ok = st_ok and not np.any((cubed - md.total_dim % fp.prime * s2) % fp.prime)
    if not unitary:
        failures.append("S-tilde times its conjugate transpose is not D^2 times identity")

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
            table = verlinde_table(md)
            sums = np.einsum("abc,c->ab", table, md.dims)
            dim_hom = bool(np.array_equal(sums, np.outer(md.dims, md.dims)))
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


def verlinde_table(md: ModularData) -> np.ndarray:
    """All fusion multiplicities N_ab^c as an (n, n, n) integer array,
    certified exactly at one frequency.

    D^3 N_ab^c = V_abc = sum_z S~_az S~_bz conj(S~_cz) w_z with
    w_z = D/d_z.  Once `_galois_check` passes (Coste and Gannon, Phys.
    Lett. B 323 (1994); Dong, Lin and Ng, arXiv:1201.6644), every sigma_f
    permutes the columns, sigma_f(S~_az) = S~_{a pi_f(z)}, and fixes the
    weights, w_{pi_f(z)} = w_z; reindexing z gives sigma_f(V_abc) = V_abc.
    So V_abc is fixed by the whole Galois group: it is a rational integer,
    and its value at gamma mod P is V_abc mod P.  The CRT over the
    checker's primes, whose product exceeds twice the bound, gives V_abc
    exactly; it must be a nonnegative multiple of D^3.  Raises
    ArithmeticError if the Galois check or the last test fails."""
    if md._verlinde is not None:
        return md._verlinde
    conj = list(_galois_check(md))
    n = md.n_objects
    l1 = np.abs(md.s_values).sum(axis=1)[md.s_ids]
    weights = (md.total_dim // md.dims).astype(np.int64)
    colmax = np.max(l1, axis=0).astype(object)
    checker = _checker(md.root_order, int(np.sum(weights.astype(object) * colmax**3)))

    # Per prime: S~, S~ w and conj(S~)^T = S~[conj]^T at gamma, since
    # conj(S~)_cz = S~_{conj(c) z}.
    evals = []
    for fp in checker.freq:
        s = _evaluations(fp, md.s_values, md.s_ids, [1])[0]
        evals.append((fp.prime, s, s * weights % fp.prime, s[conj].T))
    # The rows S~_az S~_bz w_z times conj(S~)^T give V_abc at gamma.  They
    # are symmetric in (a, b), so only a <= b is formed, in fixed blocks of
    # pairs that bound the product temporaries.
    upper_a, upper_b = np.triu_indices(n)
    scale = md.total_dim**3
    table = np.empty((n, n, n), dtype=np.int64)
    for start in range(0, len(upper_a), _VERLINDE_PAIRS):
        a = upper_a[start : start + _VERLINDE_PAIRS]
        b = upper_b[start : start + _VERLINDE_PAIRS]
        per_prime = [_mulmod(s[a] * sw[b] % prime, s_conj_t, prime)
                     for prime, s, sw, s_conj_t in evals]
        exact = _crt_centered(per_prime, checker.primes)
        if np.any(exact % scale) or np.any(exact < 0):
            raise ArithmeticError("Verlinde table is not nonnegative-integral")
        table[a, b] = table[b, a] = exact // scale
    md._verlinde = table
    return table


# ----- W-matrix -----------------------------------------------------------------


@dataclass
class WMatrix:
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
    _label_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def v_counts(self) -> np.ndarray:
        """V as (n, n, N) histograms, its values lifted on each call; it
        stays, unread in `stw`, for the same readers as
        `ModularData.s_counts`."""
        return _lift(self.v_values, self.root_order)[self.v_ids]

    def index_of(self, obj) -> int:
        if isinstance(obj, str):
            return self._label_index[obj]
        return int(obj)

    def _counts(self, a, b, shift: int) -> CycloNumber:
        value = self.v_values[self.v_ids[self.index_of(a), self.index_of(b)]]
        rolled = np.roll(_lift(value, self.root_order), shift)
        return CycloNumber.from_root_counts(self.root_order, rolled)

    def v_entry(self, a, b) -> CycloNumber:
        """The raw zero-framed clasp invariant V_ab."""
        return self._counts(a, b, 0)

    def w_tilde_entry(self, a, b) -> CycloNumber:
        """W-tilde_ab = theta_a^-2 V_ab: V with the internal clasp framing
        of the doubled component removed."""
        ta = int(self.twist_exps[self.index_of(a)])
        return self._counts(a, b, -2 * ta)

    def w_entry(self, a, b) -> CycloNumber:
        """W_ab = (theta_a/theta_b) W-tilde_ab = V_ab/(theta_a theta_b)."""
        ta = int(self.twist_exps[self.index_of(a)])
        tb = int(self.twist_exps[self.index_of(b)])
        return self._counts(a, b, -ta - tb)


def w_matrix(params: CocycleParams, mirror: bool = False) -> WMatrix:
    """Compute the W-matrix by running the clasp braid on every ordered
    color pair (doubled-component color, bare-component color)."""
    ctx = context_for(params)
    n = len(ctx.simples)
    labels = tuple(s.label for s in ctx.simples)
    text = WHITEHEAD_MIRROR_WORD if mirror else WHITEHEAD_WORD
    word = parse_braid(text, 3)
    info = closure_structure(word)
    if sorted(len(c) for c in info.components) != [1, 2]:
        raise ValueError("clasp word must close to a doubled plus a bare component")
    doubled = max(info.components, key=len)
    twist_exps = ctx.twist_exps.astype(np.int64)
    # The colorings (doubled component a, bare b) in row-major order, one
    # zero-framed trace per block, keyed as walked.
    a, b = np.divmod(np.arange(n * n), n)
    colorings = np.where(np.isin(np.arange(1, 4), doubled), a[:, None], b[:, None])
    blocks = (
        sparse_trace_counts(ctx, word, c, zero_framing_shifts(ctx, info, c))
        for c in _blocks(colorings, _TRACE_BLOCK)
    )
    v_ids, v_values = _value_ids(ctx.root_order, blocks)
    return WMatrix(
        params=params,
        labels=labels,
        word_text=text,
        mirror=bool(mirror),
        root_order=ctx.root_order,
        twist_exps=twist_exps,
        v_ids=v_ids.reshape(n, n),
        v_values=v_values,
    )


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


def w_identities(md: ModularData, wm: WMatrix) -> WIdentityReport:
    """Check, for all pairs: W symmetric; theta_a^2 W-tilde_ax equals
    theta_x^2 W-tilde_{x, dual(a)}; and W-tilde_ax = W-tilde_{a, dual(x)}.
    In terms of the raw clasp values these are V_ax = V_xa,
    V_ax = V_{x, dual(a)}, and V_ax = V_{a, dual(x)}."""
    n = md.n_objects
    dual = np.array([md.dual_of(a) for a in range(n)], dtype=np.int64)
    # Equal exact values have equal ids, so (n, n) ids stand in for V.
    v, v_t = wm.v_ids, wm.v_ids.T  # v_t[a, x] is V_xa
    asymmetric = v != v_t
    twist_bad = v != v_t[dual]  # against V_{x, dual(a)}
    dual_bad = v != v[:, dual]  # against V_{a, dual(x)}
    failures = []
    for a, x in zip(*np.nonzero(asymmetric | twist_bad | dual_bad)):
        pair = f"({md.labels[a]}, {md.labels[x]})"
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
    failures = []
    ne = wm.root_order
    t = wm.twist_exps
    cols = np.array(
        [b for b, lb in enumerate(wm.labels) if lb.startswith("A_")], dtype=np.int64
    )
    # l*m of each A_l_m column
    lms = np.array(
        [math.prod(map(int, wm.labels[b].split("_")[1:])) for b in cols], dtype=np.int64
    )
    for a, la in enumerate(wm.labels):
        if not la.startswith("B_"):
            continue
        x = spec.n_pow(int(la.split("_")[1]))
        v = (1 - x) * (1 - pow(x, -1, q))  # the theta_A exponent of V
        c = ((-v if wm.mirror else v) - 1) % q
        # W = q*p * theta_A^c theta_B^-1 with theta_A = zeta_q^(l m) = zeta_N^(l m N/q),
        # so V = W theta_B theta_b = q*p * zeta_N^(c l m N/q + t_b), exactly.
        expected = np.zeros((len(cols), ne), dtype=np.int64)
        expected[np.arange(len(cols)), (c * lms * (ne // q) + t[cols]) % ne] = q * p
        expected = reduce_counts(ne, expected)
        wrong = np.any(expected != wm.v_values[wm.v_ids[a, cols]], axis=1)
        failures += [f"BA formula fails at ({la}, {wm.labels[b]})" for b in cols[wrong]]
    return (not failures, failures)


# ----- punctured traces -----------------------------------------------------------


def _shifted_value(md: ModularData, counts: np.ndarray, shift: int) -> CycloNumber:
    """zeta_N^shift times the root sum of one histogram of length N."""
    rolled = np.roll(counts, shift % md.root_order)
    return CycloNumber.from_root_counts(md.root_order, rolled)


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

    bound = int(_l1(md.s_values, md.s_ids[z]) @ _l1(wm.v_values, wm.v_ids[a]))
    f_za = _exact_sums(md.root_order, bound, evaluations)
    shift = -2 * int(md.twist_exps[a])
    return _shifted_value(md, f_za, shift) * int(md.dims[a]) / md.total_dim**3


def punctured_vanishing_report(md: ModularData, wm: WMatrix) -> tuple[bool, list[str]]:
    """Certify that the punctured trace vanishes whenever the fusion
    channel is absent: N_{a, dual(a)}^z = 0 implies the trace is zero.
    (The converse can fail: accidental zeros inside the support exist.)"""
    n = md.n_objects
    table = verlinde_table(md)
    l1s = np.abs(md.s_values).sum(axis=1)[md.s_ids]
    l1v = np.abs(wm.v_values).sum(axis=1)[wm.v_ids]
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
        channel = table[a, md.dual_of(a)]
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

    l1s = _l1(md.s_values, md.s_ids)
    bound = int(l1s[b] @ (l1s @ _l1(wm.v_values, wm.v_ids[a])))
    g_ab = _exact_sums(md.root_order, bound, evaluations)
    shift = -int(md.twist_exps[a]) - int(md.twist_exps[b])
    return _shifted_value(md, g_ab, shift) / md.total_dim**2


# ----- diagonal R-sums and two-strand closures ------------------------------------


def _r_table(md: ModularData) -> np.ndarray:
    """Canonical numerators (n, n, phi(N)) of the integer targets R~(a, c),
    with r(a, c) = sum_mu [R^aa_c]_mu,mu = theta_a^-1 R~(a, c) / D^5: all
    diagonal R-sums from modular data only, reconstructed exactly through
    `_exact_sums`."""
    if md._r_table is not None:
        return md._r_table
    ne = md.root_order
    l1 = _l1(md.s_values, md.s_ids)
    weights = (md.total_dim // md.dims).astype(np.int64)
    # Integer target: R~(a, c) = sum_z S~_az B~_cz A~_z (D/d_z), where
    # A~_z = sum_y d_y theta_y^2 S~*_yz and B~_cz = sum_x theta_x^-2 S~*_xz S~*_cx;
    # then r(a, c) = theta_a^-1 R~(a, c) / D^5.
    l1_sym = np.maximum(l1, l1.T)
    a_l1 = l1_sym.T @ md.dims.astype(object)
    b_l1 = l1_sym.T @ l1_sym
    bound = int(np.max((l1_sym * (a_l1 * weights.astype(object))[None, :]) @ b_l1))

    def evaluations(fp, freqs):
        ev = _evaluations(fp, md.s_values, md.s_ids, freqs)
        conj = _evaluations(fp, md.s_values, md.s_ids, -freqs % ne)
        exps = freqs[:, None] * (2 * md.twist_exps)[None, :] % ne  # (f, x)
        twist_pos = fp.pows[exps]
        twist_neg = fp.pows[(-exps) % ne]
        # A~_z evaluations: (f, 1, z)
        a_ev = _mulmod((md.dims * twist_pos % fp.prime)[:, None, :], conj, fp.prime)
        # B~_cz evaluations: sum_x S~*_cx (theta_x^-2 S~*_xz), (f, c, z)
        b_ev = _mulmod(conj, twist_neg[:, :, None] * conj % fp.prime, fp.prime)
        k_ev = b_ev * (a_ev * weights % fp.prime) % fp.prime
        # R~(a, c) evaluations: sum_z S~_az K_cz, (f, a, c)
        return _mulmod(ev, k_ev.transpose(0, 2, 1), fp.prime)

    md._r_table = reduce_counts(ne, _exact_sums(ne, bound, evaluations))
    return md._r_table


def r_symbol_sum(md: ModularData, a, c) -> CycloNumber:
    """sum_mu [R^aa_c]_mu,mu: the braiding eigenvalue sum in channel c."""
    a, c = md.index_of(a), md.index_of(c)
    shift = -int(md.twist_exps[a])
    return _shifted_value(md, _lift(_r_table(md)[a, c], md.root_order), shift) / md.total_dim**5


@dataclass(frozen=True)
class LambdaReport:
    """The signed multiplicity Lambda_ac = r(a,c) theta_a / theta_c^(1/2)
    under the odd-order square-root convention.  A nonzero value flips
    sign under the other branch, so only its magnitude is branch-free."""

    value: int | None
    integral: bool
    branch_sensitive: bool


def lambda_signature(md: ModularData, a, c) -> LambdaReport:
    """Divide the R-sum by its ribbon phase; the result must be a plain
    integer (a signed count of eigenvalue multiplicities)."""
    a, c = md.index_of(a), md.index_of(c)
    half = (md.root_order + 1) // 2
    # theta_a cancels against the theta_a^-1 of r(a, c).
    shift = -half * int(md.twist_exps[c])
    value = _shifted_value(md, _lift(_r_table(md)[a, c], md.root_order), shift) / md.total_dim**5
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
        table = verlinde_table(md)
        hist = np.zeros(ne, dtype=np.int64)
        exps = (n * (md.twist_exps - md.twist_exps[a] - md.twist_exps[b])) % ne
        np.add.at(hist, exps, md.dims * table[a, b])
        return CycloNumber.from_root_counts(ne, hist)
    if parity == "odd":
        if a != b:
            raise ValueError("odd closures are knots: both strands carry one color")
        # sum_c d_c theta_c^n R~(a, c) in Python ints, then theta_a^-(2n+1) / D^5
        hist = md.dims.astype(object) @ _roll_rows(_lift(_r_table(md)[a], ne), n * md.twist_exps)
        shift = -(2 * n + 1) * int(md.twist_exps[a])
        return _shifted_value(md, hist, shift) / md.total_dim**5
    raise ValueError("parity must be 'even' or 'odd'")


# ----- Frobenius-Schur indicators -------------------------------------------------


def fs_indicator(md: ModularData, a, n: int) -> CycloNumber:
    """The n-th Frobenius-Schur indicator
    nu_n(a) = (1/D^2) sum_{x,y} N_ax^y d_x d_y (theta_y/theta_x)^n."""
    a = md.index_of(a)
    table = verlinde_table(md)
    ne = md.root_order
    exps = (n * (md.twist_exps[None, :] - md.twist_exps[:, None])) % ne
    weights = table[a] * np.outer(md.dims, md.dims)
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
    l1s, l1_vec = _l1(md.s_values, md.s_ids), md.dims.astype(object)
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
        counts = trace_counts(ctx, word, colorings, md.twist_exps[colorings] @ np.array(digits))
        hist += np.prod(md.dims[colorings], axis=1) @ counts
    return CycloNumber.from_root_counts(ne, hist) / md.total_dim ** (n_comp + 1)


# ----- equivalence search ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TheoryData:
    """Exact fingerprint data of one theory for the search, as integer ids.

    t_keys holds the twist exponents mod N.  s_keys and w_keys are (n, n)
    int32 arrays of the value ids of S-tilde and of V into one table,
    `values`, shared by both: row i holds the canonical power-basis
    numerators of id i, so equal ids mean equal exact values within one
    theory.  W_ab = V_ab / (theta_a theta_b), so W is carried by V and
    the twists (see `theory_data`).  Ids of two theories are compared
    only after `_shared_ids` maps one table into the other.  The arrays
    make it unhashable by value."""

    name: str
    labels: tuple[str, ...]
    dims: np.ndarray
    root_order: int
    t_keys: np.ndarray
    s_keys: np.ndarray
    w_keys: np.ndarray | None
    values: np.ndarray


def theory_data(md: ModularData, wm: WMatrix | None = None) -> TheoryData:
    """Freeze (S, T[, W]) into value ids: those of S, then the values of V
    keyed into the same table (46 values in S, 61 in S and V at the
    flagship).

    W_ab = V_ab / (theta_a theta_b).  A bijection pi that preserves T
    preserves the twist factors as well, so it maps W onto itself exactly
    when it maps V onto itself: every map the search tries matches T, and
    W is decided on the ids of V.  V's values are canonical already, so
    none is rolled or reduced here."""
    w_keys, values = None, md.s_values
    if wm is not None:
        index = {v.tobytes(): i for i, v in enumerate(md.s_values)}
        w_keys = _key_into(index, wm.v_values)[wm.v_ids]
        values = _table(index)
    return TheoryData(
        name=f"u={md.params.u}",
        labels=md.labels,
        dims=md.dims,
        root_order=md.root_order,
        t_keys=md.twist_exps,
        s_keys=md.s_ids,
        w_keys=w_keys,
        values=values,
    )


def galois_conjugate(data: TheoryData, params: CocycleParams, u: int) -> TheoryData:
    """Theory u as the Galois conjugate of `data`, the theory `params`
    (params.u != 0), with no trace walk: sigma_f (zeta_N -> zeta_N^f)
    maps theory v to theory f v mod p (see `galois_classes`).

    f is chosen by CRT with f = 1 (mod q), so that every zeta_q-valued
    character is fixed, and f = u / params.u (mod p^2).  The objects are
    relabelled by `double.galois_relabel`, each distinct exact value is
    mapped by j -> f j (mod N) and reduced once (`_galois_image_ids`,
    shared with `ModularData.galois_permutation`), and each twist
    exponent t goes to f t.  Rows and columns come in the label order
    that every theory of the group shares; the conjugate's dims and twist
    exponents must equal theory u's, read from the context of `params`
    (`DoubleContext.twist_exps_at`), or ArithmeticError is raised.  No
    context of theory u is built."""
    spec = params.spec
    p2, ne = spec.p**2, data.root_order
    ratio = u * pow(params.u, -1, spec.p) % spec.p
    f = 1 + spec.q * ((ratio - 1) * pow(spec.q, -1, p2) % p2)
    target, images = galois_relabel(params, f)
    source = np.argsort(images)  # source[b]: the object that sigma_f sends to b
    ctx = context_for(params)  # labels and dims are the same for every u
    dims = data.dims[source]
    t_keys = f * data.t_keys[source] % ne
    if not (np.array_equal(dims, ctx.dims) and np.array_equal(t_keys, ctx.twist_exps_at(target.u))):
        raise ArithmeticError(
            f"the conjugate of {data.name} by sigma_{f} does not match the dims"
            f" and twists of u={target.u}"
        )
    image_ids, values = _galois_image_ids(ne, data.values, f, {})

    def conjugate(keys):
        return None if keys is None else image_ids[keys[np.ix_(source, source)]]

    return TheoryData(
        name=f"u={target.u}",
        labels=tuple(s.label for s in ctx.simples),
        dims=dims,
        root_order=ne,
        t_keys=t_keys,
        s_keys=conjugate(data.s_keys),
        w_keys=conjugate(data.w_keys),
        values=values,
    )


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
    # in d1's id space.
    m1 = keys(d1, np.arange(len(d1.values), dtype=np.int32))
    m2 = keys(d2, _shared_ids(d1, d2))
    rows1, rows2 = np.sort(m1, axis=1), np.sort(m2, axis=1)
    match = (
        (d1.dims[:, None] == d2.dims[None, :])
        & (d1.t_keys[:, None] == d2.t_keys[None, :])
        & np.all(rows1[:, None] == rows2[None, :], axis=(2, 3))
    )
    match[0, 1:] = False  # the unit goes to the unit
    has_image = match.any(axis=1)
    if not has_image.all():
        label = d1.labels[int(np.argmin(has_image))]
        return SearchResult(False, None, 0, f"no fingerprint-compatible image for {label}")
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
    lifts = _lift(d.values[d.w_keys[a, b]], d.root_order)
    return reduce_counts(d.root_order, _roll_rows(lifts, -(d.t_keys[a] + d.t_keys[b])))


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


def _galois_partition(
    one: TheoryData, params: CocycleParams, bounds: dict[int, int], zero: TheoryData | None
) -> tuple[list[tuple[str, ...]], dict[int, int], bool]:
    """The classes of u = 0..p-1 under the data of `one` (theory 1 of
    `params`) and `zero`, through H = {h : theory 1 ~ sigma_h(theory 1)}.

    With g generating (Z/p)^x, k_r is the largest k <= bounds[r] with
    g^((p-1)/r^k) in H, testing k = 1, 2, ... up to the first failure.
    Each coset fH of more than one member is certified by a search of
    theory f against theory f h, h = g^((p-1)/|H|), unless that search
    was made.  u = 0 joins theory 1 only if `zero` is given and found
    equivalent to it.  Each conjugate lives for its search only.
    Returns the classes, the k_r and whether u = 0 joined; raises
    ArithmeticError where a search contradicts the Galois argument."""
    p = params.spec.p
    g = next((root for root, _ in _unit_generators(p)), 1)

    def theory(f: int) -> TheoryData:
        return one if f == 1 else galois_conjugate(one, params, f)

    joins = zero is not None and equivalence_search(zero, one).equivalent
    exps, found = {}, set()
    for r, bound in bounds.items():
        exps[r] = 0
        for k in range(1, bound + 1):
            h = pow(g, (p - 1) // r**k, p)
            if not equivalence_search(one, theory(h)).equivalent:
                break
            exps[r] = k
            found.add(h)
    order = math.prod(r**k for r, k in exps.items())
    if joins and order != p - 1:
        raise ArithmeticError(
            f"u=0 is equivalent to u=1, but the subgroup of (Z/{p})^x that fixes"
            f" the class of u=1 has order {order}, not {p - 1}"
        )
    h = pow(g, (p - 1) // order, p)
    cosets = sorted({tuple(sorted(f * pow(h, i, p) % p for i in range(order))) for f in range(1, p)})
    for f, *rest in cosets:
        if rest and not (f == 1 and h in found):
            if not equivalence_search(theory(f), theory(f * h % p)).equivalent:
                raise ArithmeticError(
                    f"u={f} and u={f * h % p} are not equivalent, although theory 1"
                    f" is equivalent to its conjugate by sigma_{h}"
                )
    classes = [tuple(f"u={u}" for u in coset) for coset in cosets]
    return ([("u=0",) + classes[0]] if joins else [("u=0",)] + classes), exps, joins


def galois_classes(
    md0: ModularData, md1: ModularData, with_w: bool
) -> list[list[tuple[str, ...]]]:
    """The classes of the theories u = 0..p-1 of one group under (S, T),
    and, if with_w, under (S, T, W), from theories 0 and 1 alone.  Each
    partition lists its classes by least member, each class ascending,
    as a pairwise search over every theory would.

    Every value of omega_u is a p-th root of unity, so sigma_f (zeta_N ->
    zeta_N^f, f = 1 mod q) maps theory v to theory f v mod p, with S, T
    and W conjugated entrywise (Galois conjugates of modular categories:
    Dong, Lin and Ng, arXiv:1201.6644); `galois_conjugate` builds that
    conjugate exactly.  Conjugation preserves equivalence, so theory f ~
    theory g exactly when theory 1 ~ sigma_(g/f)(theory 1), and the
    classes of u != 0 are the cosets of the subgroup H_X of the cyclic
    group (Z/p)^x that fixes the class of theory 1 under the data X.
    Under (S, T) they are the square classes of Mignard and Schauenburg
    (arXiv:1708.02796) at the groups checked so far.  H_STW lies in
    H_ST, so it is searched there only (`_galois_partition`).

    The untwisted double (u = 0) is Galois-fixed, so if u = 0 is
    equivalent to any theory u != 0 it is equivalent to all of them and
    H_X is all of (Z/p)^x; one search against theory 1 places it.  W is
    walked only where (S, T) leaves a class with more than one member:
    for theory 1 when H_ST is nontrivial or u = 0 joins it, and for
    theory 0 only when it joins."""
    params = md1.params
    st, exps, joins = _galois_partition(
        theory_data(md1), params, _factorize(params.spec.p - 1), theory_data(md0)
    )
    if not with_w:
        return [st]
    if not joins and not any(exps.values()):
        return [st, st]  # (S, T) already separates every theory
    one = theory_data(md1, w_matrix(params))
    zero = theory_data(md0, w_matrix(md0.params)) if joins else None
    stw, _, _ = _galois_partition(one, params, exps, zero)
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
        "S": [
            [md.s_entry(a, b).to_json() for b in range(md.n_objects)]
            for a in range(md.n_objects)
        ],
    }


def w_matrix_to_json(wm: WMatrix) -> dict:
    """JSON document of the W-matrix (and the retained W-tilde)."""
    n = len(wm.labels)
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
        "W": [[wm.w_entry(a, b).to_json() for b in range(n)] for a in range(n)],
        "W_tilde": [
            [wm.w_tilde_entry(a, b).to_json() for b in range(n)] for a in range(n)
        ],
    }


def write_json(document: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_matrix_csv(matrix: list[list[CycloNumber]], labels, path: str, col_labels=None) -> None:
    """Float-preview CSV (real and imaginary parts); display only.  The
    columns are labelled by `labels` too unless `col_labels` is given."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "col", "re", "im"])
        for la, row in zip(labels, matrix):
            for lb, value in zip(labels if col_labels is None else col_labels, row):
                z = value.to_complex()
                writer.writerow([la, lb, f"{z.real:.12f}", f"{z.imag:.12f}"])
