"""Tests for the modular-data layer: S/T assembly, fusion rules, the
W-matrix, derived invariants, and the permutation-equivalence search."""

import copy
import dataclasses
import functools
import itertools
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from stw import cli, double, modular
from stw.braid import BraidWord, closure_structure, parse_braid, zero_framing_shifts
from stw.braid import framed_invariant
from stw.cocycle import CocycleParams
from stw.cyclotomic import CycloNumber, euler_phi, reduce_counts, root_of_unity
from stw.double import context_for, sigma_inverse_action
from stw.group import GroupData, GroupSpec, identity, inverse

from conftest import dense_traces

# Pinned twist tables: B_k_s has twist zeta_25^e with e read off row k,
# column s; A_l_m has twist zeta_11^(l*m); I twists are 1.
B_TWIST_EXPONENTS = {
    1: {1: (1, 6, 11, 16, 21), 2: (4, 14, 24, 9, 19),
        3: (9, 24, 14, 4, 19), 4: (16, 11, 6, 1, 21)},
    4: {1: (4, 9, 14, 19, 24), 2: (16, 1, 11, 21, 6),
        3: (11, 1, 16, 6, 21), 4: (14, 9, 4, 24, 19)},
}

SAMPLE_GRID = list(range(0, 49, 5)) + [13, 27, 44]


def test_t_matrix_pinned_tables(params_u, md_u):
    for u in (1, 4):
        md = md_u(u)
        diag = modular.t_matrix(params_u(u))
        for i, label in enumerate(md.labels):
            kind = label.split("_")[0]
            if kind == "I":
                assert diag[i] == 1
            elif kind == "A":
                _, l, m = label.split("_")
                assert diag[i] == root_of_unity(int(l) * int(m), 11)
            else:
                _, k, s = label.split("_")
                assert diag[i] == root_of_unity(
                    B_TWIST_EXPONENTS[u][int(k)][int(s)], 25
                )


def test_modular_data_basics(md_u):
    md = md_u(1)
    assert md.n_objects == 49
    assert md.total_dim == 55
    assert sorted(set(int(d) for d in md.dims)) == [1, 5, 11]
    assert md.dual is not None
    dual = md.dual
    assert sorted(dual) == list(range(49))
    assert all(dual[dual[a]] == a for a in range(49))
    assert [a for a in range(49) if dual[a] == a] == [0]


def test_unit_row_and_normalization(md_u):
    md = md_u(1)
    for b in range(md.n_objects):
        assert md.s_tilde(0, b) == int(md.dims[b])
    assert md.s_entry(0, 0) == CycloNumber.from_rational(Fraction(1, 55))
    assert md.s_entry("I_0", "B_1_0") == CycloNumber.from_rational(Fraction(11, 55))


def test_s_matrix_symmetric_on_sample(md_u):
    md = md_u(1)
    for a in SAMPLE_GRID:
        for b in SAMPLE_GRID:
            assert md.s_tilde(a, b) == md.s_tilde(b, a)


def test_modularity_report_all_green(md_u):
    report = modular.modularity_report(md_u(1))
    assert report.failures == ()
    assert report.all_passed
    assert report.unitary
    assert report.s2_permutation
    assert report.self_dual_count == 1
    assert report.unit_row_is_dims
    assert report.st_cubed_matches_s2
    assert report.verlinde_integral_nonnegative
    assert report.dim_homomorphism


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4)])
def test_unitarity_is_read_off_the_s2_residues(group):
    """S-tilde is symmetric, so the gram matrix S~ conj(S~)^T has entry
    (a, c) equal to (S~^2)[a, conj(c)] at every prime: unitarity and S^2
    are one residue test, and they agree whenever `md.dual` is the
    certified conjugation."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), 1))
    conj = list(modular._galois_check(md))
    assert md.dual == tuple(conj)
    for fp in modular._checker(md.root_order, 0).freq:
        ev = modular._evaluations(fp, md.s_values, md.s_ids, [1])[0]
        gram = modular._mulmod(ev, ev[conj].T, fp.prime)
        s2 = modular._mulmod(ev, ev, fp.prime)
        assert np.array_equal(gram, s2[:, conj])
    report = modular.modularity_report(md)
    assert report.unitary == report.s2_permutation
    assert report.unitary


def test_verlinde_table_structure(md_u):
    md = md_u(1)
    table = modular.verlinde_table(md)
    assert table.shape == (49, 49, 49)
    assert table.min() == 0
    assert table.max() == 3
    assert np.array_equal(table[:, 0, :], np.eye(49, dtype=np.int64))
    assert np.array_equal(table, table.transpose(1, 0, 2))
    for a in range(49):
        assert table[a, md.dual[a], 0] == 1
        assert np.sum(table[a, md.dual[a], :] != 0) >= 1


def test_verlinde_dim_homomorphism(md_u):
    md = md_u(1)
    table = modular.verlinde_table(md)
    sums = np.einsum("abc,c->ab", table, md.dims)
    assert np.array_equal(sums, np.outer(md.dims, md.dims))


def test_verlinde_exact_route_matches_table(md_u):
    md = md_u(1)
    table = modular.verlinde_table(md)
    triples = [(0, 0, 0), (7, 30, 12), (30, 30, 5), (45, 45, 20), (13, 44, 27)]
    for a, b, c in triples:
        assert modular.verlinde(md, a, b, c) == int(table[a, b, c])


@pytest.fixture(scope="module")
def small_md():
    """Modular data of a small group, (7, 3, 2), with 25 objects."""
    return modular.modular_data(CocycleParams(GroupSpec(7, 3, 2), 1))


def _sparse(hists):
    """The (..., L) histograms hists as the one CSR block of their rows
    that `sparse_trace_counts` would give: (indptr, exponents, counts),
    the nonzero bins of each row in increasing order."""
    rows = np.asarray(hists, dtype=np.int64).reshape(-1, np.shape(hists)[-1])
    which, exps = rows.nonzero()
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(which, minlength=len(rows)), out=indptr[1:])
    return indptr, exps, rows[which, exps]


def _with_s_counts(md, counts):
    """md with S-tilde keyed afresh, ids and table, from the (n, n, N)
    histograms counts: what `modular_data` would store had its walk
    produced them."""
    s_ids, s_values = modular._value_ids(md.root_order, [_sparse(counts)])
    return dataclasses.replace(md, s_ids=s_ids.reshape(counts.shape[:2]), s_values=s_values)


def _with_v_counts(wm, counts):
    """wm with V keyed afresh from the (n, n, N) histograms counts."""
    v_ids, v_values = modular._value_ids(wm.root_order, [_sparse(counts)])
    return dataclasses.replace(wm, v_ids=v_ids.reshape(counts.shape[:2]), v_values=v_values)


@pytest.mark.parametrize("inner", [49, 129, 217, 64 * 1024 + 5])
def test_mulmod_matches_python_integers(inner):
    rng = np.random.default_rng(inner)
    for prime in modular._checker(275, 0).primes:
        a = rng.integers(0, prime, size=(2, 3, inner))
        b = rng.integers(0, prime, size=(2, inner, 4))
        a[0, 0, :] = prime - 1
        b[0, :, 0] = prime - 1
        expected = np.matmul(a.astype(object), b.astype(object)) % prime
        assert np.array_equal(modular._mulmod(a, b, prime), expected)


def test_frequency_transform_matches_direct_sums():
    fp = modular._checker(275, 0).freq[0]
    rng = np.random.default_rng(5)
    counts = rng.integers(-60, 60, size=(3, 4, 275))
    evals = fp.evaluate(counts)
    assert evals.shape == (275, 3, 4)
    for f in (0, 1, 7, 274):
        for i, j in ((0, 0), (2, 3)):
            direct = sum(
                int(c) * int(fp.pows[f * k % 275]) for k, c in enumerate(counts[i, j])
            )
            assert evals[f, i, j] == direct % fp.prime
    assert np.array_equal(fp.invert(evals), counts % fp.prime)
    # Rows shorter than N, like the phi(N) canonical numerators of a value
    # table, transform as their zero-padded lifts.
    short = rng.integers(-60, 60, size=(5, 200))
    short_evals = fp.evaluate(short)
    assert np.array_equal(short_evals, fp.evaluate(modular._lift(short, 275)))
    assert np.array_equal(fp.invert(short_evals), modular._lift(short, 275) % fp.prime)
    freqs = np.array([1, 2, 274])
    assert np.array_equal(fp.evaluate(short, freqs), short_evals[freqs])


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4)])
def test_checker_primes_for_the_report_bounds(group):
    """The two bounds of `modularity_report` at u = 1, S~^2 and S~ T S~
    minus their targets from the L1 norms of the values of S-tilde, each
    need two primes."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), 1))
    l1 = modular._l1(md.s_values, md.s_ids)
    l1_sq = int(np.max(l1 @ l1))
    bounds = (
        l1_sq + md.total_dim**2,
        l1_sq + md.total_dim * int(np.max(l1)),
    )
    assert [len(modular._checker(md.root_order, b).primes) for b in bounds] == [2, 2]


def test_checker_covers_a_rational_multiple_of_its_first_prime():
    """The edge of the norm lemma: the rational value P_1, the first
    verification prime, has L1 norm P_1 and vanishes mod P_1 at every
    primitive frequency, yet is not 0.  A checker for bound P_1 must
    take primes whose product exceeds 2 P_1, and then the value does not
    vanish mod all of them."""
    two = modular._checker(275, 0)
    first = two.primes[0]
    value = np.zeros(euler_phi(275), dtype=np.int64)
    value[0] = first
    assert not two.freq[0].evaluate(value, two.prim).any()
    checker = modular._checker(275, first)
    assert checker.product > 2 * first
    assert any(fp.evaluate(value, checker.prim).any() for fp in checker.freq)


def test_checker_takes_fewest_primes_for_bound():
    two = modular._checker(275, 0)
    assert len(two.primes) == 2
    assert all(p % 275 == 1 for p in two.primes)
    assert modular._checker(275, 1) is two
    more = modular._checker(275, two.product)
    assert more.primes[:2] == two.primes and len(more.primes) == 3
    assert 2 * two.product < more.product


def test_modular_data_rejects_gauss_sum_other_than_d(monkeypatch):
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    ctx = copy.copy(context_for(params))
    ctx.twist_exps = ctx.twist_exps.copy()
    ctx.twist_exps[1] = (ctx.twist_exps[1] + 1) % ctx.root_order
    monkeypatch.setattr(modular, "context_for", lambda _: ctx)
    with pytest.raises(ArithmeticError, match="Gauss sum"):
        modular.modular_data(params)


def test_t_matrix_follows_the_context_twists(monkeypatch, capsys):
    """T, `double.twist` and `stw anyons` read `ctx.twist_exps`, the one
    array that S, V and the traces read too: a perturbation of it moves
    all of them."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    original = modular.t_matrix(params)
    ctx = copy.copy(context_for(params))
    ctx.twist_exps = ctx.twist_exps.copy()
    ctx.twist_exps[1] = (ctx.twist_exps[1] + 1) % ctx.root_order
    for module in (modular, double, cli):
        monkeypatch.setattr(module, "context_for", lambda _: ctx)
    perturbed = [ctx.root(int(e)) for e in ctx.twist_exps]
    assert perturbed[1] != original[1]
    assert modular.t_matrix(params) == perturbed
    assert double.twist(params, 1) == perturbed[1]
    assert cli.main(["anyons", "--q", "7", "--p", "3", "--n", "2", "--u", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[3].split()
    assert row[0] == ctx.simples[1].label
    assert row[2] == cli._root_text(int(ctx.twist_exps[1]), ctx.root_order)


@pytest.mark.parametrize("u", [0, 1, 2])
def test_s_counts_match_two_inverse_crossings(u):
    """Rebuild every S~_ab histogram at (7, 3, 2) from the two inverse
    crossings of s1^-2 on each basis pair, one pair at a time, and compare
    its exact value with the one `modular_data` keyed from its batched rows."""
    params = CocycleParams(GroupSpec(7, 3, 2), u)
    ctx = context_for(params)
    ne = ctx.root_order
    exponent = {ctx.root(e).canonical_key(): e for e in range(ne)}
    md = modular.modular_data(params)
    for (a, la), (b, lb) in itertools.product(enumerate(md.labels), repeat=2):
        counts = np.zeros(ne, dtype=np.int64)
        for va, vb in itertools.product(range(md.dims[a]), range(md.dims[b])):
            # The b vector crosses over the a vector, then the a vector over it.
            first, (vb1, va1) = sigma_inverse_action(params, (lb, la), (va, vb))
            second, (va2, vb2) = sigma_inverse_action(params, (la, lb), (vb1, va1))
            if (va2, vb2) == (va, vb):
                e = exponent[first.canonical_key()] + exponent[second.canonical_key()]
                counts[e % ne] += 1
        assert np.array_equal(reduce_counts(ne, counts), md.s_values[md.s_ids[a, b]]), (la, lb)


def test_verlinde_table_matches_scalar_route_small_group(small_md):
    md = small_md
    table = modular.verlinde_table(md)
    assert table.shape == (25, 25, 25)
    assert np.array_equal(table, table.transpose(1, 0, 2))
    sums = np.einsum("abc,c->ab", table, md.dims)
    assert np.array_equal(sums, np.outer(md.dims, md.dims))
    rng = np.random.default_rng(11)
    for a, b, c in rng.integers(0, md.n_objects, size=(16, 3)):
        assert modular.verlinde(md, a, b, c) == int(table[a, b, c])


def test_verlinde_table_rejects_perturbed_s(small_md):
    counts = small_md.s_counts
    counts[3, 5, 1] += 1
    broken = _with_s_counts(small_md, counts)
    with pytest.raises(ArithmeticError):
        modular.verlinde_table(broken)


def _full_pairs_verlinde(md):
    """Oracle: N_ab^c from the product of every pair a <= b, the rows
    S~_az S~_bz w_z times conj(S~)^T at frequency 1 per prime, then CRT,
    with no transport along the Galois orbits."""
    conj = list(modular._galois_check(md))
    n = md.n_objects
    l1 = np.abs(md.s_values).sum(axis=1)[md.s_ids]
    weights = (md.total_dim // md.dims).astype(np.int64)
    colmax = np.max(l1, axis=0).astype(object)
    checker = modular._checker(md.root_order, int(np.sum(weights.astype(object) * colmax**3)))
    a, b = np.triu_indices(n)
    per_prime = []
    for fp in checker.freq:
        s = modular._evaluations(fp, md.s_values, md.s_ids, [1])[0]
        per_prime.append(modular._mulmod(s[a] * (s[b] * weights % fp.prime) % fp.prime,
                                         s[conj].T, fp.prime))
    exact = modular._crt_centered(per_prime, checker.primes)
    assert not np.any(exact % md.total_dim**3) and not np.any(exact < 0)
    table = np.empty((n, n, n), dtype=np.int64)
    table[a, b] = table[b, a] = exact // md.total_dim**3
    return table


@pytest.mark.parametrize("group", [(7, 3, 2), (7, 3, 4), (7, 2, 6), (5, 2, 4), (13, 3, 3),
                                   (11, 5, 4)])
@pytest.mark.parametrize("u", [0, 1])
def test_verlinde_table_transports_orbit_rows_exactly(group, u):
    """The rows transported along the Galois orbits equal the product over
    all pairs, entry for entry and in int64; the scalar cyclotomic route
    agrees on objects that are not their orbit's representative."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), u))
    table = modular.verlinde_table(md)
    oracle = _full_pairs_verlinde(dataclasses.replace(md))
    assert table.dtype == np.int64 and np.array_equal(table, oracle)
    fusion = modular.fusion_rules(md)
    rep, _ = modular._galois_orbits(md._galois_gens, md.n_objects)
    assert fusion.rows.dtype == np.uint8 and len(fusion.rows) == len(set(rep.tolist()))
    for a in range(md.n_objects):
        assert np.array_equal(fusion[a], oracle[a])
        assert np.array_equal(fusion[a, md.dual_of(a)], oracle[a, md.dual_of(a)])
        assert fusion[a, a, 0] == oracle[a, a, 0]
    moved = np.flatnonzero(rep != np.arange(md.n_objects))
    assert len(moved)
    rng = np.random.default_rng(sum(group) + u)
    for a in rng.choice(moved, size=min(2, len(moved)), replace=False):
        b = rng.integers(md.n_objects)
        support = np.flatnonzero(table[a, b])
        for c in (rng.integers(md.n_objects), support[-1]):  # one random c, one in the support
            assert modular.verlinde(md, a, b, c) == int(table[a, b, c])


def test_verlinde_table_multiplies_one_row_block_per_orbit(md_u, monkeypatch):
    """At the flagship the certified Galois action has 7 orbits on the 49
    objects, so each prime's products over z form 7 * 49 = 343 rows
    (r, b), not the 1,225 pairs a <= b.  (The evaluation of S~ at gamma is
    a product over the N = 275 bins, not over z.)"""
    expected = modular.verlinde_table(md_u(1))
    md = dataclasses.replace(md_u(1))  # nothing cached: check and table afresh
    rows: dict[int, int] = {}
    real = modular._mulmod

    def spy(a, b, prime):
        if np.shape(a)[-1] == md.n_objects:
            rows[prime] = rows.get(prime, 0) + math.prod(np.shape(a)[:-1])
        return real(a, b, prime)

    monkeypatch.setattr(modular, "_mulmod", spy)
    fusion = modular.fusion_rules(md)
    rep, _ = modular._galois_orbits(md._galois_gens, md.n_objects)
    assert len(set(rep.tolist())) == 7 and fusion.rows.shape == (7, 49, 49)
    assert rows and all(count == 7 * 49 for count in rows.values())
    assert np.array_equal(modular.verlinde_table(md), expected)


def test_perturbed_representative_row_fails_the_dimension_check(small_md):
    """The dimension homomorphism is checked on the representatives' rows
    only: one multiplicity raised by 1 in a representative's row breaks
    it, and the transported rows of its orbit carry the change."""
    fusion = modular.fusion_rules(small_md)
    assert modular.modularity_report(small_md).dim_homomorphism
    rows = fusion.rows.copy()
    reps = np.flatnonzero(fusion.rep == np.arange(small_md.n_objects))
    i = next(i for i, r in enumerate(reps) if np.sum(fusion.rep == r) > 1)
    rows[i, 1, 2] += 1
    md = dataclasses.replace(small_md)
    md._fusion = modular.FusionRules(rows, fusion.rep, fusion.moves)
    report = modular.modularity_report(md)
    assert report.verlinde_integral_nonnegative and not report.dim_homomorphism
    assert "fusion multiplicities break the dimension homomorphism" in report.failures
    moved = next(a for a in range(md.n_objects) if fusion.rep[a] == reps[i] != a)
    assert np.sum(md._fusion[moved]) == np.sum(fusion[moved]) + 1


def test_fusion_rows_take_the_narrowest_unsigned_dtype(small_md, monkeypatch):
    """The representatives' rows are uint8 while every multiplicity is at
    most 255, and uint16 once the exact values after the CRT hold one
    above 255 (here one multiplicity raised by 300, which the dimension
    check then rejects)."""
    assert modular.fusion_rules(dataclasses.replace(small_md)).rows.dtype == np.uint8
    real = modular._crt_centered

    def raised(residues, primes):
        exact = real(residues, primes)
        exact[0, 1, 2] += 300 * small_md.total_dim**3
        return exact

    monkeypatch.setattr(modular, "_crt_centered", raised)
    md = dataclasses.replace(small_md)
    fusion = modular.fusion_rules(md)
    monkeypatch.undo()
    expected = modular.fusion_rules(small_md).rows
    assert fusion.rows.dtype == np.uint16 and int(fusion.rows[0, 1, 2]) == int(expected[0, 1, 2]) + 300
    assert not modular.modularity_report(md).dim_homomorphism


def test_fusion_readers_never_expand_the_dense_table(params_u, md_u, wm_u, monkeypatch):
    """`modularity_report`, `punctured_vanishing_report`, the even
    two-strand closure and the Frobenius-Schur indicators read the orbit
    form only: all stay green with `verlinde_table` raising."""
    md = dataclasses.replace(md_u(1))  # nothing cached
    expected = modular.verlinde_table(md_u(1))

    def refuse(md):
        raise AssertionError("dense fusion table built")

    monkeypatch.setattr(modular, "verlinde_table", refuse)
    assert modular.modularity_report(md).all_passed
    assert modular.punctured_vanishing_report(md, wm_u(1))[0]
    for a, b in [("B_1_0", "A_1_4"), ("I_5", "B_2_1")]:
        closed = modular.two_strand_closure(md, a, b, 1, "even")
        assert closed == framed_invariant(params_u(1), BraidWord(2, (1, 1)), [a, b])
    for a in range(0, md.n_objects, 6):  # |G| = 55 is odd: only the unit is self-dual
        assert modular.fs_indicator(md, a, 2) == (1 if md.dual[a] == a else 0)
        assert modular.fusion_rules(md)[a, md.dual[a], 0] == expected[a, md.dual[a], 0] == 1


def test_galois_orbits_move_each_representative_onto_its_objects(md_u):
    """Each pi_a of `_galois_orbits` is a permutation that sends a's
    representative to a, and the orbits are closed under every certified
    generator."""
    md = md_u(1)
    modular._galois_check(md)
    gens = [np.array(g) for g in md._galois_gens]
    rep, moves = modular._galois_orbits(gens, md.n_objects)
    objects = np.arange(md.n_objects)
    assert np.array_equal(moves[objects, rep], objects)
    assert all(np.array_equal(rep[g], rep) for g in gens)
    assert all(sorted(m) == objects.tolist() for m in moves)


def test_modularity_report_names_broken_unit_row(small_md):
    counts = small_md.s_counts
    counts[0, 3] = np.roll(counts[0, 3], 1)
    report = modular.modularity_report(_with_s_counts(small_md, counts))
    assert not report.unit_row_is_dims
    assert "unit row of S-tilde is not the dimension vector" in report.failures


def test_st_w_decision_uses_no_prime(monkeypatch):
    """S, T, W, their keys and the search run without the prime-based
    evaluation scheme: the (S, T, W) decision reads no certificate."""

    def no_prime(*args, **kwargs):
        raise AssertionError("prime-based evaluation called")

    monkeypatch.setattr(modular, "_checker", no_prime)
    monkeypatch.setattr(modular, "_mulmod", no_prime)
    monkeypatch.setattr(modular._FreqPrime, "evaluate", no_prime)
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    md = modular.modular_data(params)
    wm = modular.w_matrix(params)
    data = modular.theory_data(md, wm)
    assert modular.equivalence_search(data, data).equivalent
    assert md.dual is not None


def test_modularity_report_rejects_wrong_dual(small_md):
    """Swap the images of two non-self-dual objects that are not each
    other's duals: still a permutation, but not the one S^2 holds."""
    md = dataclasses.replace(small_md)
    dual = list(small_md.dual)
    a = next(x for x in range(len(dual)) if dual[x] != x)
    b = next(x for x in range(len(dual)) if dual[x] != x and x not in (a, dual[a]))
    dual[a], dual[b] = dual[b], dual[a]
    md.dual = tuple(dual)
    report = modular.modularity_report(md)
    assert report.unitary and report.st_cubed_matches_s2
    assert not report.s2_permutation
    assert "S^2 is not D^2 times a permutation matrix" in report.failures


def test_group_dual_stays_when_a_conjugate_row_matches_nothing(small_md):
    """One count of S~_35 moved: no row of S-tilde is the conjugate of
    row 3 any more, but `dual`, read from the group's classes and twists,
    reads no S and stays as it was; the S^2 line fails."""
    counts = small_md.s_counts
    counts[3, 5, 1] += 1
    md = _with_s_counts(small_md, counts)
    assert md.galois_permutation(-1) is None
    assert md.dual == small_md.dual and md.dual_of(3) == small_md.dual_of(3)
    report = modular.modularity_report(md)
    assert not report.s2_permutation
    assert "S^2 is not D^2 times a permutation matrix" in report.failures


def test_st_identity_catches_a_changed_twist_on_its_own(small_md):
    """One twist exponent moved by 1, with the Galois certificate of the
    true T kept, so the twist condition is not checked again: the
    identity S~ T S~ = D T^-1 S~ T^-1 rejects the moved T by itself."""
    modular._galois_check(small_md)
    twist_exps = small_md.twist_exps.copy()
    twist_exps[5] = (twist_exps[5] + 1) % small_md.root_order
    md = dataclasses.replace(small_md, twist_exps=twist_exps)
    md._conj, md._galois_gens = small_md._conj, small_md._galois_gens
    report = modular.modularity_report(md)
    assert report.unitary and report.s2_permutation
    assert not report.st_cubed_matches_s2
    assert "(ST)^3 does not equal the Gauss phase times S^2" in report.failures


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4), (7, 2, 6), (13, 3, 3), (19, 3, 7), (5, 2, 4)])
def test_composed_conjugation_is_the_mapped_one(group):
    """The charge conjugation that the Galois check composes from the
    certified generator permutations (`_galois_pi` at -1), p = 2
    included, is the row permutation that mapping every value of S by
    complex conjugation finds, and so is `dual`; the same composition
    gives pi_f for the first few units f."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), 1))
    conj = modular._galois_check(md)
    assert conj == md.galois_permutation(-1) == md.dual
    units = [f for f in range(1, md.root_order) if math.gcd(f, md.root_order) == 1][:6]
    for f in units:
        assert tuple(modular._galois_pi(md, f).tolist()) == md.galois_permutation(f), f


@pytest.mark.parametrize("order", [275, 63, 171, 775, 1421, 28, 8, 40])
def test_unit_generators_and_square_classes(order):
    """The generators have the stated orders and generate (Z/N)^x, and the
    square-class representatives meet every coset of the squares once."""
    units = {f for f in range(1, order) if math.gcd(f, order) == 1}
    group = {1}
    for g, g_order in modular._unit_generators(order):
        assert pow(g, g_order, order) == 1
        assert all(pow(g, j, order) != 1 for j in range(1, g_order))
        group = {x * pow(g, j, order) % order for x in group for j in range(g_order)}
    assert group == units
    squares = {x * x % order for x in units}
    reps = modular._square_classes(order)
    assert reps[0] == 1
    cosets = {frozenset(int(r) * x % order for x in squares) for r in reps}
    assert len(cosets) == len(reps) and set().union(*cosets) == units
    if order in (275, 63, 171, 775, 1421):  # N = p^2 q: two even-order factors
        assert len(reps) == 4


def _galois_image(counts: np.ndarray, f: int) -> np.ndarray:
    """sigma_f of one histogram: the count at j moves to f*j mod N."""
    image = np.zeros_like(counts)
    image[f * np.arange(len(counts)) % len(counts)] = counts
    return image


@pytest.mark.parametrize("f", [0, 5, 11, 55])
def test_galois_permutation_refuses_a_non_unit(md_u, f):
    """sigma_f is an automorphism only for f a unit mod N = 275; a
    non-unit would send distinct values of S to colliding images."""
    with pytest.raises(ValueError, match="not a unit"):
        md_u(1).galois_permutation(f)


def test_galois_check_catches_a_wrong_conjugate_pair(small_md):
    """Replace a symmetric pair S~_ab = S~_ba by a Galois conjugate
    sigma_f(S~_ab) != S~_ab: S stays symmetric with the right unit row, but
    sigma_g no longer permutes its rows."""
    ne = small_md.root_order
    ids, values = small_md.s_ids, small_md.s_values
    counts = small_md.s_counts
    a, b, f = next(
        (a, b, f)
        for a, b in itertools.combinations(range(1, small_md.n_objects), 2)
        for f in range(2, ne)
        if math.gcd(f, ne) == 1
        and not np.array_equal(
            reduce_counts(ne, _galois_image(counts[a, b], f)), values[ids[a, b]]
        )
    )
    counts[a, b] = counts[b, a] = _galois_image(counts[a, b], f)
    md = _with_s_counts(small_md, counts)
    with pytest.raises(ArithmeticError, match=r"sigma_\d+ does not permute the rows"):
        modular._galois_check(md)
    report = modular.modularity_report(md)
    assert any("does not permute the rows" in line for line in report.failures)
    assert not (report.unitary or report.s2_permutation or report.st_cubed_matches_s2)
    assert not report.verlinde_integral_nonnegative
    with pytest.raises(ArithmeticError, match="Galois check fails"):
        modular.verlinde_table(md)


def test_galois_check_catches_a_changed_twist(small_md):
    """One twist exponent moved by 1: the rows of S still permute, but
    t_{pi_g(a)} = g^2 t_a fails, so (ST)^3 is never trusted."""
    twist_exps = small_md.twist_exps.copy()
    twist_exps[5] = (twist_exps[5] + 1) % small_md.root_order
    md = dataclasses.replace(small_md, twist_exps=twist_exps)
    with pytest.raises(ArithmeticError, match=r"theta at pi_\d+\(a\)"):
        modular._galois_check(md)
    report = modular.modularity_report(md)
    assert any(line.startswith("Galois check fails: theta") for line in report.failures)
    assert not report.st_cubed_matches_s2
    assert "(ST)^3 does not equal the Gauss phase times S^2" in report.failures


def test_galois_check_catches_an_asymmetric_s(small_md):
    """Swap two columns of equal dimension in the ids: S~ P stays unitary,
    its rows are Galois-permuted like those of S~ and its unit row is
    still the dims, so only the symmetry test rejects it."""
    dims = small_md.dims
    b, c = next(
        (b, c)
        for b, c in itertools.combinations(range(1, small_md.n_objects), 2)
        if dims[b] == dims[c]
    )
    ids = small_md.s_ids.copy()
    ids[:, [b, c]] = ids[:, [c, b]]
    md = dataclasses.replace(small_md, s_ids=ids)
    with pytest.raises(ArithmeticError, match="S-tilde is not symmetric"):
        modular._galois_check(md)
    report = modular.modularity_report(md)
    assert "Galois check fails: S-tilde is not symmetric" in report.failures
    assert report.unit_row_is_dims and not report.all_passed


@pytest.mark.parametrize("group", [(13, 3, 3), (19, 3, 7)])
def test_certification_beyond_the_flagship(group):
    """The report is all green and the one-frequency Verlinde table agrees
    with the scalar cyclotomic route on sampled triples."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), 1))
    report = modular.modularity_report(md)
    assert report.failures == () and report.self_dual_count == 1
    table = modular.verlinde_table(md)
    assert np.array_equal(np.einsum("abc,c->ab", table, md.dims), np.outer(md.dims, md.dims))
    rng = np.random.default_rng(sum(group))
    for a, b, c in rng.integers(0, md.n_objects, size=(4, 3)):
        support = np.flatnonzero(table[a, b])
        for z in (c, support[c % len(support)]):  # one random c, one in the support
            assert modular.verlinde(md, a, b, z) == int(table[a, b, z])


def test_certification_evaluates_one_frequency_per_square_class(md_u, monkeypatch):
    """`modularity_report` and `verlinde_table` evaluate S~ at no more than
    one frequency per square class and prime at the flagship, not at all
    phi(N) = 200 primitive frequencies."""
    md = dataclasses.replace(md_u(1))  # no Verlinde table cached yet
    seen: dict[int, set] = {}
    real = modular._FreqPrime.evaluate

    def spy(self, counts, freqs=None):
        used = range(self.n) if freqs is None else np.asarray(freqs).tolist()
        seen.setdefault(self.prime, set()).update(used)
        return real(self, counts, freqs)

    monkeypatch.setattr(modular._FreqPrime, "evaluate", spy)
    assert modular.modularity_report(md).all_passed
    modular.verlinde_table(md)
    classes = len(modular._square_classes(md.root_order))
    assert classes == 4
    assert seen and all(len(freqs) <= classes for freqs in seen.values())


_DUAL_CASES = [((7, 3, 2), 0), ((7, 3, 2), 1), ((7, 3, 2), 2), ((7, 3, 4), 1), ((13, 3, 3), 1),
               ((11, 5, 4), 1)]
_CONJUGATION_GROUPS = [(7, 3, 2), (7, 3, 4), (11, 5, 4), (7, 2, 6), (5, 2, 4), (13, 3, 3),
                       (13, 3, 9), (19, 3, 7), (43, 7, 4), (11, 5, 3)]


@pytest.mark.parametrize(
    "group, u",
    _DUAL_CASES
    + [(g, u) for g in _CONJUGATION_GROUPS for u in range(g[1]) if (g, u) not in _DUAL_CASES],
)
def test_dual_matches_group_data(group, u):
    """The dual of (class of t, character) lies over the class of t^-1 and
    has the same dimension and twist, and the group's conjugation is the
    pi_{-1} that the Galois check certifies on S, for every theory of
    each group, p = 2 included."""
    params = CocycleParams(GroupSpec(*group), u)
    ctx = context_for(params)
    md = modular.modular_data(params)
    assert sorted(md.dual) == list(range(md.n_objects))
    assert md.dual == modular._galois_check(md)
    for a, b in enumerate(md.dual):
        flux = ctx.classes[ctx.simples[a].class_index].representative
        assert inverse(params.spec, flux) in ctx.classes[ctx.simples[b].class_index].members
        assert md.dims[b] == md.dims[a]
        assert md.twist_exps[b] == md.twist_exps[a]


def test_w_pinned_entries(wm_u):
    wm = wm_u(1)
    assert wm.v_entry("B_1_0", "A_1_4") == 55 * root_of_unity(2, 11)
    expected = 55 * root_of_unity(-2, 11) * root_of_unity(-1, 25)
    assert wm.w_entry("B_1_0", "A_1_4") == expected
    assert wm.w_tilde_entry("B_1_0", "A_1_4") == 55 * root_of_unity(2, 11) * root_of_unity(-2, 25)


def test_w_symmetry_and_identities_on_sample(md_u, wm_u):
    md, wm = md_u(1), wm_u(1)
    for a in SAMPLE_GRID:
        for x in SAMPLE_GRID:
            v = wm.v_entry(a, x)
            assert v == wm.v_entry(x, a)
            assert v == wm.v_entry(x, md.dual_of(a))
            assert v == wm.v_entry(a, md.dual_of(x))


def test_w_identities_report(wm_u):
    report = modular.w_identities(wm_u(1))
    assert report.all_passed
    assert report.symmetric
    assert report.twist_duality
    assert report.second_dual_invariance


# The (B, A) tests run on both clasp words: the mirror word has its own
# closed formula (see `ba_block_formula_report`).
MIRRORS = (False, True)


def test_ba_block_closed_formula(params_u):
    for mirror in MIRRORS:
        ok, failures = modular.ba_block_formula_report(modular.w_matrix(params_u(1), mirror))
        assert ok, (mirror, failures[:5])


@pytest.mark.parametrize("group", [(7, 3, 2), (13, 3, 3)])
def test_ba_block_closed_formula_beyond_the_flagship(group):
    spec = GroupSpec(*group)
    for u in range(spec.p):
        for mirror in MIRRORS:
            wm = modular.w_matrix(CocycleParams(spec, u), mirror)
            ok, failures = modular.ba_block_formula_report(wm)
            assert ok, (u, mirror, failures[:5])


def test_ba_block_report_names_corrupted_pair(params_u):
    for mirror in MIRRORS:
        wm = modular.w_matrix(params_u(1), mirror)
        a, b = wm.index_of("B_2_3"), wm.index_of("A_1_7")
        counts = wm.v_counts
        counts[a, b] = np.roll(counts[a, b], 1)
        corrupted = _with_v_counts(wm, counts)
        ok, failures = modular.ba_block_formula_report(corrupted)
        assert not ok
        assert failures == ["BA formula fails at (B_2_3, A_1_7)"], mirror


def test_ba_block_report_names_a_pair_given_another_pairs_id(params_u):
    """One (B, A) pair takes the V id of another (B, A) pair with a
    different closed form: a value the formula does give, at the wrong
    pair.  That pair alone is named; the pairs that keep the id are not."""
    for mirror in MIRRORS:
        wm = modular.w_matrix(params_u(1), mirror)
        a, b = wm.index_of("B_2_3"), wm.index_of("A_1_7")
        donor = wm.index_of("A_2_5")
        assert wm.v_ids[a, b] != wm.v_ids[a, donor]
        ids = wm.v_ids.copy()
        ids[a, b] = wm.v_ids[a, donor]
        ok, failures = modular.ba_block_formula_report(dataclasses.replace(wm, v_ids=ids))
        assert not ok
        assert failures == ["BA formula fails at (B_2_3, A_1_7)"], mirror


def test_w_identities_report_names_corrupted_pair(md_u, wm_u):
    md, wm = md_u(1), wm_u(1)
    a, x = md.index_of("B_2_3"), md.index_of("A_1_7")
    counts = wm.v_counts
    counts[a, x] = np.roll(counts[a, x], 1)
    report = modular.w_identities(_with_v_counts(wm, counts))
    assert not report.symmetric
    assert not report.twist_duality
    assert not report.second_dual_invariance
    # V_ax is compared with V_xa, V_{x, dual(a)} and V_{a, dual(x)} at (a, x),
    # and appears on the right-hand side at (x, a), (dual(x), a) and (a, dual(x)).
    dx = md.dual_of(x)
    asym, twist, dual = (
        "W asymmetry",
        "twist-duality identity fails",
        "dual-argument identity fails",
    )
    broken = {
        (a, x): (asym, twist, dual),
        (x, a): (asym,),
        (dx, a): (twist,),
        (a, dx): (dual,),
    }
    expected = [
        f"{what} at ({md.labels[i]}, {md.labels[j]})"
        for i, j in sorted(broken)
        for what in broken[i, j]
    ]
    assert list(report.failures) == expected


def test_swapped_group_conjugation_fails_w_identities_and_s2(md_u, wm_u, monkeypatch):
    """Swap the images of B_1_0 and B_2_0 in the group's conjugation: a
    permutation still, but not the charge conjugation.  The two W
    identities that read it fail with their usual messages, W symmetry
    does not, and the S^2 line fails against the certified pi_{-1}."""
    real = double.GroupTables.conjugation
    a, b = wm_u(1).index_of("B_1_0"), wm_u(1).index_of("B_2_0")

    def swapped(self, u):
        images = real(self, u)
        images[[a, b]] = images[[b, a]]
        return images

    monkeypatch.setattr(double.GroupTables, "conjugation", swapped)
    wm, md = dataclasses.replace(wm_u(1)), dataclasses.replace(md_u(1))  # no dual cached
    assert wm.dual != wm_u(1).dual
    report = modular.w_identities(wm)
    assert report.symmetric and not (report.twist_duality or report.second_dual_invariance)
    named = {line.rsplit(" at ", 1)[0] for line in report.failures}
    assert named == {"twist-duality identity fails", "dual-argument identity fails"}
    s2 = modular.modularity_report(md)
    assert s2.unitary and s2.st_cubed_matches_s2 and not s2.s2_permutation
    assert "S^2 is not D^2 times a permutation matrix" in s2.failures


def test_theory_data_keys_match_scalar_keys(small_md):
    """Equal ids mean equal `canonical_key()`s across S and V, and each
    id's table row holds the canonical numerators of its value."""
    md = small_md
    wm = modular.w_matrix(md.params)
    data = modular.theory_data(md, wm)
    n = md.n_objects
    assert np.array_equal(data.t_keys, md.twist_exps)
    ids = np.concatenate((data.s_keys.ravel(), data.w_keys.ravel()))
    keys = [md.s_tilde(a, b).canonical_key() for a in range(n) for b in range(n)]
    keys += [wm.v_entry(a, b).canonical_key() for a in range(n) for b in range(n)]
    key_of_id = {}
    for i, key in zip(ids.tolist(), keys):
        assert key_of_id.setdefault(i, key) == key
    assert len(set(key_of_id.values())) == len(key_of_id) == len(data.values)
    for i, (order, num, den) in key_of_id.items():
        assert (order, den) == (md.root_order, 1)
        assert tuple(data.values[i].tolist()) == num
    assert modular.theory_data(md).w_keys is None


def test_exact_sums_match_python_ints():
    """`_exact_sums` rebuilds sum_x left[i, x] * right[x] in the group ring
    Z[x]/(x^9 - 1) from the products of the evaluations of left and right,
    and raises when a coefficient exceeds the bound it is given."""
    rng = np.random.default_rng(6)
    left = rng.integers(-5, 6, size=(3, 4, 9))
    right = rng.integers(-5, 6, size=(4, 9))

    def direct(lft, rgt):
        out = [[0] * 9 for _ in range(len(lft))]
        for i in range(len(lft)):
            for x in range(4):
                for j in range(9):
                    for k in range(9):
                        out[i][(j + k) % 9] += int(lft[i][x][j]) * int(rgt[x][k])
        return out

    def evaluations(lft, rgt):
        def at(fp, freqs):
            l_ev, r_ev = fp.evaluate(lft, freqs), fp.evaluate(rgt, freqs)
            return modular._mulmod(l_ev, r_ev[:, :, None], fp.prime)[:, :, 0]

        return at

    def l1_bound(lft, rgt):
        """max_i sum_x L1(lft[i, x]) L1(rgt[x]), in Python ints."""
        l1_left, l1_right = (np.abs(h).sum(axis=-1).astype(object) for h in (lft, rgt))
        return int(np.max(l1_left @ l1_right))

    bound = l1_bound(left, right)
    assert modular._exact_sums(9, bound, evaluations(left, right)).tolist() == direct(left, right)
    # Odd entries near 2^52 push the bound past 2^63: three primes, and
    # the general branch of the CRT in Python ints.
    scaled = right * (1 << 50) + 1
    bound = l1_bound(left, scaled)
    assert len(modular._checker(9, bound).primes) >= 3
    assert modular._exact_sums(9, bound, evaluations(left, scaled)).tolist() == direct(left, scaled)
    with pytest.raises(ArithmeticError, match="exceeded their bound"):
        modular._exact_sums(9, 0, evaluations(left, right))


def test_mirror_w_is_conjugate(params_u, wm_u):
    wm = wm_u(1)
    mirror = modular.w_matrix(params_u(1), mirror=True)
    assert mirror.mirror and not wm.mirror
    for a, b in [("B_1_0", "A_1_4"), ("A_2_3", "B_2_1"), ("I_5", "I_2"), ("B_3_3", "B_1_2")]:
        assert mirror.v_entry(a, b) == wm.v_entry(a, b).conjugate()


# Groups beyond the flagship on which the exact sums of the punctured
# traces, the odd two-strand closures and the lens chains are checked
# too, at u = 1, and colors of each kind that all of them have.
FLAGSHIP = (11, 5, 4)
BEYOND_FLAGSHIP = ((7, 3, 2), (13, 3, 3), (7, 2, 6))
COMMON_COLORS = ("I_1", "A_1_2", "B_1_0")


@functools.lru_cache(maxsize=None)
def _theory_at_u1(group):
    params = CocycleParams(GroupSpec(*group), 1)
    return params, modular.modular_data(params), modular.w_matrix(params)


def _theories_at_u1(params_u, md_u, wm_u):
    """(group, params, md, wm) at u = 1: the flagship, then each group of
    BEYOND_FLAGSHIP."""
    yield FLAGSHIP, params_u(1), md_u(1), wm_u(1)
    for group in BEYOND_FLAGSHIP:
        yield (group, *_theory_at_u1(group))


def test_punctured_trace_unit(params_u, md_u, wm_u):
    for _, _, md, wm in _theories_at_u1(params_u, md_u, wm_u):
        value = modular.punctured_s_trace(md, wm, 0, 0)
        assert value == CycloNumber.from_rational(Fraction(1, md.total_dim))


def test_punctured_trace_vanishes_outside_fusion_support(md_u, wm_u):
    ok, failures = modular.punctured_vanishing_report(md_u(1), wm_u(1))
    assert ok, failures[:5]


def test_punctured_trace_round_trip(params_u, md_u, wm_u):
    for group, _, md, wm in _theories_at_u1(params_u, md_u, wm_u):
        pairs = [("B_1_0", "A_1_4"), ("A_2_3", "B_2_1"), ("I_5", "B_3_2")]
        if group != FLAGSHIP:
            pairs = zip(COMMON_COLORS, COMMON_COLORS[1:] + COMMON_COLORS[:1])
        for a, b in pairs:
            assert modular.w_from_punctured(md, wm, a, b) == wm.w_entry(a, b)


def test_r_sums_unit_row(md_u):
    md = md_u(1)
    assert modular.r_symbol_sum(md, 0, 0) == 1
    for c in range(1, 49):
        assert modular.r_symbol_sum(md, 0, c).is_zero()


def test_r_sums_weighted_by_dims_give_twist(md_u):
    md = md_u(1)
    for a in ("B_1_0", "A_1_1", "I_5"):
        acc = CycloNumber.zero(md.root_order)
        for c in range(49):
            acc = acc + modular.r_symbol_sum(md, a, c) * int(md.dims[c])
        assert acc == md.twist(a) * int(md.dims[md.index_of(a)])


def test_two_strand_even_matches_engine(params_u, md_u):
    params, md = params_u(1), md_u(1)
    for a, b in [("B_1_0", "A_1_4"), ("A_1_1", "A_2_3"), ("I_5", "B_2_1")]:
        for n in range(3):
            closed = modular.two_strand_closure(md, a, b, n, "even")
            engine = framed_invariant(params, BraidWord(2, (1,) * (2 * n)), [a, b])
            assert closed == engine


def test_two_strand_odd_matches_engine(params_u, md_u, wm_u):
    for group, params, md, _ in _theories_at_u1(params_u, md_u, wm_u):
        for a in ("I_5", "A_1_4", "B_1_0") if group == FLAGSHIP else COMMON_COLORS:
            for n in range(3):
                closed = modular.two_strand_closure(md, a, a, n, "odd")
                engine = framed_invariant(params, BraidWord(2, (1,) * (2 * n + 1)), [a, a])
                assert closed == engine


@pytest.mark.parametrize("group", [(7, 3, 2), (11, 5, 4)])
def test_r_table_in_channel_blocks_equals_one_block(group, monkeypatch):
    """The R-table formed a few channels c per `_exact_sums` call (a short
    last block included) equals the one-call table entry for entry, and
    so do the R-sums and the odd two-strand closures read from it."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), 1))
    n, ne = md.n_objects, md.root_order
    monkeypatch.setattr(modular, "_R_RESIDUES", 2**62)
    whole = dataclasses.replace(md)
    calls = []
    real = modular._exact_sums

    def spy(order, bound, evaluations):
        sums = real(order, bound, evaluations)
        calls.append(sums.shape)
        return sums

    monkeypatch.setattr(modular, "_exact_sums", spy)
    one_block = modular._r_table(whole)
    assert calls == [(n, n, ne)]
    monkeypatch.setattr(modular, "_R_RESIDUES", 30 * n * ne)  # 30 // (primes) columns
    calls.clear()
    blocked = dataclasses.replace(md)
    table = modular._r_table(blocked)
    widths = [shape[1] for shape in calls]
    assert len(widths) > 1 and sum(widths) == n and 0 < widths[-1] < widths[0] <= 15
    assert set(widths[:-1]) == {widths[0]} and {shape[0] for shape in calls} == {n}
    assert table.dtype == one_block.dtype and np.array_equal(table, one_block)
    for a in range(n):
        for c in range(0, n, 1 if n < 30 else 8):
            assert modular.r_symbol_sum(blocked, a, c) == modular.r_symbol_sum(whole, a, c)
        for k in range(2):
            closed = modular.two_strand_closure(blocked, a, a, k, "odd")
            assert closed == modular.two_strand_closure(whole, a, a, k, "odd")


def test_two_strand_argument_validation(md_u):
    md = md_u(1)
    with pytest.raises(ValueError):
        modular.two_strand_closure(md, "A_1_1", "A_1_2", 1, "odd")
    with pytest.raises(ValueError):
        modular.two_strand_closure(md, 0, 0, 1, "sideways")


def test_lambda_signatures(md_u):
    md = md_u(1)
    report = modular.lambda_signature(md, "B_1_0", "B_2_0")
    assert report.integral and report.value == 1 and report.branch_sensitive
    unit_channel = modular.lambda_signature(md, "A_1_4", "I_0")
    assert unit_channel.integral and unit_channel.value == 0
    assert not unit_channel.branch_sensitive
    for c in range(49):
        assert modular.lambda_signature(md, "B_1_0", c).integral


@pytest.mark.parametrize("group, integral", [((7, 2, 6), 728), ((5, 2, 4), 224)])
def test_lambda_signatures_at_even_order(group, integral):
    """At p = 2, N = 4q is even and 2 has no inverse mod N.  For an even
    twist exponent t_c the square root of theta_c is zeta^(t_c/2), and
    every Lambda_ac is an integer; an odd t_c has no square root zeta^k
    in Q(zeta_N) and is refused."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), 1))
    even = np.flatnonzero(md.twist_exps % 2 == 0)
    odd = np.flatnonzero(md.twist_exps % 2)
    assert md.root_order % 2 == 0 and len(odd) and md.n_objects * len(even) == integral
    for a in range(md.n_objects):
        for c in even:
            assert modular.lambda_signature(md, a, c).integral, (a, c)
    for c in odd:
        with pytest.raises(ValueError, match="no square root"):
            modular.lambda_signature(md, 0, c)


def test_fs_indicators(md_u):
    md = md_u(1)
    assert modular.fs_indicator(md, 0, 1) == 1
    assert modular.fs_indicator(md, 0, 2) == 1
    for label in ("I_1", "A_1_0", "B_1_0"):
        assert md.dual[md.index_of(label)] != md.index_of(label)
        assert modular.fs_indicator(md, label, 1).is_zero()


def test_negative_continued_fractions():
    assert modular.negative_continued_fraction(5, 1) == (5,)
    assert modular.negative_continued_fraction(5, 2) == (3, 2)
    assert modular.negative_continued_fraction(7, 3) == (3, 2, 2)
    assert modular.negative_continued_fraction(0, 1) == (0,)
    assert modular.negative_continued_fraction(1, 1) == (1,)
    with pytest.raises(ValueError):
        modular.negative_continued_fraction(4, 2)
    with pytest.raises(ValueError):
        modular.negative_continued_fraction(5, 0)


def test_linking_signature():
    assert modular.linking_signature((5,)) == 1
    assert modular.linking_signature((3, 2)) == 2
    assert modular.linking_signature((0,)) == 0
    assert modular.linking_signature((3, 2, 2)) == 3


def test_lens_space_pinned_values(md_u):
    md = md_u(1)
    assert modular.lens_space_invariant(md, 0, 1) == 1
    assert modular.lens_space_invariant(md, 1, 1) == CycloNumber.from_rational(
        Fraction(1, 55)
    )


def test_lens_space_two_routes_agree(params_u, md_u, wm_u):
    for _, _, md, _ in _theories_at_u1(params_u, md_u, wm_u):
        for p, q in [(5, 1), (5, 2), (7, 3)]:
            fold = modular.lens_space_invariant(md, p, q)
            chain = modular.lens_space_via_chain_braid(md, p, q)
            assert fold == chain
    md = md_u(1)
    assert modular.lens_space_invariant(md, 5, 1) != modular.lens_space_invariant(
        md, 5, 2
    )


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2)])
def test_lens_space_matches_dijkgraaf_witten_count(group):
    """With the trivial cocycle (u = 0), Z(L(p, q)) = #{g : g^p = 1} / |G|."""
    spec = GroupSpec(*group)
    md = modular.modular_data(CocycleParams(spec, 0))
    data = GroupData(spec)
    table, unit = data.mult_table, data.index(identity(spec))
    g = np.arange(len(table))
    cases = [(2, 1), (3, 2), (5, 2), (5, 3), (7, 3), (11, 4), (13, 5), (21, 8)]
    if group == (7, 3, 2):
        # 16/15 = [2, ..., 2] (15 digits): its chain sums pass 2^63, so
        # they and their reduction run in Python ints.
        cases.append((16, 15))
    for p, q in cases:
        power = g
        for _ in range(p - 1):
            power = table[power, g]
        count = Fraction(int(np.sum(power == unit)), len(g))
        assert modular.lens_space_invariant(md, p, q) == CycloNumber.from_rational(count)


def test_lens_spaces_of_orders_coprime_to_the_group(md_u):
    # 7 and 13 are coprime to |G| = 55, so only g = 1 has g^p = 1.
    for u in range(5):
        for p, q in [(7, 3), (13, 5)]:
            value = modular.lens_space_invariant(md_u(u), p, q)
            assert value == CycloNumber.from_rational(Fraction(1, 55))


def _witness_respects_data(d1, d2, perm, with_w, grid=SAMPLE_GRID):
    """Whether perm maps T everywhere and S (and W) on grid x grid,
    comparing exact values through each theory's own table."""
    perm = np.array(perm)
    if not np.array_equal(d1.t_keys, d2.t_keys[perm]):
        return False
    pairs = [(d1.s_keys, d2.s_keys)] + ([(d1.w_keys, d2.w_keys)] if with_w else [])
    return all(
        np.array_equal(
            d1.values[k1[np.ix_(grid, grid)]], d2.values[k2[np.ix_(perm[grid], perm[grid])]]
        )
        for k1, k2 in pairs
    )


def test_equivalence_search_self(theory_u):
    data = theory_u(1, True)
    result = modular.equivalence_search(data, data)
    assert result.equivalent
    assert _witness_respects_data(data, data, result.permutation, True)


def test_equivalence_u1_u4_modular_data_only(theory_u):
    d1, d4 = theory_u(1, False), theory_u(4, False)
    result = modular.equivalence_search(d1, d4)
    assert result.equivalent
    assert result.permutation[0] == 0
    assert _witness_respects_data(d1, d4, result.permutation, False)


def test_equivalence_u1_u4_with_w_fails(theory_u):
    result = modular.equivalence_search(theory_u(1, True), theory_u(4, True))
    assert not result.equivalent
    assert result.permutation is None


@pytest.mark.parametrize("u", range(3))
def test_presentation_of_the_group_does_not_matter(u):
    """(7, 3, 2) and (7, 3, 4) present one group (b -> b^2 maps one onto
    the other), and the cocycle class u -> 2^2 u = u mod 3 is kept, so
    theory u of each must be equivalent with W."""
    datas = []
    for n in (2, 4):
        params = CocycleParams(GroupSpec(7, 3, n), u)
        datas.append(modular.theory_data(modular.modular_data(params), modular.w_matrix(params)))
    d1, d2 = datas
    result = modular.equivalence_search(d1, d2)
    assert result.equivalent
    everywhere = list(range(len(d1.labels)))
    assert _witness_respects_data(d1, d2, result.permutation, True, everywhere)


def test_one_search_matches_candidates_on_row_ids():
    """Candidates are matched on one id per sorted row, given through one
    dict over both theories, not by comparing every pair of rows entry by
    entry: an (S,T,W) search at (43,7,4), 313 objects, traces well below
    the 61 MB that the (n, n, n, 2) bool compare alone took, and theory 1
    maps onto itself in n nodes."""
    params = CocycleParams(GroupSpec(43, 7, 4), 1)
    data = modular.theory_data(modular.modular_data(params), modular.w_matrix(params))
    n = len(data.labels)
    tracemalloc.start()
    try:
        result = modular.equivalence_search(data, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.equivalent and result.nodes == n
    assert peak < 10 * 2**20 < n**3 * 2


def test_search_maps_ids_between_relabelled_tables(small_md):
    """A relabelled copy of (7, 3, 2) u=1, unit fixed, numbers its values
    in another order; the search must still find a witness that maps S,
    T and W entry by entry, and must reject the copy once one symmetric
    pair of S entries is changed."""
    md, wm = small_md, modular.w_matrix(small_md.params)
    n = md.n_objects
    sigma = np.concatenate(([0], 1 + np.random.default_rng(7).permutation(n - 1)))
    grid = np.ix_(sigma, sigma)
    md2 = _with_s_counts(
        dataclasses.replace(
            md,
            labels=tuple(md.labels[i] for i in sigma),
            dims=md.dims[sigma],
            twist_exps=md.twist_exps[sigma],
        ),
        md.s_counts[grid],
    )
    wm2 = _with_v_counts(
        dataclasses.replace(wm, labels=md2.labels, twist_exps=wm.twist_exps[sigma]),
        wm.v_counts[grid],
    )
    d1, d2 = modular.theory_data(md, wm), modular.theory_data(md2, wm2)
    assert not np.array_equal(d1.values, d2.values)
    result = modular.equivalence_search(d1, d2)
    assert result.equivalent
    assert _witness_respects_data(d1, d2, result.permutation, True, list(range(n)))

    nonzero = np.any(md2.s_values[md2.s_ids] != 0, axis=2)
    a, b = next((a, b) for a, b in zip(*np.nonzero(nonzero)) if 0 < a < b)
    counts = md2.s_counts
    # Times zeta: a different value at (a, b) and (b, a), since S_ab != 0.
    counts[a, b] = counts[b, a] = np.roll(counts[a, b], 1)
    d3 = modular.theory_data(_with_s_counts(md2, counts), wm2)
    assert not modular.equivalence_search(d1, d3).equivalent


def test_obstruction_certificate_pinned_sets(theory_u):
    cert = modular.obstruction_certificate(theory_u(1, True), theory_u(4, True))
    assert cert.anchor_images == ("B_2_1", "B_3_1")
    assert cert.t_allowed == ("A_1_4", "A_2_2")
    assert cert.w_required == ("A_1_1", "A_2_6")
    assert cert.compatible == ()


def test_serialization(md_u, wm_u, tmp_path):
    md, wm = md_u(1), wm_u(1)
    doc = modular.modular_data_to_json(md)
    assert doc["total_dim"] == 55
    assert doc["c_mod_8"] == 0
    assert len(doc["S"]) == 49 and len(doc["S"][0]) == 49
    assert doc["T"][0]["coeffs"][0] == "1"
    wdoc = modular.w_matrix_to_json(wm)
    assert len(wdoc["W"]) == 49
    out = tmp_path / "md.json"
    modular.write_json(doc, str(out))
    assert out.exists() and out.read_text().endswith("\n")
    csv_path = tmp_path / "s.csv"
    ids, values = md.s_table()
    modular.write_matrix_csv(ids[:3, :3], values, md.labels[:3], str(csv_path))
    assert len(csv_path.read_text().splitlines()) == 10


def test_documents_format_each_distinct_value_once(md_u, wm_u, monkeypatch):
    """At (11,5,4) `modular_data_to_json` formats each of the 46 distinct
    S values once (46 `to_json` calls for the 2,401 entries of S, plus
    one per twist of T), and `w_matrix_to_json` each distinct (V id,
    shift mod N) once: 158 for W and 165 for W-tilde.  Both documents
    equal their entry-by-entry build from `s_entry`, `w_entry` and
    `w_tilde_entry`."""
    md, wm = md_u(1), wm_u(1)
    n = md.n_objects
    calls, to_json = [], CycloNumber.to_json
    monkeypatch.setattr(CycloNumber, "to_json", lambda self: calls.append(1) or to_json(self))
    doc = modular.modular_data_to_json(md)
    assert len(calls) - n == len(md.s_values) == 46 and n * n == 2401
    calls.clear()
    wdoc = modular.w_matrix_to_json(wm)
    assert len(calls) == 158 + 165
    monkeypatch.undo()
    assert doc["S"] == [[md.s_entry(a, b).to_json() for b in range(n)] for a in range(n)]
    assert wdoc["W"] == [[wm.w_entry(a, b).to_json() for b in range(n)] for a in range(n)]
    assert wdoc["W_tilde"] == [[wm.w_tilde_entry(a, b).to_json() for b in range(n)] for a in range(n)]


def _built_theory(params):
    return modular.theory_data(modular.modular_data(params), modular.w_matrix(params))


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (13, 3, 3)])
def test_galois_conjugate_equals_the_built_theory(group, theory_u):
    """sigma_f of theory 1 equals the theory r built from its own traces,
    value by value, for every unit r mod p: labels, dims, twists, S, W."""
    spec = GroupSpec(*group)
    base = CocycleParams(spec, 1)
    flagship = group == (11, 5, 4)
    d1 = theory_u(1, True) if flagship else _built_theory(base)
    for r in range(1, spec.p):
        direct = theory_u(r, True) if flagship else _built_theory(CocycleParams(spec, r))
        conj = modular.galois_conjugate(d1, base, r)
        assert conj.name == direct.name == f"u={r}"
        assert conj.labels == direct.labels
        assert np.array_equal(conj.dims, direct.dims)
        assert np.array_equal(conj.t_keys, direct.t_keys)
        assert np.array_equal(conj.values[conj.s_keys], direct.values[direct.s_keys])
        assert np.array_equal(conj.values[conj.w_keys], direct.values[direct.w_keys])


def test_galois_conjugate_keeps_s_only_data(theory_u, params_u):
    conj = modular.galois_conjugate(theory_u(1, False), params_u(1), 3)
    direct = theory_u(3, False)
    assert conj.w_keys is None
    assert np.array_equal(conj.values[conj.s_keys], direct.values[direct.s_keys])


def test_galois_conjugate_rejects_a_wrong_label_map(theory_u, params_u, monkeypatch):
    """Two B_k_s of one flux swapped in the label map: the dims and twist
    guard of the target context must refuse the conjugate."""
    real = modular.galois_relabel

    def swapped(params, f):
        target, images = real(params, f)
        labels = context_for(params).label_index
        a, b = labels["B_2_1"], labels["B_2_3"]
        images = images.copy()
        images[[a, b]] = images[[b, a]]
        return target, images

    monkeypatch.setattr(modular, "galois_relabel", swapped)
    with pytest.raises(ArithmeticError, match="does not match the dims and twists of u=2"):
        modular.galois_conjugate(theory_u(1, True), params_u(1), 2)


def _pairwise_classes(datas):
    """The reference for `modular.galois_classes`: each theory is searched
    against the first member of every class found so far, in order."""
    classes = []
    for i in range(len(datas)):
        for group in classes:
            if modular.equivalence_search(datas[group[0]], datas[i]).equivalent:
                group.append(i)
                break
        else:
            classes.append([i])
    return [tuple(datas[i].name for i in group) for group in classes]


@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (13, 3, 3), (7, 2, 6)])
def test_galois_classes_equal_the_pairwise_search(group, with_w, md_u, theory_u):
    """The cosets of the subgroups of (Z/p)^x, with u = 0 placed by the
    twists, are the classes that a pairwise search over every theory,
    each built from its own traces, finds."""
    if group == (11, 5, 4):
        md1 = md_u(1)
        datas = [theory_u(u, with_w) for u in range(5)]
    else:
        spec = GroupSpec(*group)
        mds = [modular.modular_data(CocycleParams(spec, u)) for u in range(spec.p)]
        datas = [
            modular.theory_data(md, modular.w_matrix(md.params) if with_w else None)
            for md in mds
        ]
        md1 = mds[1]
    partitions = modular.galois_classes(md1, with_w)
    assert len(partitions) == 1 + with_w
    assert partitions[-1] == _pairwise_classes(datas)


README_GROUPS = [
    (11, 5, 4), (31, 5, 2), (29, 7, 7), (23, 11, 2), (41, 5, 10), (43, 7, 4),
    (53, 13, 10), (79, 13, 8), (103, 17, 8), (47, 23, 2), (59, 29, 3),
]


@pytest.mark.parametrize("group", README_GROUPS + [(7, 2, 6), (13, 3, 3), (19, 3, 7)])
def test_twists_place_u0_in_a_class_of_its_own(group, monkeypatch):
    """From the group's tables alone, no context and no vector table
    built (an uncached `GroupTables`, dropped after the test): the
    objects of u = 0 that have no (dim, twist) partner in any theory
    u != 0 are exactly the B_k_s, of dimension q, and `_u0_obstruction`
    gives the first."""
    monkeypatch.setattr(double, "DoubleContext", None)  # any context build fails
    spec = GroupSpec(*group)
    tables = double.GroupTables(spec)
    dims = tables.dims.tolist()
    others = {pair for u in range(1, spec.p) for pair in zip(dims, tables.twists(u).tolist())}
    alone = [a for a, pair in enumerate(zip(dims, tables.twists(0).tolist())) if pair not in others]
    assert alone == [a for a, s in enumerate(tables.simples) if s.label.startswith("B_")]
    assert all(dims[a] == spec.q for a in alone)
    assert modular._u0_obstruction(tables) == alone[0]
    assert tables.crossing_state is None and tables.action_state is None


def test_galois_classes_refuse_u0_when_its_twists_have_partners(small_md, monkeypatch):
    """With the twists of u = 1 given to u = 0, every object of u = 0 has
    a (dim, twist) partner, so T cannot place u = 0: `galois_classes`
    raises, naming the first object of dimension q."""
    real = double.GroupTables.twists
    monkeypatch.setattr(double.GroupTables, "twists", lambda self, u: real(self, u or 1))
    with pytest.raises(ArithmeticError, match="B_1_0 included: T does not place u=0"):
        modular.galois_classes(small_md, True)


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (43, 7, 4)])
def test_rows_walked_on_demand_equal_the_w_matrix(group, wm_u):
    """V walked a few rows at a time, in a shuffled order with repeats,
    gives the exact values of `w_matrix`, row by row: each id of the walk
    names the value of `w_matrix`'s id at the same entry (the two tables
    matched value by value, one to one)."""
    params = CocycleParams(GroupSpec(*group), 1)
    wm = wm_u(1) if group == (11, 5, 4) else modular.w_matrix(params)
    index = {v.tobytes(): i for i, v in enumerate(wm.v_values)}
    rows = modular._ClaspRows(params)
    n = len(wm.labels)
    order = np.random.default_rng(3).permutation(n)
    for part in np.array_split(np.concatenate((order, order[:5])), 9):
        ids = rows.rows(part)
        to_wm = np.array([index[v.tobytes()] for v in rows.keyer.table()])
        assert np.array_equal(to_wm[ids], wm.v_ids[part])
    assert rows.walked.all() and sorted(to_wm) == list(range(len(wm.v_values)))
    full = rows.matrix()
    assert np.array_equal(full.v_ids, rows.ids) and np.array_equal(to_wm[full.v_ids], wm.v_ids)


def test_row_search_without_an_obstruction_runs_the_full_search(small_md):
    """Theory 1 against its identity conjugate has no obstruction: the
    row walk walks every row and the full search returns a witness that
    maps S, T and W."""
    params = small_md.params
    rows = modular._ClaspRows(params)
    result = modular._row_search(modular.theory_data(small_md), rows, params, 1)
    assert result.equivalent and result.nodes == small_md.n_objects
    assert rows.walked.all()
    full = modular.theory_data(small_md, modular.w_matrix(params))
    n = small_md.n_objects
    assert _witness_respects_data(full, full, result.permutation, True, list(range(n)))


def _full_match(d1, d2):
    """The candidate matrix of `equivalence_search` on S, T and all of V."""

    def keys(d, ids):
        codes = ids[d.w_keys].astype(np.int64) * d.root_order + d.t_keys
        return np.stack([ids[d.s_keys], codes], axis=2)

    m1, m2 = keys(d1, np.arange(len(d1.values))), keys(d2, modular._shared_ids(d1, d2))
    return modular._candidates(d1, d2, m1, m2)


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (13, 3, 3)])
def test_row_search_agrees_with_the_full_search(group, md_u, wm_u):
    """For every h, the row walk of theory 1 against sigma_h(theory 1)
    gives the verdict of the search on the whole V, and an object it
    names as having no image has no candidate under S, T and all of V."""
    params = CocycleParams(GroupSpec(*group), 1)
    flagship = group == (11, 5, 4)
    md = md_u(1) if flagship else modular.modular_data(params)
    full = modular.theory_data(md, wm_u(1) if flagship else modular.w_matrix(params))
    for h in range(2, params.spec.p):
        result = modular._row_search(modular.theory_data(md), modular._ClaspRows(params), params, h)
        conj = modular.galois_conjugate(full, params, h)
        assert result.equivalent == modular.equivalence_search(full, conj).equivalent
        if not result.equivalent:
            a = full.labels.index(result.reason.rsplit(" ", 1)[1])
            assert not _full_match(full, conj)[a].any(), (h, result.reason)


def test_distinguish_walks_one_theory_and_the_deciding_v_rows(monkeypatch, capsys):
    """`distinguish --all` at the flagship builds the context of u = 1
    only, walks S once (49^2 colorings of the two-strand word) and 3 of
    the 49 rows of V (3 * 49 clasp colorings), and prints the paper's
    partitions."""
    built, walked = [], []

    class Recorded(double.DoubleContext):
        def __init__(self, params):
            built.append(params.u)
            super().__init__(params)

    real = modular.sparse_trace_counts

    def spy(ctx, word, colorings, shifts=None):
        walked.append((word.strands, len(colorings)))
        return real(ctx, word, colorings, shifts)

    monkeypatch.setattr(double, "DoubleContext", Recorded)
    monkeypatch.setattr(modular, "sparse_trace_counts", spy)
    context_for.cache_clear()
    assert cli.main(["distinguish", "--all"]) == 0
    assert capsys.readouterr().out == (
        "(S,T) classes  : {u=0}  {u=1, u=4}  {u=2, u=3}\n"
        "(S,T,W) classes: {u=0}  {u=1}  {u=2}  {u=3}  {u=4}\n"
    )
    assert built == [1]
    assert sum(c for strands, c in walked if strands == 2) == 49 * 49
    assert sum(c for strands, c in walked if strands == 3) == 3 * 49


def test_index_of_reads_the_labels_of_a_relabelled_copy(small_md):
    """A copy of (7, 3, 2) u = 1 with its labels reversed resolves each
    label to its own row, not to the label's index in the group."""
    wm = modular.w_matrix(small_md.params)
    n = small_md.n_objects
    for table in (small_md, wm):
        copy_ = dataclasses.replace(table, labels=table.labels[::-1])
        assert [copy_.index_of(label) for label in copy_.labels] == list(range(n))
        assert copy_.index_of(copy_.labels[0]) == 0 and table.index_of(copy_.labels[0]) == n - 1
        assert copy_.index_of(5) == 5
        simple = double.group_for(small_md.params.spec).simples[0]
        assert copy_.index_of(simple) == n - 1
        with pytest.raises(KeyError, match="names no simple object"):
            copy_.index_of("B_9_9")


def test_s_and_w_are_stored_as_ids_keyed_row_by_row():
    """`modular_data` and `w_matrix` at (13, 3, 3) key each row of traces
    as it is walked: their traced memory peak stays below half of one
    dense (n, n, N) int64 array (65 * 65 * 117 * 8 B), and they keep only
    (n, n) ids and tables of phi(N) numerators."""
    params = CocycleParams(GroupSpec(13, 3, 3), 1)
    ctx = context_for(params)  # the cached engine tables, built before tracing
    n, ne = len(ctx.simples), ctx.root_order
    tracemalloc.start()
    try:
        md = modular.modular_data(params)
        wm = modular.w_matrix(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * ne * 8 / 2
    for ids, values in ((md.s_ids, md.s_values), (wm.v_ids, wm.v_values)):
        assert ids.shape == (n, n) and ids.dtype == np.int32
        assert values.shape == (ids.max() + 1, euler_phi(ne))


@pytest.mark.parametrize("u", [0, 1])
def test_certification_at_even_order(u):
    """At p = 2 (a dihedral group) every object is self-dual; the report
    asks only for an involution fixing the unit."""
    md = modular.modular_data(CocycleParams(GroupSpec(7, 2, 6), u))
    report = modular.modularity_report(md)
    assert report.failures == () and report.charge_conjugation
    assert report.self_dual_count == md.n_objects == 28


# ----- keying: exact sparse rows against the bytes-dict reference -------------


def _bytes_value_ids(order, rows, index=None):
    """Reference keying, the one `_value_ids` replaced: every histogram of
    each row is hashed by its bytes, the distinct ones are reduced, and
    each value gets the next id through a dict on its numerators' bytes.
    Returns (len(rows), m) ids and the table."""
    index = {} if index is None else index
    ids = []
    for row in rows:
        row = np.ascontiguousarray(row, dtype=np.int64)
        raw = {}
        where = [raw.setdefault(h.tobytes(), len(raw)) for h in row]
        distinct = np.frombuffer(b"".join(raw), dtype=np.int64).reshape(len(raw), -1)
        reduced = np.ascontiguousarray(reduce_counts(order, distinct), dtype=np.int64)
        value_of = [index.setdefault(v.tobytes(), len(index)) for v in reduced]
        ids.append([value_of[w] for w in where])
    values = np.frombuffer(b"".join(index), dtype=np.int64).reshape(len(index), -1)
    return np.array(ids, dtype=np.int32), values


def _reference_ids(params):
    """S and V keyed the reference way, from one trace per row a."""
    ctx = context_for(params)
    n = len(ctx.simples)
    s_rows = (
        dense_traces(ctx, BraidWord(2, (-1, -1)), np.stack([np.full(n, a), np.arange(n)], 1))
        for a in range(n)
    )
    word = parse_braid(modular.WHITEHEAD_WORD, 3)
    info = closure_structure(word)
    is_doubled = np.isin(np.arange(1, 4), max(info.components, key=len))
    colorings = (np.where(is_doubled, a, np.arange(n)[:, None]) for a in range(n))
    v_rows = (dense_traces(ctx, word, c, zero_framing_shifts(ctx, info, c)) for c in colorings)
    return _bytes_value_ids(ctx.root_order, s_rows), _bytes_value_ids(ctx.root_order, v_rows)


def _reference_w(md, wm):
    """W keyed the reference way: each row of V's lifts rolled by
    -(t_a + t_b), keyed into the table of S."""
    t, lifts = wm.twist_exps, modular._lift(wm.v_values, wm.root_order)
    rows = (
        np.stack([np.roll(lift, -(t[a] + tb)) for lift, tb in zip(lifts[wm.v_ids[a]], t)])
        for a in range(len(t))
    )
    index = {v.tobytes(): i for i, v in enumerate(md.s_values)}
    return _bytes_value_ids(md.root_order, rows, index)


def _reference_v(md, wm):
    """V keyed the reference way: each row of V's lifts keyed into the
    table of S."""
    lifts = modular._lift(wm.v_values, wm.root_order)
    index = {v.tobytes(): i for i, v in enumerate(md.s_values)}
    return _bytes_value_ids(md.root_order, (lifts[row] for row in wm.v_ids), index)


def _reference_galois_image_ids(order, values, f, index):
    image = np.zeros((len(values), order), dtype=np.int64)
    image[:, f * np.arange(values.shape[1]) % order] = values
    ids, table = _bytes_value_ids(order, [image], index)
    return ids[0], table


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


KEYING_CASES = [((11, 5, 4), u) for u in range(5)] + [((7, 3, 2), u) for u in range(3)]
KEYING_CASES += [((13, 3, 3), u) for u in range(3)]


@pytest.mark.parametrize("group, u", KEYING_CASES)
def test_keying_matches_the_bytes_reference(group, u, md_u, wm_u):
    """S and V ids and tables, keyed exactly and walked in blocks of
    colorings, and V keyed into the table of S by `theory_data`, are
    byte-identical to the bytes-dict keying of one trace per row."""
    params = CocycleParams(GroupSpec(*group), u)
    flagship = group == (11, 5, 4)
    md = md_u(u) if flagship else modular.modular_data(params)
    wm = wm_u(u) if flagship else modular.w_matrix(params)
    (s_ids, s_values), (v_ids, v_values) = _reference_ids(params)
    _assert_same(md.s_ids, s_ids)
    _assert_same(md.s_values, s_values)
    _assert_same(wm.v_ids, v_ids)
    _assert_same(wm.v_values, v_values)
    data = modular.theory_data(md, wm)
    w_keys, values = _reference_v(md, wm)
    _assert_same(data.w_keys, w_keys)
    _assert_same(data.values, values)
    _assert_same(data.s_keys, md.s_ids)
    assert len(data.values) <= len(md.s_values) + len(wm.v_values)


def _relabelled(data, sigma):
    """data with its objects in the order sigma."""
    grid = np.ix_(sigma, sigma)
    return dataclasses.replace(
        data,
        labels=tuple(data.labels[i] for i in sigma),
        dims=data.dims[sigma],
        t_keys=data.t_keys[sigma],
        s_keys=data.s_keys[grid],
        w_keys=data.w_keys[grid],
    )


@pytest.mark.parametrize("group", [(11, 5, 4), (7, 3, 2), (13, 3, 3)])
def test_search_on_v_decides_w(group, md_u, wm_u):
    """For every pair u1 < u2, and for each theory against a relabelled
    copy of itself (unit fixed), the search on the V ids gives the
    verdict of the search on the W ids keyed the reference way, and each
    witness maps those W ids onto themselves: a bijection that preserves
    T maps W = V / (theta_a theta_b) onto itself exactly when it maps V."""
    spec = GroupSpec(*group)
    flagship = group == (11, 5, 4)
    theories = []
    for u in range(spec.p):
        params = CocycleParams(spec, u)
        md = md_u(u) if flagship else modular.modular_data(params)
        wm = wm_u(u) if flagship else modular.w_matrix(params)
        data = modular.theory_data(md, wm)
        w_keys, values = _reference_w(md, wm)
        theories.append((data, dataclasses.replace(data, w_keys=w_keys, values=values)))
    n = len(theories[0][0].labels)
    sigma = np.concatenate(([0], 1 + np.random.default_rng(5).permutation(n - 1)))
    pairs = list(itertools.combinations(theories, 2))
    pairs += [(pair, tuple(_relabelled(d, sigma) for d in pair)) for pair in theories]
    witnesses = 0
    for (v1, w1), (v2, w2) in pairs:
        on_v = modular.equivalence_search(v1, v2)
        assert on_v.equivalent == modular.equivalence_search(w1, w2).equivalent
        if on_v.equivalent:
            witnesses += 1
            assert _witness_respects_data(w1, w2, on_v.permutation, True, list(range(n)))
    assert witnesses >= spec.p


def test_conjugates_build_no_context(monkeypatch):
    """At (7, 3, 2), `galois_classes` builds the context of u = 1 only
    (u = 0 is placed by the group's twists), and `distinguish --u 0 2`
    adds that of u = 0, on one build of the group's tables: the
    conjugate u = 2 reads its labels, dims and target twists from the
    group's tables."""
    built, groups = [], []

    class Recorded(double.DoubleContext):
        def __init__(self, params):
            built.append(params.u)
            super().__init__(params)

    class RecordedGroup(double.GroupTables):
        def __init__(self, spec):
            groups.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(double, "DoubleContext", Recorded)
    monkeypatch.setattr(double, "GroupTables", RecordedGroup)
    spec = GroupSpec(7, 3, 2)
    double.group_for.cache_clear()
    context_for.cache_clear()
    modular.galois_classes(modular.modular_data(CocycleParams(spec, 1)), True)
    assert built == [1]
    assert cli.main(["distinguish", "--u", "0", "2", "--q", "7", "--p", "3", "--n", "2"]) == 0
    assert built == [1, 0]
    assert groups == [spec]
    assert context_for.cache_info().currsize == 2


@pytest.mark.parametrize(
    "group", [(11, 5, 4), (7, 3, 2), (13, 3, 3), (7, 3, 4), (7, 2, 6), (5, 2, 4)]
)
def test_galois_conjugate_s_ids_equal_the_mapped_reference(group, theory_u):
    """The permutation route against the mapped one, for every u (at
    p = 2, u = 1 and f = 1 only): each conjugate's S ids, theory 1's own
    ids permuted by the certified pi_f, equal the ids of sigma_f of every
    value of theory 1, mapped and keyed the bytes-dict way into theory
    1's table, at the relabelled entries; its V values equal the mapped
    values there too.  Every image is a value of theory 1 here, so each
    conjugate shares theory 1's table."""
    spec = GroupSpec(*group)
    base = CocycleParams(spec, 1)
    d1 = theory_u(1, True) if group == (11, 5, 4) else _built_theory(base)
    index = {v.tobytes(): i for i, v in enumerate(d1.values)}
    for u in range(1, spec.p):
        conj = modular.galois_conjugate(d1, base, u)
        f, _, _, source = modular._galois_map(d1.md, u)
        ids, table = _reference_galois_image_ids(d1.root_order, d1.values, f, dict(index))
        grid = np.ix_(source, source)
        assert conj.values is d1.values and len(table) == len(d1.values)
        _assert_same(conj.s_keys, ids[d1.s_keys[grid]])
        assert np.array_equal(conj.values[conj.w_keys], table[ids[d1.w_keys[grid]]])


@pytest.mark.parametrize("group", [(7, 3, 2), (7, 2, 6)])
def test_galois_classes_refuse_an_asymmetric_s(group):
    """S-tilde made asymmetric, as in `test_galois_check_catches_an_asymmetric_s`:
    `galois_classes` raises the Galois check's error and returns no
    classes, with or without W, also at p = 2, where no conjugate is
    built."""
    md = modular.modular_data(CocycleParams(GroupSpec(*group), 1))
    b, c = next(
        (b, c)
        for b, c in itertools.combinations(range(1, md.n_objects), 2)
        if md.dims[b] == md.dims[c]
    )
    ids = md.s_ids.copy()
    ids[:, [b, c]] = ids[:, [c, b]]
    md = dataclasses.replace(md, s_ids=ids)
    for with_w in (False, True):
        with pytest.raises(ArithmeticError, match="S-tilde is not symmetric"):
            modular.galois_classes(md, with_w)


def test_distinguish_maps_s_values_only_in_the_galois_check(monkeypatch, capsys, md_u, wm_u):
    """`distinguish --all` at the flagship calls `galois_permutation` 2
    times, for the two generators of (Z/275)^x (the Galois check, which
    composes pi_-1 from theirs), and passes S's table to `map_exponents`
    nowhere else: every
    value it maps outside the check is a value of V, and none of the 42
    values of S that are not values of V (4 of V's 15 values are) is."""
    s_values = {v.tobytes() for v in md_u(1).s_values}
    v_values = {v.tobytes() for v in wm_u(1).v_values}
    calls, inside, mapped = [], [], []
    permutation, real_map = modular.ModularData.galois_permutation, modular.map_exponents

    def counted(self, f):
        calls.append(f)
        inside.append(f)
        try:
            return permutation(self, f)
        finally:
            inside.pop()

    def spy(order, values, *args, **kwargs):
        if not inside:
            mapped.extend(row.tobytes() for row in np.asarray(values, dtype=np.int64))
        return real_map(order, values, *args, **kwargs)

    monkeypatch.setattr(modular.ModularData, "galois_permutation", counted)
    monkeypatch.setattr(modular, "map_exponents", spy)
    assert cli.main(["distinguish", "--all"]) == 0
    assert capsys.readouterr().out.endswith("{u=0}  {u=1}  {u=2}  {u=3}  {u=4}\n")
    assert calls == [g for g, _ in modular._unit_generators(275)] and len(calls) == 2
    assert len(s_values - v_values) == 42
    assert mapped and set(mapped) <= v_values and not set(mapped) & (s_values - v_values)


class _SRows:
    """Clasp rows whose V is S-tilde itself, walked on demand as
    `modular._ClaspRows` walks V.  sigma_f permutes the rows of S~ (the
    Galois check), so with this V theory 1 and its conjugate by sigma_h
    are equivalent under (S, T, V) exactly when they are under (S, T)."""

    def __init__(self, md):
        self.md = md
        self.keyer = self  # V's table: the values of S~
        self.walked = np.zeros(md.n_objects, dtype=bool)

    def table(self, start=0):
        return self.md.s_values[start:]

    def rows(self, objects):
        self.walked[objects] = True
        return self.md.s_ids[objects]

    def matrix(self):
        return types.SimpleNamespace(v_ids=self.md.s_ids, v_values=self.md.s_values)


def test_row_search_maps_v_by_sigma_f(md_u):
    """With V = S~ (`_SRows`), the row walk against sigma_h(theory 1)
    gives the (S, T) verdict for every h, equivalent at h = 4: it finds
    an image for every object only because it maps V's values by
    sigma_f, as the conjugate's rows of V are theory 1's rows mapped.
    A walk that compared theory 1's rows unmapped would find none."""
    md = md_u(1)
    one = modular.theory_data(md)
    verdicts = []
    for h in range(1, 5):
        st = modular.equivalence_search(one, modular.galois_conjugate(one, md.params, h))
        rows = _SRows(md)
        result = modular._row_search(one, rows, md.params, h)
        assert result.equivalent == st.equivalent, h
        verdicts.append(result.equivalent)
        if result.equivalent:
            assert rows.walked.all()
    assert verdicts == [True, False, False, True]


def test_ids_are_unchanged_in_small_blocks(monkeypatch):
    """S and V walked in blocks of 7 colorings, with the new rows of each
    block reduced 3 at a time, so that equal rows recur across many
    blocks: the same ids and tables as in the default blocks."""
    params = CocycleParams(GroupSpec(7, 3, 2), 1)
    expected_md, expected_wm = modular.modular_data(params), modular.w_matrix(params)
    monkeypatch.setattr(modular, "_TRACE_BLOCK", 7)
    monkeypatch.setattr(modular, "_REDUCE_BLOCK", 3)
    md, wm = modular.modular_data(params), modular.w_matrix(params)
    _assert_same(md.s_ids, expected_md.s_ids)
    _assert_same(md.s_values, expected_md.s_values)
    _assert_same(wm.v_ids, expected_wm.v_ids)
    _assert_same(wm.v_values, expected_wm.v_values)


def _bins(order, bins=()):
    """One histogram of order bins, with count c at bin e for each (e, c)."""
    h = np.zeros(order, dtype=np.int64)
    for e, c in bins:
        h[e] = c
    return h


def _keying_case(case, order):
    """Blocks of histograms that `_value_ids` must key apart or together,
    and the ids it must give."""
    empty, one = _bins(order), _bins(order, [(3, 1)])
    if case == "empty row":  # a coloring with no fixed tuple
        return [[empty, one, empty], [one, empty]], [0, 1, 0, 1, 0]
    if case == "prefix":  # the pairs of `short` lead those of `long`
        short, long = _bins(order, [(1, 1)]), _bins(order, [(1, 1), (5, 2)])
        return [[long, short, long], [short], [long, short]], [0, 1, 0, 1, 0, 1]
    if case == "counts differ":  # equal exponents
        x, y = _bins(order, [(0, 1), (1, 1)]), _bins(order, [(0, 1), (1, 2)])
        return [[x, y], [y, x]], [0, 1, 1, 0]
    if case == "two widths":  # one row among rows of one pair, then among rows of three
        wide = _bins(order, [(0, 1), (2, 1), (4, 1)])
        return [[one], [wide, one, wide]], [0, 1, 0, 1]
    # "one value": two distinct rows with the value 0, the empty row and
    # the sum of all order-th roots of unity
    return [[empty, np.ones(order, dtype=np.int64)], [np.ones(order, dtype=np.int64)]], [0, 0, 0]


@pytest.mark.parametrize(
    "case", ["empty row", "prefix", "counts differ", "two widths", "one value"]
)
def test_value_ids_key_rows_exactly(case):
    """Sparse rows, from a generator of blocks of different widths, get
    one id per exact value, in order of first occurrence: the ids and
    table of the bytes-dict reference keying of all the rows at once."""
    order = 63
    hists, expected = _keying_case(case, order)
    ids, values = modular._value_ids(order, (_sparse(block) for block in hists))
    assert ids.tolist() == expected
    ref_ids, ref_values = _bytes_value_ids(order, [np.concatenate(hists).reshape(-1, order)])
    _assert_same(ids, ref_ids[0])
    _assert_same(values, ref_values)


def test_value_ids_of_no_rows():
    """No blocks, and a block of no rows, give no ids and an empty table
    of phi(order) columns; an empty block among others changes no id."""
    order = 63
    empty_block = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    for blocks in ([], [empty_block], iter([empty_block, empty_block])):
        ids, values = modular._value_ids(order, blocks)
        assert ids.shape == (0,) and ids.dtype == np.int32
        assert values.shape == (0, euler_phi(order)) and values.dtype == np.int64
    hists, expected = _keying_case("prefix", order)
    blocks = [_sparse(block) for block in hists]
    ids, values = modular._value_ids(order, [empty_block, blocks[0], empty_block, *blocks[1:]])
    assert ids.tolist() == expected
    _assert_same(values, modular._value_ids(order, blocks)[1])


@pytest.mark.parametrize("bad", [-1, 49, 2.5])
def test_index_of_refuses_invalid_object_indices(md_u, wm_u, bad):
    """`ModularData.index_of` and `WMatrix.index_of` take labels and ints
    in range(49) only: -1 would read the last object and 2.5 object 2."""
    for table in (md_u(1), wm_u(1)):
        assert table.index_of(table.labels[-1]) == table.index_of(48) == 48
        assert table.index_of(np.int64(3)) == 3
        with pytest.raises(ValueError, match=f"range\\(49\\), got {bad!r}"):
            table.index_of(bad)
    with pytest.raises(ValueError, match="got -1"):
        md_u(1).twist(-1)
    with pytest.raises(ValueError, match="got 2.5"):
        wm_u(1).v_entry(2.5, 0)
