"""The eleven-point acceptance suite for the exact twisted-double engine
at (q, p, n) = (11, 5, 4).

Each criterion is one test that prints a single verdict line with its
elapsed time (visible under `pytest -s` or `-rA`); the `-v` listing
itself gives one PASS/FAIL line per criterion.  Every assertion is an
exact equality of cyclotomic integers or integer data.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from stw import modular
from stw.braid import BraidWord, framed_invariant, parse_braid, representation_operator
from stw.braid import zero_framed_invariant
from stw.cocycle import CocycleParams, cocycle_identity_holds, projective_character, theta
from stw.cyclotomic import CycloNumber, root_of_unity
from stw.double import basis_flux, context_for, enumerate_simples, sigma_action
from stw.group import GroupElement, multiply
from stw.quandle import single_color_check

# Frozen twist tables: the B_k_s twist is zeta_25 to the power listed at
# [u][k][s]; A_l_m twists are zeta_11^(l*m); I twists are 1.
B_TWISTS = {
    0: {1: (0, 5, 10, 15, 20), 2: (0, 10, 20, 5, 15),
        3: (0, 15, 5, 20, 10), 4: (0, 20, 15, 10, 5)},
    1: {1: (1, 6, 11, 16, 21), 2: (4, 14, 24, 9, 19),
        3: (9, 24, 14, 4, 19), 4: (16, 11, 6, 1, 21)},
    2: {1: (2, 7, 12, 17, 22), 2: (8, 18, 3, 13, 23),
        3: (18, 8, 23, 13, 3), 4: (7, 2, 22, 17, 12)},
    3: {1: (3, 8, 13, 18, 23), 2: (12, 22, 7, 17, 2),
        3: (2, 17, 7, 22, 12), 4: (23, 18, 13, 8, 3)},
    4: {1: (4, 9, 14, 19, 24), 2: (16, 1, 11, 21, 6),
        3: (11, 1, 16, 6, 21), 4: (14, 9, 4, 24, 19)},
}

ORACLE_BRAIDS = {
    "unknot": BraidWord(1, ()),
    "hopf": BraidWord(2, (1, 1)),
    "trefoil": BraidWord(2, (1, 1, 1)),
    "figure_eight": parse_braid("s1 s2^-1 s1 s2^-1", 3),
    "borromean": parse_braid("s2 s1^-1 s2 s1^-1 s2 s1^-1", 3),
    "clasp": parse_braid(modular.WHITEHEAD_WORD, 3),
}


def _verdict(number: int, ok: bool, text: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} {status} ({time.monotonic() - started:5.1f}s): {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_enumeration(params_u, md_u):
    started = time.monotonic()
    simples = enumerate_simples(params_u(1))
    kinds = Counter(s.label.split("_")[0] for s in simples)
    dims = Counter(s.dim for s in simples)
    md = md_u(1)
    fixed = [a for a in range(md.n_objects) if md.dual[a] == a]
    ok = (
        len(simples) == 49
        and kinds == {"I": 7, "A": 22, "B": 20}
        and dims == {1: 5, 5: 24, 11: 20}
        and md.total_dim == 55
        and sum(1 for s in simples if s.dim == 1) == 5
        and fixed == [0]
    )
    _verdict(1, ok, "49 simples (7 I, 22 A, 20 B); dims 1x5, 5x24, 11x20;"
             " D=55; 5 abelian; one self-dual", started)


def test_criterion_02_twist_tables(params_u):
    started = time.monotonic()
    failures = 0
    for u in range(5):
        diag = modular.t_matrix(params_u(u))
        simples = enumerate_simples(params_u(u))
        for value, simple in zip(diag, simples):
            parts = simple.label.split("_")
            if parts[0] == "I":
                expected = CycloNumber.one()
            elif parts[0] == "A":
                expected = root_of_unity(int(parts[1]) * int(parts[2]), 11)
            else:
                expected = root_of_unity(B_TWISTS[u][int(parts[1])][int(parts[2])], 25)
            failures += value != expected
    _verdict(2, failures == 0,
             "T matches the frozen twist tables, 49 objects x 5 theories", started)


def test_criterion_03_central_charge(params_u):
    started = time.monotonic()
    ok = True
    for u in range(5):
        ctx = context_for(params_u(u))
        acc = CycloNumber.zero(ctx.root_order)
        for i, simple in enumerate(ctx.simples):
            term = root_of_unity(ctx.tables[i].twist_exp, ctx.root_order)
            acc = acc + term * (simple.dim * simple.dim)
        ok = ok and acc == 55
    _verdict(3, ok, "(1/55) sum d^2 theta = 1 exactly for every u", started)


def test_criterion_04_modularity(md_u):
    started = time.monotonic()
    ok = True
    for u in range(5):
        report = modular.modularity_report(md_u(u))
        ok = ok and report.all_passed and report.self_dual_count == 1
    _verdict(4, ok, "S unitary; S^2 one-fixed-point permutation; (ST)^3 = S^2;"
             " fusion rules nonnegative integers; dim homomorphism; all u", started)


def test_criterion_05_w_identities(wm_u):
    started = time.monotonic()
    ok = True
    for u in range(5):
        report = modular.w_identities(wm_u(u))
        ok = ok and report.all_passed
    _verdict(5, ok, "W symmetric and both duality identities exact,"
             " all 49^2 pairs, all u", started)


def test_criterion_06_ba_block_formula(wm_u):
    started = time.monotonic()
    checked = 0
    ok = True
    for u in range(5):
        good, failures = modular.ba_block_formula_report(wm_u(u))
        ok = ok and good
        checked += 20 * 22 - len(failures)
    _verdict(6, ok and checked == 2200,
             "closed formula on the (B, A) block, 2200 entries exact", started)


def test_criterion_07_distinguishing(md_u, theory_u):
    started = time.monotonic()
    st_classes, stw_classes = modular.galois_classes(md_u(1), True)
    cert = modular.obstruction_certificate(theory_u(1, True), theory_u(4, True))
    ok = (
        st_classes == [("u=0",), ("u=1", "u=4"), ("u=2", "u=3")]
        and stw_classes == [("u=0",), ("u=1",), ("u=2",), ("u=3",), ("u=4",)]
        and cert.t_allowed == ("A_1_4", "A_2_2")
        and cert.w_required == ("A_1_1", "A_2_6")
        and cert.compatible == ()
    )
    _verdict(7, ok, "(S,T) gives classes {0},{1,4},{2,3}; (S,T,W) gives five"
             " singletons; pinned obstruction at A_1_4", started)


def test_criterion_08_quandle_oracle(params_u):
    started = time.monotonic()
    failures = 0
    counts = {}
    for u in range(5):
        params = params_u(u)
        for name, word in ORACLE_BRAIDS.items():
            for k in range(1, 5):
                for s in range(5):
                    report = single_color_check(params, word, k, s)
                    failures += not report.ok
                    counts[(name, k)] = report.count
    borromean_ok = all(counts[("borromean", k)] == 11 for k in range(1, 5))
    figure_ok = [counts[("figure_eight", k)] for k in range(1, 5)] == [11, 121, 121, 11]
    _verdict(8, failures == 0 and borromean_ok and figure_ok,
             "framed trace = twist^writhe x coloring count for six closures,"
             " all (k, s, u); pinned counts", started)


def test_criterion_09_two_strand_closures(params_u, md_u):
    started = time.monotonic()
    params, md = params_u(1), md_u(1)
    failures = 0
    for n in range(4):
        even_word = BraidWord(2, (1,) * (2 * n))
        for a in range(md.n_objects):
            for b in range(md.n_objects):
                closed = modular.two_strand_closure(md, a, b, n, "even")
                engine = framed_invariant(params, even_word, [md.labels[a], md.labels[b]])
                failures += closed != engine
        odd_word = BraidWord(2, (1,) * (2 * n + 1))
        for a in range(md.n_objects):
            closed = modular.two_strand_closure(md, a, a, n, "odd")
            engine = framed_invariant(params, odd_word, [md.labels[a]] * 2)
            failures += closed != engine
    _verdict(9, failures == 0, "sigma_1^(2n) on all pairs and sigma_1^(2n+1)"
             " on all colors, n <= 3, equal the closed forms", started)


def test_criterion_10_property_suites(params_u, spec):
    started = time.monotonic()
    failures = 0
    b = lambda m, l=0: GroupElement(l % 11, m % 5)

    # 3-cocycle identity, exhaustive over the Z_p parts, every u.
    for u in range(5):
        params = params_u(u)
        for gm, hm, km, lm in itertools.product(range(5), repeat=4):
            failures += not cocycle_identity_holds(
                params, b(gm, 1), b(hm, 4), b(km), b(lm, 9)
            )

    # Projectivity of the centralizer characters, exhaustive, every u.
    for u in range(5):
        params = params_u(u)
        for k in range(1, 5):
            t = b(k)
            for s in range(5):
                for i, j in itertools.product(range(5), repeat=2):
                    x, y = b(i), b(j)
                    lhs = projective_character(params, t, s, x) * projective_character(params, t, s, y)
                    rhs = theta(params, t, x, y) * projective_character(
                        params, t, s, multiply(spec, x, y)
                    )
                    failures += lhs != rhs

    # Braid relations as operator identities on sampled color triples.
    triples = [
        ("B_1_0", "A_1_4", "B_2_1"),
        ("A_1_1", "B_3_2", "I_5"),
        ("B_4_4", "B_1_2", "B_2_0"),
    ]
    left = BraidWord(3, (1, 2, 1))
    right = BraidWord(3, (2, 1, 2))
    for u in range(5):
        params = params_u(u)
        for colors in triples:
            lhs = representation_operator(params, left, list(colors))
            rhs = representation_operator(params, right, list(colors))
            failures += lhs != rhs

    # Markov stabilization invariance of the zero-framed invariant.
    base = parse_braid("s1^2 s1", 2)
    for u in (0, 1, 3):
        params = params_u(u)
        for color in ("B_1_0", "A_1_4", "I_5"):
            plain = zero_framed_invariant(params, base, [color] * 2)
            for sign in (2, -2):
                stabilized = BraidWord(3, base.letters + (sign,))
                value = zero_framed_invariant(params, stabilized, [color] * 3)
                failures += value != plain

    # Flux-grading conservation of the braiding on basis states.
    for u in (1, 3):
        params = params_u(u)
        ctx = context_for(params)
        for X, Y in (("B_1_0", "B_2_3"), ("A_1_4", "B_1_0"), ("I_5", "B_3_3")):
            dim_x = ctx.tables[ctx.index_of(X)].dim
            dim_y = ctx.tables[ctx.index_of(Y)].dim
            for bx, by in itertools.product(range(0, dim_x, 3), range(0, dim_y, 3)):
                fx = basis_flux(params, X, bx)
                fy = basis_flux(params, Y, by)
                _, (by2, bx2) = sigma_action(params, (X, Y), (bx, by))
                ok = multiply(spec, fx, fy) == multiply(
                    spec, basis_flux(params, Y, by2), basis_flux(params, X, bx2)
                )
                failures += not ok

    _verdict(10, failures == 0, "cocycle identity, projectivity, braid"
             " relations, Markov moves, flux conservation: zero failures", started)


def test_criterion_11_lens_spaces(md_u):
    started = time.monotonic()
    ok = True
    for u in range(5):
        md = md_u(u)
        ok = ok and modular.lens_space_invariant(md, 0, 1) == 1
        ok = ok and modular.lens_space_invariant(md, 1, 1) == CycloNumber.from_rational(
            Fraction(1, 55)
        )
    for u in (1, 3):
        md = md_u(u)
        for p, q in [(5, 1), (5, 2)]:
            fold = modular.lens_space_invariant(md, p, q)
            chain = modular.lens_space_via_chain_braid(md, p, q)
            ok = ok and fold == chain
    _verdict(11, ok, "L(0,1)=1 and L(1,1)=1/55 for all u; L(5,1), L(5,2)"
             " agree between the surgery formula and the chain-braid route", started)
