"""Simple objects, twists, and the monomial braiding action."""

import cmath
import itertools
import tracemalloc

import numpy as np
import pytest

from stw.cocycle import CocycleParams, projective_character, theta_exponent, theta_exponent_table
from stw.cyclotomic import CycloNumber, root_of_unity
from stw import double
from stw.double import (
    DoubleContext,
    associator_scalar,
    basis_flux,
    context_for,
    dpr_action,
    enumerate_simples,
    group_for,
    qdim,
    sigma_action,
    sigma_inverse_action,
    twist,
)
from stw.group import GroupElement, GroupSpec, inverse, irreps_of_G, multiply

from conftest import reference_phases

SPEC = GroupSpec(11, 5, 4)
U0 = CocycleParams(SPEC, 0)
U1 = CocycleParams(SPEC, 1)
U4 = CocycleParams(SPEC, 4)


def test_simple_object_inventory():
    simples = enumerate_simples(U1)
    assert len(simples) == 49
    labels = [s.label for s in simples]
    assert labels[:7] == ["I_0", "I_1", "I_2", "I_3", "I_4", "I_5", "I_6"]
    assert labels[7] == "A_1_0" and labels[17] == "A_1_10"
    assert labels[18] == "A_2_0" and labels[28] == "A_2_10"
    assert labels[29] == "B_1_0" and labels[48] == "B_4_4"
    dims = [s.dim for s in simples]
    assert dims[:7] == [1, 1, 1, 1, 1, 5, 5]
    assert all(d == 5 for d in dims[7:29])
    assert all(d == 11 for d in dims[29:])
    assert sum(d * d for d in dims) == 3025  # = (pq)^2
    assert sum(1 for d in dims if d == 1) == 5


def test_enumeration_is_u_independent():
    assert [s.label for s in enumerate_simples(U0)] == [
        s.label for s in enumerate_simples(U4)
    ]


def test_qdim_values():
    simples = enumerate_simples(U1)
    assert qdim(simples[0]) == 1
    assert qdim(simples[5]) == 5
    assert qdim(simples[7]) == 5
    assert qdim(simples[29]) == 11


def test_twist_pinned_values():
    ctx = context_for(U1)

    def th(label, params=U1):
        return twist(params, label)

    for i in range(7):
        assert th(f"I_{i}") == 1
    assert th("A_1_4") == root_of_unity(4, 11)
    assert th("A_2_7") == root_of_unity(14, 11)
    # u = 1: theta(B_k_s) = zeta_25^(5 s k + k^2)
    assert th("B_1_0") == root_of_unity(1, 25)
    assert th("B_2_1") == root_of_unity(14, 25)
    assert th("B_4_4") == root_of_unity(96, 25)
    # u = 0: pure zeta_5 powers
    assert th("B_1_1", U0) == root_of_unity(1, 5)
    assert th("B_3_2", U0) == root_of_unity(6, 5)
    # u = 4
    assert th("B_1_0", U4) == root_of_unity(4, 25)
    assert th("B_2_1", U4) == root_of_unity(1, 25)


def test_twist_exponent_table_against_formula():
    for u in range(5):
        params = CocycleParams(SPEC, u)
        for k in range(1, 5):
            for s in range(5):
                expected = root_of_unity((s * 5 + u * k) * k, 25)
                assert twist(params, f"B_{k}_{s}") == expected


def test_dpr_action_pinned_values():
    # Acting with the flux itself on the first basis vector of B_1_s
    # multiplies by the twist zeta_25^(5 s + u).
    b = GroupElement(0, 1)
    for s in range(5):
        new_basis, coeff = dpr_action(U1, f"B_1_{s}", b, 0)
        assert new_basis == 0
        assert coeff == root_of_unity(5 * s + 1, 25)
    # The identity acts trivially everywhere.
    for label in ("I_5", "A_1_3", "B_2_4"):
        ctx = context_for(U1)
        dim = ctx.tables[ctx.index_of(label)].dim
        for basis in range(dim):
            nb, coeff = dpr_action(U1, label, GroupElement(0, 0), basis)
            assert nb == basis and coeff == 1


def test_dpr_action_composes_like_the_group():
    ctx = context_for(U4)
    gd = ctx.gdata
    params = U4
    cases = [
        ("A_1_2", GroupElement(3, 1), GroupElement(5, 2)),
        ("B_2_1", GroupElement(1, 4), GroupElement(9, 3)),
        ("I_5", GroupElement(2, 0), GroupElement(0, 3)),
        ("B_3_0", GroupElement(7, 2), GroupElement(4, 4)),
    ]
    for label, y1, y2 in cases:
        t = ctx.tables[ctx.index_of(label)]
        hm = t.class_bpart
        y12 = multiply(SPEC, y1, y2)
        for basis in range(t.dim):
            b2, c2 = dpr_action(params, label, y2, basis)
            b1, c1 = dpr_action(params, label, y1, b2)
            bb, cc = dpr_action(params, label, y12, basis)
            assert b1 == bb
            # Projective composition: rho(y1) rho(y2) =
            # theta_flux'(y1, y2) rho(y1 y2) with flux' the flux of the
            # *target* basis vector.
            flux_after = basis_flux(params, label, b1)
            correction = ctx.root(
                ctx.theta_ne(flux_after.m, y1.m, y2.m)
            )
            assert c1 * c2 == correction * cc


def test_dpr_action_permutes_fluxes_by_conjugation():
    params = U1
    for label in ("A_2_5", "B_4_2", "I_6"):
        ctx = context_for(params)
        t = ctx.tables[ctx.index_of(label)]
        for y in (GroupElement(1, 1), GroupElement(6, 3)):
            for basis in range(0, t.dim, 3):
                f0 = basis_flux(params, label, basis)
                nb, _ = dpr_action(params, label, y, basis)
                f1 = basis_flux(params, label, nb)
                expected = multiply(SPEC, multiply(SPEC, y, f0), inverse(SPEC, y))
                assert f1 == expected


def test_sigma_action_on_b_fluxes_is_the_quandle_rule():
    # For pairs (B_k_s, B_k_s) the braiding is
    # |x> |y> -> twist * |(1 - n^k) x + n^k y> |x>, exactly.
    for u, params in ((0, U0), (1, U1), (4, U4)):
        for k, s in ((1, 0), (2, 3), (4, 1)):
            label = f"B_{k}_{s}"
            tw = twist(params, label)
            nk = pow(4, k, 11)
            for x, y in itertools.product(range(0, 11, 3), repeat=2):
                phase, (by2, bx2) = sigma_action(params, (label, label), (x, y))
                assert phase == tw
                assert by2 == ((1 - nk) * x + nk * y) % 11
                assert bx2 == x


def test_sigma_action_pinned_example():
    # u = 0, color B_1_0: c(|0> |1>) = |4> |0> with phase 1.
    phase, (by2, bx2) = sigma_action(U0, ("B_1_0", "B_1_0"), (0, 1))
    assert phase == 1
    assert (by2, bx2) == (4, 0)


def test_sigma_inverse_undoes_sigma():
    color_pairs = [
        ("B_1_0", "B_2_3"),
        ("A_1_4", "B_1_0"),
        ("B_3_2", "A_2_1"),
        ("I_5", "B_1_1"),
        ("A_1_1", "I_6"),
        ("I_0", "B_4_4"),
        ("A_2_2", "A_1_7"),
    ]
    for params in (U0, U1, U4):
        ctx = context_for(params)
        for X, Y in color_pairs:
            dx = ctx.tables[ctx.index_of(X)].dim
            dy = ctx.tables[ctx.index_of(Y)].dim
            for bx, by in itertools.product(range(dx), range(dy)):
                phase, (by2, bx2) = sigma_action(params, (X, Y), (bx, by))
                phase_inv, (bx3, by3) = sigma_inverse_action(params, (X, Y), (by2, bx2))
                assert (bx3, by3) == (bx, by)
                assert phase * phase_inv == 1


def test_sigma_conserves_total_flux():
    params = U1
    ctx = context_for(params)
    for X, Y in (("B_1_0", "B_2_3"), ("A_1_4", "B_1_0"), ("I_5", "B_3_3")):
        tx = ctx.tables[ctx.index_of(X)]
        ty = ctx.tables[ctx.index_of(Y)]
        for bx, by in itertools.product(range(0, tx.dim, 2), range(0, ty.dim, 2)):
            fx = basis_flux(params, X, bx)
            fy = basis_flux(params, Y, by)
            _, (by2, bx2) = sigma_action(params, (X, Y), (bx, by))
            fy2 = basis_flux(params, Y, by2)
            fx2 = basis_flux(params, X, bx2)
            assert multiply(SPEC, fx, fy) == multiply(SPEC, fy2, fx2)


def test_associator_scalar_values():
    b = GroupElement(0, 1)
    b2 = GroupElement(0, 2)
    b4 = GroupElement(0, 4)
    assert associator_scalar(U1, (b2, b4, b)) == root_of_unity(1, 5)
    assert associator_scalar(U1, (b, b, b)) == 1
    assert associator_scalar(U0, (b2, b4, b)) == 1
    assert associator_scalar(U4, (b2, b4, b2)) == root_of_unity(8, 5)
    e = GroupElement(0, 0)
    assert associator_scalar(U4, (e, b4, b)) == 1


@pytest.mark.parametrize(
    "group, u, kinds",
    [((7, 3, 2), 0, "IAB"), ((7, 3, 2), 1, "IAB"), ((7, 3, 2), 2, "IAB"), ((11, 5, 4), 1, "B")],
)
def test_action_tables_match_the_element_formula(group, u, kinds):
    """Rebuild y . |r_i, v> = theta_t'(y, r_i) / theta_t'(r_j, s) pi(s) v,
    with y r_i = r_j s, from group elements, the cocycle and the
    (projective) characters, and compare it with the engine's global
    tables for every group element y and basis vector: the action, and the
    inverse action lowered by theta_t(y, y^-1) that the negative crossing
    uses.  The contexts of u = 1 and then u = 0 (then u) are built afresh
    on the one cached group and stay alive while theory u is checked, so
    a theory whose build wrote into the shared tables would fail."""
    spec = GroupSpec(*group)
    contexts = {v: DoubleContext(CocycleParams(spec, v)) for v in dict.fromkeys((1, 0, u))}
    assert all(ctx.group is group_for(spec) for ctx in contexts.values())
    _check_action_tables(contexts[u], kinds)


def _check_action_tables(ctx, kinds):
    params, spec = ctx.params, ctx.spec
    ne, p = ctx.root_order, spec.p
    elements = [GroupElement(l, m) for l in range(spec.q) for m in range(p)]  # index l p + m
    irreps = irreps_of_G(spec)
    for simple, table in zip(ctx.simples, ctx.tables):
        if simple.label[0] not in kinds:
            continue
        cls = ctx.classes[simple.class_index]
        dim = simple.internal_dim
        split = {
            multiply(spec, r, s): (j, s)
            for j, r in enumerate(cls.coset_reps)
            for s in cls.centralizer
        }
        pi_exps = {}

        def pi(s, v):
            """(target, exponent in zeta_ne units) of pi(s) on internal vector v."""
            if cls.representative == GroupElement(0, 0):
                irrep = irreps[simple.char_index]
                target, e = irrep.matrix_entry_exponent(s, v)
                return target, e * (ne // irrep.root_order)
            if s not in pi_exps:
                value = projective_character(params, cls.representative, simple.char_index, s)
                e = round(cmath.phase(value.to_complex()) / (2 * cmath.pi) * ne) % ne
                assert value == root_of_unity(e, ne)
                pi_exps[s] = e
            return 0, pi_exps[s]

        def act(y, basis):
            i, v = divmod(basis, dim)
            j, s = split[multiply(spec, y, cls.coset_reps[i])]
            flux = cls.members[j]
            target, e = pi(s, v)
            theta = theta_exponent(params, flux.m, y.m, cls.coset_reps[i].m)
            theta -= theta_exponent(params, flux.m, cls.coset_reps[j].m, s.m)
            return j * dim + target, (e + theta * (ne // p)) % ne

        vectors = slice(table.offset, table.offset + table.dim)
        for g, y in enumerate(elements):
            # theory u's phases: the group's table of theory 0 plus u sigma
            over, under = ctx.shift_exp[:, y.m * p + table.class_bpart]
            state = ctx.action_state[g, vectors] - table.offset
            exp = (ctx.crossing_exp[g, vectors] + over) % ne
            inv_state = ctx.inverse_state[g, vectors] - table.offset
            inv_exp = (ctx.crossing_exp[spec.order + g, vectors] + under) % ne
            y_inv = inverse(spec, y)
            norm = theta_exponent(params, cls.representative.m, y.m, y_inv.m) * (ne // p)
            for basis in range(table.dim):
                assert (state[basis], exp[basis]) == act(y, basis)
                target, e = act(y_inv, basis)
                assert (inv_state[basis], inv_exp[basis]) == (target, (e - norm) % ne)


def test_the_build_peaks_at_most_twice_the_tables_it_keeps(monkeypatch):
    """The objects are listed first, so the crossing tables are allocated
    once in their final dtype and each run of objects writes its own
    columns: the traced peak of building the group's tables and the
    context at (43,7,4) (3661 vectors, 8.4 MB of int16 tables) is at most
    twice the bytes of the tables they keep.  The group is built uncached,
    so its build is traced too.  Full-width int64 intermediates took
    about 9x."""
    params = CocycleParams(GroupSpec(43, 7, 4), 1)
    monkeypatch.setattr(double, "group_for", double.GroupTables)
    tracemalloc.start()
    try:
        ctx = DoubleContext(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (ctx.crossing_state.nbytes + ctx.crossing_exp.nbytes)


@pytest.mark.parametrize("bad", [-1, 49, 2.5])
def test_index_of_refuses_invalid_object_indices(bad):
    """An object given by index must be an int in range(49): -1 would count
    from the end and 2.5 truncate to 2; labels, objects and numpy ints
    still resolve."""
    ctx = context_for(U1)
    assert len(ctx.simples) == 49
    with pytest.raises(ValueError, match=f"range\\(49\\), got {bad!r}"):
        ctx.index_of(bad)
    last = ctx.simples[-1]
    assert ctx.index_of(last) == ctx.index_of(last.label) == ctx.index_of(48) == 48
    assert ctx.index_of(np.int64(3)) == 3


# ----- one group's tables for every theory u ---------------------------------

SHARED_GROUPS = [(7, 3, 2), (11, 5, 4), (19, 3, 7)]
SHARED_NAMES = (
    "group", "simples", "dims", "offsets", "flux", "crossing_state", "crossing_exp",
    "action_state", "inverse_state", "flux_row", "inverse_row", "bparts",
)


@pytest.mark.parametrize("group", SHARED_GROUPS)
def test_every_theory_shares_its_group_tables(group):
    """The contexts of every u of a group bind the same objects of the
    group's tables: the simple objects, the offsets, dims and fluxes of
    the vectors, the vector action, the phase table of theory 0 and the
    orbit table.  The phase shifts u sigma, which depend on u, differ
    between any two theories, and each theory's theta table is u times
    the group's."""
    spec = GroupSpec(*group)
    contexts = [context_for(CocycleParams(spec, u)) for u in range(spec.p)]
    first = contexts[0]
    for ctx in contexts:
        assert np.array_equal(ctx.theta_zp, theta_exponent_table(ctx.params))
    for ctx in contexts[1:]:
        for name in SHARED_NAMES:
            assert getattr(ctx, name) is getattr(first, name), (ctx.params.u, name)
        assert ctx.group.orbits is first.group.orbits
    for a, b in itertools.combinations(contexts, 2):
        assert not np.array_equal(a.shift_exp, b.shift_exp), (a.params.u, b.params.u)


def test_the_theories_of_a_group_build_its_tables_once(monkeypatch):
    """The contexts of u = 0..p-1 at (11,5,4) build the group's tables
    once and fill `crossing_state` and `crossing_exp` once (one write per
    run of objects, each reading `_pi` once), not once per theory."""
    built, fills, phases = [], [], []
    init, add_states, pi = double.GroupTables.__init__, double.GroupTables._add_states, double.GroupTables._pi

    def spy(record, method):
        def wrapper(self, arg, *rest):
            record.append(arg)
            return method(self, arg, *rest)

        return wrapper

    monkeypatch.setattr(double.GroupTables, "__init__", spy(built, init))
    monkeypatch.setattr(double.GroupTables, "_add_states", spy(fills, add_states))
    monkeypatch.setattr(double.GroupTables, "_pi", spy(phases, pi))
    group_for.cache_clear()
    context_for.cache_clear()
    contexts = [context_for(CocycleParams(SPEC, u)) for u in range(SPEC.p)]
    runs = contexts[0].group.runs
    assert built == [SPEC]
    assert fills == runs
    assert phases == [ci for _, _, ci in runs]
    assert all(ctx.group is contexts[0].group for ctx in contexts)


def test_shared_arrays_are_read_only():
    """A write into any array that the theories of a group share raises,
    the phase table of theory 0 and sigma included; a context's own
    phase shifts stay writable."""
    ctx = context_for(U1)
    orbits = ctx.group.orbits
    shared = [getattr(ctx, name) for name in SHARED_NAMES[2:]]
    shared += [orbits.stab, orbits.count, orbits.reps, orbits.size, ctx.group.sigma]
    assert any(array is ctx.crossing_exp for array in shared)
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
    assert ctx.shift_exp.flags.writeable


PHASE_GROUPS = [(7, 3, 2), (11, 5, 4), (7, 2, 6), (13, 3, 3), (19, 3, 7), (43, 7, 4)]


@pytest.mark.parametrize("group", PHASE_GROUPS)
def test_the_group_phase_table_plus_u_sigma_is_every_theorys_table(group):
    """Fact 1 of `stw.double`: for every u, theory u's own phase table,
    built from theta and pi at u (`reference_phases`), is the group's one
    table of theory 0 plus u sigma[sign, m, k], with m the Z_p part of
    the acting element and k that of the class of the vector, mod N."""
    spec = GroupSpec(*group)
    tables = group_for(spec)
    tables.write_vectors()
    m = np.tile(tables.gdata.b_part, 2)[:, None]
    sign = np.repeat([0, 1], spec.order)[:, None]
    k = np.repeat(tables.bparts, tables.dims)[None, :]
    sigma = tables.sigma[sign, m, k]
    assert not tables.sigma[:, :, 0].any()  # A and I objects take no shift
    # s_i s_i^-1 = 1 in every theory: the two signs' shifts cancel
    assert not ((tables.sigma[0] + tables.sigma[1]) % tables.root_order).any()
    for u in range(spec.p):
        phases = (tables.crossing_exp + u * sigma) % tables.root_order
        assert np.array_equal(phases, reference_phases(tables, u)), (group, u)


@pytest.mark.parametrize("group", SHARED_GROUPS)
def test_the_group_twist_formula_gives_every_theory_its_twists(group):
    """The group's one twist formula gives, for every u, the context's
    twist exponents, `double.twist`, and the formula zeta_q^(l s) for
    A_l_s, zeta_(p^2)^(k (s p + u k)) for B_k_s and 1 for I_j."""
    spec = GroupSpec(*group)
    p, q = spec.p, spec.q
    tables = group_for(spec)
    for u in range(p):
        params = CocycleParams(spec, u)
        ctx = context_for(params)
        exps = tables.twists(u)
        assert exps.dtype == np.int64 and np.array_equal(exps, ctx.twist_exps)
        for simple, t in zip(ctx.simples, exps.tolist()):
            assert twist(params, simple) == ctx.root(t)
            rep = ctx.classes[simple.class_index].representative
            s = simple.char_index
            expected = root_of_unity(rep.l * s, q) if rep.m == 0 else root_of_unity((s * p + u * rep.m) * rep.m, p * p)
            assert ctx.root(t) == expected, (u, simple.label)
