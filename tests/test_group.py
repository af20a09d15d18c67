"""Group structure of Z_11 x| Z_5 (and friends): pinned facts and laws."""

import hashlib

import numpy as np
import pytest

from stw.cyclotomic import CycloNumber, root_of_unity
from stw.group import (
    ConjClassInfo,
    GroupData,
    GroupElement,
    GroupSpec,
    centralizer_character,
    conjugacy_data,
    identity,
    inverse,
    irreps_of_G,
    multiply,
)

SPEC = GroupSpec(11, 5, 4)


def act(spec, g, point):
    """Left translation in coordinates: the faithful action used as an
    independent oracle for the multiplication rule."""
    x, y = point
    return ((g.l + spec.n_pow(g.m) * x) % spec.q, (g.m + y) % spec.p)


def test_spec_validation():
    GroupSpec(11, 5, 4)
    GroupSpec(11, 5, 3)  # 3 also has order 5 mod 11
    GroupSpec(7, 3, 2)
    with pytest.raises(ValueError):
        GroupSpec(11, 5, 2)  # order of 2 mod 11 is 10, not 5
    with pytest.raises(ValueError):
        GroupSpec(10, 5, 4)  # q not prime
    with pytest.raises(ValueError):
        GroupSpec(11, 3, 4)  # 3 does not divide 10
    with pytest.raises(ValueError):
        GroupSpec(11, 5, 1)


def test_multiplication_pinned_values():
    assert multiply(SPEC, GroupElement(1, 1), GroupElement(1, 0)) == GroupElement(5, 1)
    assert multiply(SPEC, GroupElement(1, 1), GroupElement(8, 4)) == GroupElement(0, 0)
    assert inverse(SPEC, GroupElement(1, 1)) == GroupElement(8, 4)
    # b a b^-1 = a^n
    b = GroupElement(0, 1)
    a = GroupElement(1, 0)
    conj = multiply(SPEC, multiply(SPEC, b, a), inverse(SPEC, b))
    assert conj == GroupElement(SPEC.n % SPEC.q, 0)


def test_multiplication_against_action_oracle():
    points = [(x, y) for x in range(SPEC.q) for y in range(SPEC.p)]
    elements = [GroupElement(l, m) for l in range(SPEC.q) for m in range(SPEC.p)]
    for g in elements:
        for h in elements:
            gh = multiply(SPEC, g, h)
            for pt in points[:5]:
                assert act(SPEC, gh, pt) == act(SPEC, g, act(SPEC, h, pt))


def test_group_axioms_exhaustive():
    data = GroupData(SPEC)
    mt = data.mult_table
    order = SPEC.order
    # associativity over all 55^3 triples, vectorized
    left = mt[mt, :]  # (g,h,k) -> (g h) k
    right = mt[:, mt]  # (g,h,k) -> g (h k)
    assert np.array_equal(left, right)
    e = data.index(identity(SPEC))
    assert np.array_equal(mt[e], np.arange(order))
    assert np.array_equal(mt[:, e], np.arange(order))
    assert np.array_equal(mt[np.arange(order), data.inv_table], np.full(order, e))


def test_tables_match_element_operations():
    data = GroupData(SPEC)
    for gi in range(SPEC.order):
        g = data.element(gi)
        assert data.index(g) == gi
        assert data.inv_table[gi] == data.index(inverse(SPEC, g))
        for hi in range(0, SPEC.order, 7):
            h = data.element(hi)
            assert data.mult_table[gi, hi] == data.index(multiply(SPEC, g, h))


def test_conjugacy_classes_pinned_structure():
    classes = conjugacy_data(SPEC)
    assert len(classes) == 7
    assert classes[0].representative == GroupElement(0, 0)
    assert classes[0].members == (GroupElement(0, 0),)
    assert len(classes[0].centralizer) == 55

    a_class_1 = classes[1]
    assert a_class_1.representative == GroupElement(1, 0)
    assert sorted(m.l for m in a_class_1.members) == [1, 3, 4, 5, 9]
    a_class_2 = classes[2]
    assert a_class_2.representative == GroupElement(2, 0)
    assert sorted(m.l for m in a_class_2.members) == [2, 6, 7, 8, 10]
    for cls in (a_class_1, a_class_2):
        assert len(cls.centralizer) == 11
        assert all(x.m == 0 for x in cls.centralizer)

    for k in range(1, 5):
        cls = classes[2 + k]
        assert cls.representative == GroupElement(0, k)
        assert len(cls.members) == 11
        assert all(m.m == k for m in cls.members)
        assert sorted(m.l for m in cls.members) == list(range(11))
        assert len(cls.centralizer) == 5


def test_class_members_match_coset_representatives():
    for spec in (SPEC, GroupSpec(7, 3, 2)):
        for cls in conjugacy_data(spec):
            assert cls.coset_reps[0] == GroupElement(0, 0)
            assert len(cls.coset_reps) == len(cls.members)
            for r, member in zip(cls.coset_reps, cls.members):
                conj = multiply(
                    spec, multiply(spec, r, cls.representative), inverse(spec, r)
                )
                assert conj == member
            # centralizer actually centralizes the representative
            for x in cls.centralizer:
                left = multiply(spec, x, cls.representative)
                right = multiply(spec, cls.representative, x)
                assert left == right
            assert len(cls.members) * len(cls.centralizer) == spec.order


def test_classes_partition_the_group():
    seen = set()
    for cls in conjugacy_data(SPEC):
        for m in cls.members:
            assert m not in seen
            seen.add(m)
    assert len(seen) == 55


def test_centralizer_character_values():
    classes = conjugacy_data(SPEC)
    a_cls = classes[1]
    b_cls = classes[3]
    # Z_11 centralizer: a^l -> zeta_11^(l * index)
    assert centralizer_character(SPEC, a_cls, 3, GroupElement(2, 0)) == root_of_unity(6, 11)
    # Z_5 centralizer: b^k -> zeta_5^(k * index)
    assert centralizer_character(SPEC, b_cls, 2, GroupElement(0, 3)) == root_of_unity(6, 5)
    with pytest.raises(ValueError):
        centralizer_character(SPEC, a_cls, 1, GroupElement(0, 1))
    with pytest.raises(ValueError):
        centralizer_character(SPEC, b_cls, 1, GroupElement(1, 0))
    with pytest.raises(ValueError):
        centralizer_character(SPEC, classes[0], 1, GroupElement(1, 0))


def test_irreps_inventory():
    reps = irreps_of_G(SPEC)
    assert len(reps) == 7
    assert [r.dim for r in reps] == [1, 1, 1, 1, 1, 5, 5]
    assert sum(r.dim**2 for r in reps) == 55
    assert [r.kind for r in reps] == ["linear"] * 5 + ["induced"] * 2
    assert [r.index for r in reps] == [0, 1, 2, 3, 4, 1, 2]


def test_irreps_are_homomorphisms():
    reps = irreps_of_G(SPEC)
    data = GroupData(SPEC)
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, 55, size=(40, 2))
    for rep in reps:
        for gi, hi in pairs:
            g, h = data.element(int(gi)), data.element(int(hi))
            gh = multiply(SPEC, g, h)
            for i in range(rep.dim):
                # column i of rho(g h) vs rho(g) rho(h)
                j, e1 = rep.matrix_entry_exponent(h, i)
                k, e2 = rep.matrix_entry_exponent(g, j)
                k2, e3 = rep.matrix_entry_exponent(gh, i)
                assert k == k2
                lhs = root_of_unity(e1, rep.root_order) * root_of_unity(e2, rep.root_order)
                assert lhs == root_of_unity(e3, rep.root_order)


def test_induced_character_pinned_value():
    # The first induced irrep evaluated on a: the Galois-orbit sum
    # zeta_11 + zeta_11^3 + zeta_11^9 + zeta_11^5 + zeta_11^4.
    rep = irreps_of_G(SPEC)[5]
    expected = CycloNumber.zero(11)
    for j in (1, 3, 9, 5, 4):
        expected = expected + root_of_unity(j, 11)
    assert rep.character(GroupElement(1, 0)) == expected
    # linear characters on b: zeta_5^j
    for j in range(5):
        assert irreps_of_G(SPEC)[j].character(GroupElement(0, 1)) == root_of_unity(j, 5)
        assert irreps_of_G(SPEC)[j].character(GroupElement(4, 0)) == 1


def test_character_row_orthogonality():
    reps = irreps_of_G(SPEC)
    data = GroupData(SPEC)
    elements = [data.element(i) for i in range(55)]
    chars = [[rep.character(g) for g in elements] for rep in reps]
    for i, row_i in enumerate(chars):
        for j, row_j in enumerate(chars):
            total = CycloNumber.zero()
            for vi, vj in zip(row_i, row_j):
                total = total + vi * vj.conjugate()
            assert total == (55 if i == j else 0)


@pytest.mark.parametrize(
    "group, digest",
    [
        ((11, 5, 4), "5e04938aa3680464b3b2bd3985c9a44b69261da05000a94b7d33453445dbdebb"),
        ((19, 3, 7), "eb34316660fa0ec0f54a63d1de06553cdfec7ea1431f2b3f09a8d9df45d200c9"),
    ],
)
def test_irrep_tables_are_pinned(group, digest):
    """The sha256 of the dtype, shape and bytes of every irrep's `perm`
    and `exponents`, in order, equals the digest of the element-by-element
    build that the batched one replaced."""
    h = hashlib.sha256()
    for rep in irreps_of_G(GroupSpec(*group)):
        for table in (rep.perm, rep.exponents):
            h.update(f"{table.dtype.str}{table.shape}".encode())
            h.update(table.tobytes())
    assert h.hexdigest() == digest
