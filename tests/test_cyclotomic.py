"""Exact cyclotomic arithmetic: pinned values and ring/field laws."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stw.cyclotomic import (
    CycloNumber,
    _INT64_SAFE,
    _division_terms,
    _poly_divide_exact,
    _poly_multiply,
    _radical_table,
    cyclotomic_polynomial,
    euler_phi,
    map_exponents,
    reduce_counts,
    reduce_row,
    root_of_unity,
)


def z(s, n):
    return root_of_unity(s, n)


def test_polynomial_and_totient_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(11) == (1,) * 11
    # Phi_25 = x^20 + x^15 + x^10 + x^5 + 1
    expected_25 = tuple(1 if i % 5 == 0 else 0 for i in range(21))
    assert cyclotomic_polynomial(25) == expected_25
    assert euler_phi(275) == 200
    assert euler_phi(55) == 40


@lru_cache(maxsize=None)
def _recursive_phi(n):
    """Reference: Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, _recursive_phi(d))
    return tuple(poly)


def test_polynomials_at_the_radical_match_the_recursive_definition():
    """Phi_n from the radical of n equals the recursive definition for
    every n <= 400, and the cofactor Psi_n of `_division_terms`
    satisfies Phi_n Psi_n = x^n - 1."""
    for n in range(1, 401):
        modulus = cyclotomic_polynomial(n)
        assert modulus == _recursive_phi(n), n
        phi_terms, psi_terms, _ = _division_terms(n)
        assert phi_terms == tuple((s, c) for s, c in enumerate(modulus[:-1]) if c)
        cofactor = np.zeros(n - euler_phi(n) + 1, dtype=np.int64)
        for t, c in psi_terms:
            cofactor[len(cofactor) - 1 - t] = c
        product = np.convolve(np.array(modulus), cofactor)
        assert product[0] == -1 and product[-1] == 1 and not product[1:-1].any(), n


def test_roots_of_unity_basic_identities():
    assert z(0, 7) == 1
    assert z(1, 2) == -1
    assert z(5, 10) == -1
    assert z(3, 12) * z(9, 12) == 1
    assert z(1, 5) ** 5 == 1
    assert z(7, 11) == z(7 + 11, 11)
    # zeta_4 = i: i^2 = -1
    i = z(1, 4)
    assert i * i == -1


def test_vanishing_root_sums():
    for n in (2, 3, 5, 11, 25):
        total = CycloNumber.zero()
        for j in range(n):
            total = total + z(j, n)
        assert total.is_zero()
    # Partial geometric sum: 1 + zeta_25^5 + ... + zeta_25^20 = 0 (these are
    # the 5th roots of unity inside Q(zeta_25)).
    total = CycloNumber.zero()
    for j in range(5):
        total = total + z(5 * j, 25)
    assert total.is_zero()


def test_cross_order_equality():
    assert z(1, 5) == z(5, 25)
    assert z(2, 11) == z(10, 55)
    assert z(1, 5).lift(275) == z(55, 275)
    a = z(3, 5) + z(7, 11)
    assert a.lift(275) == a
    assert not (z(1, 5) == z(1, 11))


def test_rational_arithmetic_embeds():
    half = CycloNumber.from_rational(Fraction(1, 2))
    third = CycloNumber.from_rational(Fraction(1, 3))
    assert (half + third).as_fraction() == Fraction(5, 6)
    assert (half * third).as_fraction() == Fraction(1, 6)
    assert (half - half).is_zero()
    assert half.is_rational() and not z(1, 5).is_rational()
    assert (half * 2).is_integer()


def test_only_rationals_are_inverted():
    r = CycloNumber.from_rational(Fraction(-2, 3), 275)
    assert r.inverse() == Fraction(-3, 2) and r.inverse().order == 275
    assert (z(3, 275) + z(100, 275)) / 55 * 55 == z(3, 275) + z(100, 275)
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero().inverse()
    for divisor in (1 + z(1, 5), z(13, 275)):
        with pytest.raises(ValueError, match="cannot invert the non-rational value"):
            divisor.inverse()
        with pytest.raises(ValueError, match="cannot invert the non-rational value"):
            CycloNumber.one() / divisor
    with pytest.raises(TypeError):
        1 / z(1, 5)
    with pytest.raises(ValueError, match="negative powers"):
        z(1, 5) ** -1


def test_conjugation_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([5, 11, 25, 55])
        a = sum(
            (rng.randint(-3, 3) * z(rng.randrange(n), n) for _ in range(3)),
            CycloNumber.zero(),
        )
        b = sum(
            (rng.randint(-3, 3) * z(rng.randrange(n), n) for _ in range(3)),
            CycloNumber.zero(),
        )
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a


def test_ring_axioms_on_random_values():
    rng = random.Random(11)
    values = []
    for _ in range(8):
        n = rng.choice([1, 2, 5, 11, 25])
        v = sum(
            (rng.randint(-4, 4) * z(rng.randrange(n), n) for _ in range(2)),
            CycloNumber.from_rational(Fraction(rng.randint(-2, 2), rng.randint(1, 3))),
        )
        values.append(v)
    for a in values[:4]:
        for b in values[2:6]:
            for c in values[4:]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + b == b + a
                assert a * b == b * a


def test_poly_multiply_is_exact_on_both_sides_of_the_int64_bound():
    """`_poly_multiply` convolves in int64 while the product bound holds
    and on object arrays of Python ints once it fails: both give the
    schoolbook product with Python-int coefficients, for small vectors
    scaled by 3**50 and -2**70 and for vectors just below and at the
    bound; and a product of values with such coefficients is exact."""

    def schoolbook(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    rng = random.Random(29)
    half = _INT64_SAFE // 2
    cases = [([half - 1, -(half - 1)], [1, 1]), ([half, -half], [1, 1])]  # below, at the bound
    for length in (1, 4, 20):
        a = [rng.randint(-9, 9) for _ in range(length)]
        b = [rng.randint(-9, 9) for _ in range(length + 3)]
        cases += [(a, b), ([3**50 * c for c in a], b), (a, [-(2**70) * c for c in b])]
    for a, b in cases:
        product = _poly_multiply(tuple(a), tuple(b))
        assert product == schoolbook(a, b) and all(type(c) is int for c in product)
    x, y = 1 + 2 * z(3, 11), 3 - z(7, 11)
    assert (3**50 * x) * (-(2**70) * y) == -(3**50) * 2**70 * (x * y)


def test_power_matches_repeated_multiplication():
    v = 1 + z(2, 11)
    prod = CycloNumber.one()
    for k in range(6):
        assert v**k == prod
        prod = prod * v


def test_float_approximation_respects_exact_values():
    v = z(1, 5) + z(4, 5)
    # 2*cos(2*pi/5) = (sqrt(5) - 1)/2
    assert abs(v.to_complex() - (5**0.5 - 1) / 2) < 1e-12
    assert abs(z(1, 275).to_complex() - complex(2.718281828**0j)) > 0  # smoke
    assert abs(z(137, 275).to_complex()) == pytest.approx(1.0, abs=1e-12)


def test_from_root_counts_matches_sum():
    counts = [0] * 275
    counts[3] = 5
    counts[270] = 2
    counts[0] = -1
    direct = 5 * z(3, 275) + 2 * z(270, 275) - 1
    assert CycloNumber.from_root_counts(275, counts) == direct


def test_json_round_trip_and_shape():
    v = Fraction(2, 3) * z(7, 25) - z(1, 25)
    data = v.to_json()
    assert data["order"] == 25
    assert len(data["coeffs"]) == euler_phi(25)
    assert all(isinstance(c, str) for c in data["coeffs"])
    assert len(data["approx"]) == 2
    again = CycloNumber.from_json(json.loads(json.dumps(data)))
    assert again == v


def test_canonical_key_is_stable_across_orders():
    n = lcm(5, 11)
    assert z(1, 5).canonical_key(n) == z(11, 55).canonical_key(n)
    assert z(1, 5).canonical_key(275) != z(2, 5).canonical_key(275)


def test_values_are_unhashable():
    with pytest.raises(TypeError):
        hash(z(1, 5))


def _reduce_by_division(n, counts):
    """Reference: the remainder of sum_j counts[j] x^j on long division by
    the monic Phi_n, in Python ints."""
    modulus = cyclotomic_polynomial(n)
    phi = len(modulus) - 1
    rem = [int(c) for c in counts] + [0] * phi
    for deg in range(len(rem) - 1, phi - 1, -1):
        lead = rem[deg]
        if lead:
            for i, m in enumerate(modulus):
                rem[deg - phi + i] -= lead * m
    return tuple(rem[:phi])


def test_reduce_counts_matches_scalar_keys():
    # Phi_105 is the first cyclotomic polynomial with a coefficient -2;
    # Phi_1 = x - 1 is not palindromic.
    assert -2 in cyclotomic_polynomial(105)
    rng = np.random.default_rng(4)
    for n in (1, 2, 12, 275, 171, 63, 105):
        phi = euler_phi(n)
        # A histogram, a length below phi, the length of a product and the
        # longest length taken (the only one past phi at order 1).
        for width in (n, phi // 2, 2 * phi - 1, n + phi):
            counts = rng.integers(-40, 40, size=(3, 7, width))
            counts[0, 0] = 0
            reduced = reduce_counts(n, counts)
            assert reduced.shape == (3, 7, phi)
            assert reduced.dtype == np.int64
            value = CycloNumber.from_root_counts if width <= n else CycloNumber.from_coeffs
            for row, out in zip(counts.reshape(21, width), reduced.reshape(21, phi).tolist()):
                assert tuple(out) == _reduce_by_division(n, row)
                assert value(n, row).canonical_key() == (n, tuple(out), 1)


def test_reduce_counts_takes_exact_path_beyond_int64_guard():
    n = 105
    factor = _division_terms(n)[2]
    limit = ((1 << 63) - 1) // factor  # the largest L1 norm reduced in int64
    rng = np.random.default_rng(5)
    small = rng.integers(-9, 9, size=(2, n))
    under = np.zeros((1, n), dtype=np.int64)
    under[0, [3, 50, 104]] = [limit // 3, -(limit // 3), limit - 2 * (limit // 3)]
    over = under.copy()
    over[0, 104] += 1
    for big, dtype in ((under, np.int64), (over, object)):
        counts = np.concatenate([small, big])
        reduced = reduce_counts(n, counts)
        assert reduced.dtype == dtype
        for row, out in zip(counts, reduced.tolist()):
            assert tuple(out) == _reduce_by_division(n, row)
            assert CycloNumber.from_root_counts(n, row).canonical_key() == (n, tuple(out), 1)
    huge = [0] * n
    huge[7], huge[100] = 3**50, -(2**70)
    assert reduce_counts(n, huge).tolist() == list(_reduce_by_division(n, huge))
    with pytest.raises(ValueError):
        CycloNumber.from_root_counts(n, [0] * (n + 1))
    with pytest.raises(ValueError):
        reduce_counts(n, [0] * (n + euler_phi(n) + 1))


@pytest.mark.parametrize("n", [1, 2, 275, 2783])
def test_from_root_counts_equals_the_normalizing_constructor(n):
    """`from_root_counts` stores the numerators of `reduce_counts` over
    denominator 1 as they come; that must be what the constructor's
    normalization gives, for int64 and Python-int counts, negative
    counts and histograms shorter than the order."""
    rng = np.random.default_rng(n)
    phi = euler_phi(n)
    for width in sorted({n, max(1, phi // 2), 1}):
        small = rng.integers(-50, 50, size=width)
        big = [int(c) * 3**45 for c in small]  # beyond int64 after reduction
        for counts in (small, small.astype(object), [int(c) for c in small], big):
            value = CycloNumber.from_root_counts(n, counts)
            made = CycloNumber(n, reduce_counts(n, counts).tolist())
            assert value.num == made.num and value.den == made.den == 1
            assert value == made
            assert all(type(c) is int for c in value.num)
    assert CycloNumber.from_root_counts(n, [-1] + [0] * (n - 1)) == -1


def test_non_integer_input_is_refused():
    """Floats and complex numbers raise TypeError instead of being
    truncated; integral numpy and Python ints are taken as they are."""
    for bad in (
        lambda: CycloNumber(5, [1.5, 0, 0, 0]),
        lambda: CycloNumber(5, [np.float64(1.0), 0, 0, 0]),
        lambda: CycloNumber(5, [1, 0, 0, 0], 2.0),
        lambda: CycloNumber.from_root_counts(5, np.array([0.9, 0, 0, 0, 0])),
        lambda: CycloNumber.from_root_counts(5, [1j, 0, 0, 0, 0]),
        lambda: reduce_counts(5, [1.5, 0, 0, 0, 2.9]),
        lambda: reduce_counts(5, np.array([2**70, 0.5], dtype=object)),
        lambda: reduce_counts(5, ["1", "0"]),
    ):
        with pytest.raises(TypeError):
            bad()
    assert CycloNumber(5, np.array([1, 0, 0, 0], dtype=np.int32)) == 1
    assert CycloNumber.from_root_counts(5, np.array([2, 0, 0, 0, 0], dtype=np.uint64)) == 2
    assert reduce_counts(5, np.array([2**63, 0], dtype=np.uint64)).dtype == object
    assert reduce_counts(5, []).shape == (4,)
    with pytest.raises(ValueError):
        euler_phi(0)


def _full_sparse_division(n, rows):
    """Reference: the sparse division of `reduce_counts` over every bin
    from phi(n) to the end of the rows, with no early exit and no
    truncation of the quotient; in the rows' dtype (the int64 rows of the
    tests stay far below the int64 bound)."""
    phi_terms, psi_terms, _ = _division_terms(n)
    phi = euler_phi(n)
    width = rows.shape[1]
    out = np.zeros((len(rows), phi), dtype=rows.dtype)
    out[:, : min(width, phi)] = rows[:, :phi]
    k = width - phi
    if k > 0:
        quot = np.zeros((len(rows), k), dtype=rows.dtype)
        for t, c in psi_terms:
            if t < k:
                quot[:, : k - t] += c * rows[:, phi + t :]
        for s, c in phi_terms:
            stop = min(phi, s + k)
            out[:, s:stop] -= c * quot[:, : stop - s]
    return out.tolist()


def _rows_ending_at(rng, n, last, count, big=False):
    """count histograms of length n whose last nonzero bin is `last` (all
    zero when last is None), with entries beyond int64 when big."""
    rows = np.zeros((count, n), dtype=object if big else np.int64)
    if last is not None:
        rows[:, : last + 1] = rng.integers(-30, 30, size=(count, last + 1))
        rows[:, last] = rng.integers(1, 30, size=count)
    if big:
        rows *= 3**45
    return rows


@pytest.mark.parametrize("n", [275, 775, 2783, 8957])
def test_reduce_counts_early_exit_equals_the_full_division(n):
    """With no bin at or above phi(n) in any row, `reduce_counts` returns
    the low bins without dividing; otherwise it divides only up to the
    last nonzero bin.  Both must equal the full sparse division, for int64
    and Python-int rows ending below phi, at phi and at n - 1, for zero
    rows, and for 256-row blocks that mix them (as `_value_ids` passes)."""
    rng = np.random.default_rng(n)
    phi = euler_phi(n)
    lasts = [None, phi // 3, phi - 1, phi, (phi + n) // 2, n - 1]
    for big in (False, True):
        for last in lasts:
            rows = _rows_ending_at(rng, n, last, 3, big)
            reduced = reduce_counts(n, rows)
            assert reduced.tolist() == _full_sparse_division(n, rows), (big, last)
            if not big:
                assert reduced.dtype == np.int64
            for row, out in zip(rows, reduced.tolist()):
                if n == 275:  # the long-division reference is quick here
                    assert tuple(out) == _reduce_by_division(n, row)
                value = CycloNumber.from_root_counts(n, row)
                assert value.num == tuple(out) and value.den == 1
                assert all(type(c) is int for c in value.num)
        # Blocks of 256 (of 16 beyond int64): only low and zero rows (the
        # early exit), and all kinds.
        for kinds in (lasts[:3], lasts):
            picks = rng.integers(0, len(kinds), size=16 if big else 256)
            rows = np.concatenate([_rows_ending_at(rng, n, kinds[i], 1, big) for i in picks])
            assert reduce_counts(n, rows).tolist() == _full_sparse_division(n, rows), (big, kinds)


RADICAL_ORDERS = [12, 20, 28, 63, 275, 2107, 8957, 24863]


@pytest.mark.parametrize("n", RADICAL_ORDERS)
def test_radical_division_equals_reduce_counts(n):
    """`reduce_row` (one strided add of a radical-table row per nonzero
    bin at or above phi(n)) equals `reduce_counts` on random sparse rows
    of every length up to n, with negative counts and with bins at phi(n)
    and at n - 1, on int64 and on Python-int rows, on a dense row, and on
    a row whose bound reaches 2^63 (which goes through `reduce_counts`),
    each with the values and dtype of `reduce_counts`."""
    rng = np.random.default_rng(n)
    phi = euler_phi(n)
    s, table = _radical_table(n)
    r = n // s
    assert table.shape == (r - euler_phi(r), euler_phi(r)) and not table.flags.writeable
    # Every table entry is within the division factor that bounds it.
    assert int(np.abs(table).max()) <= _division_terms(n)[2]
    rows = []
    for trial in range(40):
        row = np.zeros(int(rng.integers(1, n + 1)) if trial % 4 else n, dtype=np.int64)
        picks = rng.integers(0, len(row), size=int(rng.integers(0, 6)))
        row[picks] = rng.integers(-40, 40, size=len(picks))
        if len(row) > phi and trial % 3 == 0:
            row[phi] = int(rng.integers(-9, 9)) or 1
        if len(row) == n and trial % 2 == 0:
            row[n - 1] = -int(rng.integers(1, 9))
        rows.append(row)
    dense = rng.integers(-5, 5, size=n)
    edge = np.zeros(n, dtype=np.int64)
    edge[[0, n - 1]] = 1 << 61  # one high bin past the int64 guard
    rows += [dense, np.zeros(n, dtype=np.int64), edge, dense.astype(object) * 3**45]
    assert (np.concatenate([row[phi:] for row in rows]) != 0).any()
    for row in rows:
        got, expected = reduce_row(n, row), reduce_counts(n, row)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), row.nonzero()


def test_reduce_row_takes_one_row_no_longer_than_the_order():
    with pytest.raises(ValueError):
        reduce_row(12, np.zeros(13, dtype=np.int64))
    with pytest.raises(ValueError):
        reduce_row(12, np.zeros((2, 12), dtype=np.int64))


# ----- map_exponents against CycloNumber arithmetic -------------------------

MAP_ORDERS = (20, 28, 63, 275)


def _conjugate_by_loop(x):
    """Reference: complex conjugation entry by entry, zeta^i -> zeta^(n - i)."""
    n = x.order
    vec = [0] * n
    for i, c in enumerate(x.num):
        vec[(n - i) % n] += c
    return CycloNumber.from_coeffs(n, [Fraction(c, x.den) for c in vec])


@st.composite
def _histograms(draw):
    """An order from MAP_ORDERS, two sparse integer histograms of that
    length, two units and a shift."""
    n = draw(st.sampled_from(MAP_ORDERS))
    units = [f for f in range(1, n) if gcd(f, n) == 1]
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(-6, 6)), max_size=10)
    hists = []
    for _ in range(2):
        hist = np.zeros(n, dtype=np.int64)
        for j, c in draw(pairs):
            hist[j] += c
        hists.append(hist)
    f, g = draw(st.sampled_from(units)), draw(st.sampled_from(units))
    return n, hists[0], hists[1], f, g, draw(st.integers(-2 * n, 2 * n))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_histograms())
def test_map_exponents_agrees_with_cyclo_arithmetic(case):
    """map_exponents(n, x, f, s) is zeta^s sigma_f(x): a shift alone is a
    product with `root_of_unity(s)`, f = -1 is complex conjugation,
    sigma_f is multiplicative, and sigma_f sigma_g = sigma_fg."""
    n, hx, hy, f, g, s = case
    x, y = (CycloNumber.from_root_counts(n, h) for h in (hx, hy))

    def image(h, f=1, s=0):
        return CycloNumber(n, map_exponents(n, h, f, s))

    assert image(hx, 1, s) == x * root_of_unity(s, n)
    assert image(hx, -1) == x.conjugate() == _conjugate_by_loop(x)
    assert image(np.array((x * y).num), f) == image(hx, f) * image(hy, f)
    assert image(map_exponents(n, hx, g), f) == image(hx, f * g)
    # Rows with one shift each are the rows mapped one at a time.
    shifts = np.array([s, -s, 0])
    rows = map_exponents(n, np.stack([hx, hy, hx]), f, shifts)
    for row, h, shift in zip(rows, (hx, hy, hx), shifts):
        assert np.array_equal(row, map_exponents(n, h, f, shift))


@pytest.mark.parametrize("n, f", [(275, 0), (275, 5), (275, 55), (20, 2), (63, -21)])
def test_map_exponents_refuses_a_non_unit(n, f):
    with pytest.raises(ValueError, match="not a unit"):
        map_exponents(n, np.ones(n, dtype=np.int64), f)
