"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored canonically in the power basis of Q[x]/Phi_N(x): an
integer coefficient vector of length phi(N) over a single positive
denominator, with content reduced.  Two values are equal iff their
canonical vectors agree after lifting to the lcm of their orders, so
equality (and in particular "== 0") is exactly decidable.  Floating
point appears only in ``to_complex``, which is for display and sanity
checks, never for decisions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

__all__ = [
    "CycloNumber",
    "root_of_unity",
    "euler_phi",
    "cyclotomic_polynomial",
    "reduce_counts",
]

# Largest product magnitude allowed on the int64 fast paths.  Anything
# bigger falls back to exact Python-int arithmetic.
_INT64_SAFE = 1 << 62


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (orders here are tiny)."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64 bits."""
    if m < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % small == 0:
            return m == small
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def euler_phi(n: int) -> int:
    """Euler's totient phi(n)."""
    if n < 1:
        raise ValueError("phi is defined for positive integers")
    out = n
    for prime in _factorize(n):
        out = out // prime * (prime - 1)
    return out


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients).

    Requires that den divides num exactly and is monic up to sign.
    """
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[len(den) - 1 + shift]
        if coeff % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        coeff //= lead
        out[shift] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[i + shift] -= coeff * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n(x), ascending, computed by exact division:
    Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...], int]:
    """Rows expressing x^j mod Phi_n in the power basis, j = 0..max_deg.

    Returns (float64 matrix, exact rows as Python-int tuples, max row
    magnitude).  max_deg covers both products of reduced vectors
    (2*phi-2) and raw group-ring vectors (n-1).
    """
    phi = euler_phi(n)
    max_deg = max(2 * phi - 2, n - 1, phi)
    modulus = cyclotomic_polynomial(n)
    rows: list[list[int]] = []
    for j in range(phi):
        row = [0] * phi
        row[j] = 1
        rows.append(row)
    for _ in range(phi, max_deg + 1):
        prev = rows[-1]
        row = [0] + prev[:-1]
        lead = prev[-1]
        if lead:
            for i in range(phi):
                row[i] -= lead * modulus[i]
        rows.append(row)
    max_abs = max((abs(c) for row in rows for c in row), default=0)
    exact = tuple(tuple(row) for row in rows)
    return np.array(exact, dtype=np.float64), exact, max_abs


@lru_cache(maxsize=None)
def _lift_table(small: int, large: int) -> tuple[tuple[int, ...], ...]:
    """Rows expressing the order-`small` basis vectors inside the
    order-`large` power basis (zeta_small = zeta_large^(large/small)).
    """
    if large % small != 0:
        raise ValueError("can only lift to a multiple of the order")
    step = large // small
    rows = []
    for i in range(euler_phi(small)):
        vec = [0] * large
        vec[(i * step) % large] = 1
        rows.append(_reduce_vector(large, vec))
    return tuple(rows)


# Largest magnitude below which float64 integer arithmetic is exact.
_FLOAT_EXACT = 1 << 53


def _integer_array(values) -> np.ndarray:
    """Integer array of `values`: int64 where every entry fits, otherwise
    an object array of Python ints (never a lossy float or uint64 cast)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuO":
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def reduce_counts(n: int, counts) -> np.ndarray:
    """Canonical power-basis numerators of sum_j counts[..., j] zeta_n^j.

    Maps an integer array (..., L), L at most the reduction table's length
    (which covers L <= n), to (..., phi(n)) in one product against the
    rows of x^j mod Phi_n.  The product runs in float64 when every row
    has L1(row) * max|table entry| < 2^53, so every partial sum is an
    exactly representable integer, and gives int64.  Otherwise, and for
    values beyond int64, it runs in Python ints and gives an object array."""
    matrix, exact, max_abs = _reduction_table(n)
    phi = euler_phi(n)
    arr = _integer_array(counts)
    width = arr.shape[-1]
    if width > len(exact):
        raise ValueError(f"length {width} exceeds the order-{n} reduction table")
    rows = arr.reshape(prod(arr.shape[:-1]), width)
    shape = arr.shape[:-1] + (phi,)
    if arr.dtype != object:
        # Float sums of nonnegative terms are exact below 2^53 and, once
        # past it, never fall back below it, so this test is rigorous.
        l1 = np.abs(rows.astype(np.float64)).sum(axis=1)
        if np.all(l1 < -(-_FLOAT_EXACT // max(1, max_abs))):
            out = rows.astype(np.float64) @ matrix[:width]
            return out.astype(np.int64).reshape(shape)
    table = np.array(exact[:width], dtype=object).reshape(width, phi)
    return (rows.astype(object) @ table).reshape(shape)


def _roll_rows(counts: np.ndarray, shifts) -> np.ndarray:
    """Each histogram of counts (..., N) times zeta_N^shift: entry j moves
    to j + shift mod N.  shifts broadcasts against counts.shape[:-1]."""
    order = counts.shape[-1]
    idx = (np.arange(order) - np.asarray(shifts)[..., None]) % order
    return np.take_along_axis(counts, idx, axis=-1)


def _reduce_vector(n: int, vec) -> tuple[int, ...]:
    """Reduce one integer coefficient vector (degree < len) mod Phi_n."""
    return tuple(reduce_counts(n, vec).tolist())


def _poly_multiply(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Exact product of integer coefficient vectors."""
    amax = max((abs(c) for c in a), default=0)
    bmax = max((abs(c) for c in b), default=0)
    if amax and bmax and amax * bmax * min(len(a), len(b)) < _INT64_SAFE:
        conv = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return [int(c) for c in conv]
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("denominator must be nonzero")
    if den < 0:
        num = [-c for c in num]
        den = -den
    content = 0
    for c in num:
        content = gcd(content, c)
        if content == 1:
            break
    if content == 0:
        return tuple(num), 1
    g = gcd(content, den)
    if g > 1:
        num = [c // g for c in num]
        den //= g
    return tuple(num), den


class CycloNumber:
    """An element of Q(zeta_order), canonically reduced.

    The value is sum_i num[i] * zeta_order^i / den over i < phi(order).
    Instances are immutable and unhashable (use explicit keys if you need
    dict/set membership).
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num, den: int = 1):
        if order < 1:
            raise ValueError("order must be a positive integer")
        phi = euler_phi(order)
        num = [int(c) for c in num]
        if len(num) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}")
        self.order = order
        self.num, self.den = _normalize(num, int(den))

    # ----- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloNumber":
        frac = Fraction(value)
        vec = [0] * euler_phi(order)
        vec[0] = frac.numerator
        return cls(order, vec, frac.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(1, order)

    @classmethod
    def from_coeffs(cls, order: int, coeffs) -> "CycloNumber":
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        vec = [int(f * den) for f in fracs]
        phi = euler_phi(order)
        if len(vec) > phi:
            vec = list(_reduce_vector(order, vec))
        else:
            vec = vec + [0] * (phi - len(vec))
        return cls(order, vec, den)

    @classmethod
    def from_root_counts(cls, order: int, counts) -> "CycloNumber":
        """sum_j counts[j] * zeta_order^j for an integer vector indexed
        by exponent mod order (the shape produced by trace accumulation).
        """
        counts = _integer_array(counts)
        if counts.shape[-1] > order:
            raise ValueError("counts vector longer than order")
        return cls(order, reduce_counts(order, counts).tolist())

    # ----- field data ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    # ----- order changes ------------------------------------------------

    def lift(self, order: int) -> "CycloNumber":
        """Rewrite in Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        table = _lift_table(self.order, order)
        phi = euler_phi(order)
        vec = [0] * phi
        for i, c in enumerate(self.num):
            if c:
                row = table[i]
                for j in range(phi):
                    vec[j] += c * row[j]
        return CycloNumber(order, vec, self.den)

    @staticmethod
    def common_order(a: "CycloNumber", b: "CycloNumber") -> tuple["CycloNumber", "CycloNumber"]:
        n = lcm(a.order, b.order)
        return a.lift(n), b.lift(n)

    # ----- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycloNumber | None":
        if isinstance(value, CycloNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNumber.from_rational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.common_order(self, other)
        num = [ca * b.den + cb * a.den for ca, cb in zip(a.num, b.num)]
        return CycloNumber(a.order, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.common_order(self, other)
        conv = _poly_multiply(a.num, b.num)
        vec = _reduce_vector(a.order, conv)
        return CycloNumber(a.order, vec, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """Multiplicative inverse via the extended Euclidean algorithm
        for self (as a polynomial) and Phi_order over Q[x].
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        if self.is_rational():
            return CycloNumber.from_rational(1 / self.as_fraction(), self.order)

        def trim(p: list[Fraction]) -> list[Fraction]:
            while p and p[-1] == 0:
                p.pop()
            return p

        # Invariant: r_i = s_i * self (mod Phi); we track only s.
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1 = trim([Fraction(c, self.den) for c in self.num])
        s0: list[Fraction] = []
        s1: list[Fraction] = [Fraction(1)]
        while len(r1) > 1:
            quot: list[Fraction] = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for shift in range(len(quot) - 1, -1, -1):
                c = rem[len(r1) - 1 + shift] / r1[-1]
                quot[shift] = c
                if c:
                    for i, d in enumerate(r1):
                        rem[i + shift] -= c * d
            rem = trim(rem)
            prod = [Fraction(0)] * (len(quot) + len(s1) - 1)
            for i, cq in enumerate(quot):
                if cq:
                    for j, cs in enumerate(s1):
                        prod[i + j] += cq * cs
            s_new = [Fraction(0)] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                s_new[i] += c
            for i, c in enumerate(prod):
                s_new[i] -= c
            r0, r1 = r1, rem
            s0, s1 = s1, trim(s_new)
        if not r1:
            raise ZeroDivisionError("value is a zero divisor (not in the field?)")
        const = r1[0]
        inv_coeffs = [c / const for c in s1]
        return CycloNumber.from_coeffs(self.order, inv_coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycloNumber.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation: zeta^i -> zeta^(order - i)."""
        n = self.order
        vec = [0] * n
        for i, c in enumerate(self.num):
            if c:
                vec[(n - i) % n] += c
        return CycloNumber(n, _reduce_vector(n, vec), self.den)

    # ----- comparison / output -------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.num == other.num and self.den == other.den
        a, b = self.common_order(self, other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # unhashable by design; see canonical_key

    def canonical_key(self, order: int | None = None) -> tuple:
        """Hashable canonical form, optionally lifted to a fixed order."""
        value = self if order is None else self.lift(order)
        return (value.order, value.num, value.den)

    def to_complex(self) -> complex:
        n = self.order
        total = 0j
        for i, c in enumerate(self.num):
            if c:
                total += c * np.exp(2j * np.pi * i / n)
        return complex(total / self.den)

    def to_json(self) -> dict:
        approx = self.to_complex()
        return {
            "order": self.order,
            "coeffs": [str(Fraction(c, self.den)) for c in self.num],
            "approx": [approx.real, approx.imag],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CycloNumber":
        return cls.from_coeffs(int(data["order"]), [Fraction(c) for c in data["coeffs"]])

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyclo({Fraction(self.num[0], self.den)})"
        terms = []
        for i, c in enumerate(self.num):
            if c:
                frac = Fraction(c, self.den)
                if i == 0:
                    terms.append(str(frac))
                elif frac == 1:
                    terms.append(f"z{self.order}^{i}")
                else:
                    terms.append(f"{frac}*z{self.order}^{i}")
        return "Cyclo(" + " + ".join(terms) + ")"


def root_of_unity(s: int, order: int) -> CycloNumber:
    """zeta_order^s with zeta_order = exp(2*pi*i/order)."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    vec = [0] * order
    vec[s % order] = 1
    return CycloNumber(order, _reduce_vector(order, vec))


def reduction_bound_factor(order: int) -> int:
    """Bound transfer constant for reducing cyclic lifts: if a vector in
    Z[x]/(x^order - 1) has L1 norm at most B, every coefficient of its
    reduction modulo the order-th cyclotomic polynomial has magnitude at
    most B times this factor."""
    _, _, max_abs = _reduction_table(order)
    return max(1, max_abs)
