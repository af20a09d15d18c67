"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored canonically in the power basis of Q[x]/Phi_N(x): an
integer coefficient vector of length phi(N) over a single positive
denominator, with content reduced.  Two values are equal iff their
canonical vectors agree after lifting to the lcm of their orders, so
equality (and in particular "== 0") is exactly decidable.  A batch of
root histograms, or one vector, goes into the power basis by one integer
division by the sparse Phi_N in ``reduce_counts``.  One row with few
nonzero bins at or above phi(N), as a colored closure gives, goes
through ``reduce_row`` and one table per order N = s r, r the radical
of N: the reduced powers y^phi(r), ..., y^(r - 1) mod Phi_r(y),
(r - phi(r)) x phi(r) integers (15 x 40 at N = 275, r = 55; 87 x 1624
at r = 1711 = 29 * 59), built on first use.  It is exact because
Phi_N(x) = Phi_r(x^s): a remainder mod Phi_r in y = x^s is a polynomial
of degree below s phi(r) = phi(N) in x, so it is the remainder mod
Phi_N, and x^(s a + b) = x^b y^a reduces to x^b times row a - phi(r) of
the table.  A table of every power x^e, e < N, would hold
(N - phi(N)) x phi(N) integers, s^2 times more.  Every
substitution zeta -> zeta^f times a root of unity zeta^s, complex
conjugation (f = -1) included, is ``map_exponents``.  Floating point
appears only in ``to_complex``, which is for display and sanity checks,
never for decisions.
"""

from __future__ import annotations

import operator
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
    "reduce_row",
    "map_exponents",
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


@lru_cache(maxsize=None)
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


def _stretch(poly, k: int) -> list[int]:
    """Coefficients of poly(x^k), ascending."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n(x), ascending: Phi_n(x) = Phi_r(x^(n/r)) for
    the radical r of n, and Phi_r is built one prime at a time,
    Phi_mp(x) = Phi_m(x^p)/Phi_m(x) for a prime p not dividing m."""
    if n < 1:
        raise ValueError("order must be positive")
    poly, r = [-1, 1], 1
    for prime in sorted(_factorize(n)):
        poly, r = _poly_divide_exact(_stretch(poly, prime), poly), r * prime
    return tuple(_stretch(poly, n // r))


@lru_cache(maxsize=None)
def _division_terms(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]:
    """Division by Phi_n: the nonzero terms (s, c) of Phi_n below its leading
    one, those (t, c) of Psi_n = (x^n - 1)/Phi_n with c the coefficient of
    x^(deg Psi_n - t), and 1 + (nnz Phi_n - 1) max|Phi_n| max|Psi_n|."""
    modulus = cyclotomic_polynomial(n)
    # Psi_n(x) = Psi_r(x^(n/r)) for the radical r, as x^n - 1 = y^r - 1 at y = x^(n/r).
    r = prod(_factorize(n))
    cofactor = _poly_divide_exact([-1] + [0] * (r - 1) + [1], cyclotomic_polynomial(r))
    cofactor = _stretch(cofactor, n // r)
    phi_terms = tuple((s, c) for s, c in enumerate(modulus[:-1]) if c)
    psi_terms = tuple((t, c) for t, c in enumerate(reversed(cofactor)) if c)
    factor = 1 + len(phi_terms) * max(abs(c) for c in modulus) * max(abs(c) for c in cofactor)
    return phi_terms, psi_terms, factor


@lru_cache(maxsize=None)
def _radical_table(n: int) -> tuple[int, np.ndarray]:
    """For n = s r with r the radical of n: s, and the reduced powers
    y^phi(r), ..., y^(r - 1) mod Phi_r(y) as the rows of a read-only
    int64 (r - phi(r), phi(r)) array, from one `reduce_counts` of their
    monomials at order r.  Built on first use."""
    r = prod(_factorize(n))
    phi = euler_phi(r)
    monomials = np.zeros((r - phi, r), dtype=np.int64)
    monomials[:, phi:] = np.eye(r - phi, dtype=np.int64)
    table = reduce_counts(r, monomials).astype(np.int64)
    table.flags.writeable = False
    return n // r, table


def _integer_array(values) -> np.ndarray:
    """Integer array of `values`: int64 where every entry fits, otherwise
    an object array of Python ints (never a lossy float or uint64 cast).
    Raises TypeError on float, complex or other non-integer entries."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    kind = arr.dtype.kind
    if kind in "ib" or arr.size == 0:
        return arr.astype(np.int64, copy=False)
    if kind == "u" and (arr.dtype.itemsize < 8 or int(arr.max()) < 1 << 63):
        return arr.astype(np.int64)
    if kind not in "uO":
        raise TypeError(f"expected integer values, got dtype {arr.dtype}")
    # Python ints beyond int64: operator.index refuses floats and the like.
    out = np.empty(arr.size, dtype=object)
    out[:] = [operator.index(c) for c in arr.ravel().tolist()]
    return out.reshape(arr.shape)


def _fits_int64(rows: np.ndarray, factor: int) -> bool:
    """Whether every row of the int64 array rows has L1(row) * factor < 2^63."""
    top = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    if top * rows.shape[1] * factor < 1 << 63:  # L1(row) <= top * width
        return True
    return int(np.abs(rows.astype(object)).sum(axis=1).max()) * factor < 1 << 63


def _add_multiple(dst: np.ndarray, c: int, src: np.ndarray) -> None:
    """dst += c * src in place, with no temporary when c = +-1."""
    if c == 1:
        dst += src
    elif c == -1:
        dst -= src
    else:
        dst += c * src


def reduce_counts(n: int, counts) -> np.ndarray:
    """Canonical power-basis numerators of sum_j counts[..., j] zeta_n^j.

    Maps an integer array (..., L), L <= n + phi(n), to (..., phi(n)): the
    remainder of each row on division by Phi_n.  As rev(Phi_n) rev(Psi_n)
    = 1 - x^n for Psi_n = (x^n - 1)/Phi_n, the reversed quotient is the
    reversed row times rev(Psi_n) truncated to L - phi(n) terms; the
    remainder is the row minus quotient * Phi_n.  Only the bins up to the
    last nonzero one at or above phi(n) (in any row) are divided; with
    none, the quotient is zero and the low bins are returned as they are,
    in the input's dtype.  Every partial sum of the sparse products is at
    most L1(row) * (1 + (nnz Phi_n - 1) max|Phi_n| max|Psi_n|).  When that
    is below 2^63 for every row (checked on each call that divides) they
    run in int64 and give int64; otherwise, as for values beyond int64, in
    Python ints, giving an object array."""
    phi_terms, psi_terms, factor = _division_terms(n)
    phi = euler_phi(n)
    arr = _integer_array(counts)
    width = arr.shape[-1]
    if width > n + phi:
        raise ValueError(f"length {width} exceeds order {n} plus phi({n}) = {phi}")
    rows = arr.reshape(prod(arr.shape[:-1]), width)
    # The quotient reaches down from the last nonzero bin at or above phi;
    # with no such bin in any row it is zero, and the rows are remainders.
    upper = (rows[:, phi:] != 0).any(axis=0).nonzero()[0]
    k = int(upper[-1]) + 1 if len(upper) else 0  # quotient length
    if k:
        rows = rows[:, : phi + k]
        if rows.dtype != object and not _fits_int64(rows, factor):
            rows = rows.astype(object)
    out = np.zeros((len(rows), phi), dtype=rows.dtype)
    out[:, : min(width, phi)] = rows[:, :phi]
    if k:
        # quot[j] = sum_t Psi[deg - t] * row[phi + j + t]: the reversed product.
        quot = np.zeros((len(rows), k), dtype=rows.dtype)
        for t, c in psi_terms:
            if t >= k:
                break
            _add_multiple(quot[:, : k - t], c, rows[:, phi + t :])
        for s, c in phi_terms:
            stop = min(phi, s + k)
            _add_multiple(out[:, s:stop], -c, quot[:, : stop - s])
    return out.reshape(arr.shape[:-1] + (phi,))


def reduce_row(n: int, counts) -> np.ndarray:
    """`reduce_counts` of one row of length L <= n, paid per nonzero bin
    at or above phi(n).  With n = s r, r the radical of n, bin e = s a + b
    (phi(r) <= a < r, b < s) adds its count times row a - phi(r) of
    `_radical_table(n)` to the numerators b, b + s, b + 2s, ...: one
    strided add.  A table row is the remainder of a monomial at order r,
    whose division factor equals that of n (Phi_n and Psi_n are Phi_r
    and Psi_r in x^s), so each numerator stays below the bound that
    `reduce_counts` checks.  A row past that bound, or with no such bin,
    goes through `reduce_counts`; values and dtypes are always those of
    `reduce_counts`."""
    arr = _integer_array(counts)
    if arr.ndim != 1 or len(arr) > n:
        raise ValueError(f"need one row no longer than the order {n}")
    phi = euler_phi(n)
    high = arr[phi:].nonzero()[0]
    if not len(high) or arr.dtype == object or not _fits_int64(arr[None], _division_terms(n)[2]):
        return reduce_counts(n, arr)
    s, table = _radical_table(n)
    floor = phi // s  # phi(r)
    out = arr[:phi].copy()
    for e, c in zip((high + phi).tolist(), arr[phi:][high].tolist()):
        a, b = divmod(e, s)
        _add_multiple(out[b::s], c, table[a - floor])
    return out


def map_exponents(n: int, counts, f: int = 1, shifts=0) -> np.ndarray:
    """Canonical power-basis numerators (..., phi(n)) of the histograms
    counts (..., L), L <= n, with bin j moved to f*j + shift mod n: for
    each row x = sum_j counts[..., j] zeta_n^j, that is zeta_n^shift
    sigma_f(x), sigma_f the Galois automorphism zeta_n -> zeta_n^f.
    shifts broadcasts against counts.shape[:-1].  Raises ValueError
    unless gcd(f, n) = 1: only a unit gives distinct targets and an
    automorphism.  Reduced by `reduce_counts`, with its dtypes."""
    if gcd(f, n) != 1:
        raise ValueError(f"f = {f} is not a unit mod {n}")
    arr = _integer_array(counts)
    if arr.shape[-1] > n:
        raise ValueError(f"length {arr.shape[-1]} exceeds order {n}")
    targets = (f * np.arange(arr.shape[-1]) + np.asarray(shifts, dtype=np.int64)[..., None]) % n
    arr, targets = np.broadcast_arrays(arr, targets)
    out = np.zeros(arr.shape[:-1] + (n,), dtype=arr.dtype)
    np.put_along_axis(out, targets, arr, axis=-1)
    return reduce_counts(n, out)


def _reduce_vector(n: int, vec) -> tuple[int, ...]:
    """Reduce one integer coefficient vector (degree < len) mod Phi_n."""
    return tuple(reduce_counts(n, vec).tolist())


def _poly_multiply(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Exact product of integer coefficient vectors: one convolution, in
    int64 when no sum of products can overflow it, else on object arrays
    of Python ints."""
    amax = max((abs(c) for c in a), default=0)
    bmax = max((abs(c) for c in b), default=0)
    dtype = np.int64 if amax * bmax * min(len(a), len(b)) < _INT64_SAFE else object
    conv = np.convolve(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
    return [int(c) for c in conv]


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 1:  # gcd(content, 1) = 1: nothing to divide
        return tuple(num), 1
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
        num = [operator.index(c) for c in num]
        if len(num) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}")
        self.order = order
        self.num, self.den = _normalize(num, operator.index(den))

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
        return cls(order, _reduce_vector(order, [int(f * den) for f in fracs]), den)

    @classmethod
    def from_root_counts(cls, order: int, counts) -> "CycloNumber":
        """sum_j counts[j] * zeta_order^j for an integer vector indexed
        by exponent mod order (the shape produced by trace accumulation).
        The canonical numerators of `reduce_counts` over denominator 1 are
        already the normal form, so they are stored as they come.
        """
        counts = _integer_array(counts)
        if counts.ndim != 1 or len(counts) > order:
            raise ValueError("counts must be one vector no longer than the order")
        return cls._from_numerators(order, reduce_counts(order, counts).tolist())

    @classmethod
    def _from_numerators(cls, order: int, num: list[int]) -> "CycloNumber":
        """The value with canonical numerators `num` (phi(order) Python
        ints, as `reduce_counts` gives them) over denominator 1, stored as
        they come: no check, no second pass."""
        value = cls.__new__(cls)
        value.order = order
        value.num = tuple(num)
        value.den = 1
        return value

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
        if order % self.order != 0:
            raise ValueError("can only lift to a multiple of the order")
        # zeta_self.order^i = zeta_order^(i * step), and i * step < order.
        step = order // self.order
        vec = [0] * order
        vec[: len(self.num) * step : step] = self.num
        return CycloNumber(order, _reduce_vector(order, vec), self.den)

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
        """Multiplicative inverse of a nonzero rational value.  Every
        division in stw is by a rational (a total dimension, a dimension
        or a count), so no other value is inverted."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        if not self.is_rational():
            raise ValueError(f"cannot invert the non-rational value {self!r}")
        return CycloNumber.from_rational(1 / self.as_fraction(), self.order)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not supported")
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
        """Complex conjugation: sigma_-1, zeta^i -> zeta^(order - i)."""
        return CycloNumber(self.order, map_exponents(self.order, self.num, -1), self.den)

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
    return CycloNumber(order, map_exponents(order, [1], shifts=s))
