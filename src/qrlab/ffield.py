"""Arithmetic and enumeration for finite fields GF(p^n).

Elements are residue-coefficient vectors in the power basis of a monic
irreducible modulus.  Every element also has a dense integer index; the
enumeration order is lexicographic on the coefficient vector
(c0, c1, ..., c_{n-1}), c0 compared first, so index(a) =
sum_i c_i * p^(n-1-i).  Downstream modules work on indices; the
coefficient form only appears at the arithmetic boundary.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, FieldMismatch, NotPrime, OrderOverflow, ReducibleModulus

ORDER_CAP = 2 ** 63
TABLE_CAP = 4096  # largest q of a dense op-table, largest order of a group table


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for all m < 3.3e24."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
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


# -- polynomial helpers over GF(p), coefficient lists with c[i] the x^i coeff --

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    n = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(n):
                out[k - n + j] = (out[k - n + j] - c * mod[j]) % p
    return _poly_trim(out)


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b
        b_lead_inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = a[-1] * b_lead_inv % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            _poly_trim(a)
        a, b = b, a
    return a


def _is_irreducible(coeffs, p):
    """Rabin's test; coeffs is monic of degree n >= 1 over GF(p)."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    x = [0, 1]

    def _minus_x(poly):
        d = list(poly) + [0] * (2 - len(poly))
        d[1] = (d[1] - 1) % p
        return _poly_trim(d)

    if _minus_x(_poly_powmod(x, p ** n, coeffs, p)):
        return False
    for r in _prime_factors(n):
        d = _minus_x(_poly_powmod(x, p ** (n // r), coeffs, p))
        if len(_poly_gcd(coeffs, d, p)) != 1:
            return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=64)
def _default_modulus(p, n):
    """Lexicographically smallest monic irreducible of degree n over GF(p).

    Candidates (c0, ..., c_{n-1}) are compared with c0 most significant,
    matching the element enumeration order.
    """
    if n == 1:
        return (0, 1)  # the polynomial x
    # candidates with c0 = 0 are divisible by x, so the scan starts at c0 = 1
    for m in range(p ** (n - 1), p ** n):
        coeffs = [0] * n
        rem = m
        for i in range(n - 1, -1, -1):
            coeffs[i] = rem % p
            rem //= p
        cand = coeffs + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible polynomial found for GF({p}^{n})")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """Description of GF(p^n) with a fixed monic irreducible modulus."""

    p: int
    n: int
    modulus: tuple[int, ...]  # length n+1, modulus[n] == 1

    @property
    def q(self) -> int:
        return self.p ** self.n

    @property
    def order_hash(self) -> str:
        """Short hash pinning the enumeration order (p, n, modulus)."""
        blob = f"{self.p},{self.n},{self.modulus}".encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def one(self) -> "FieldElem":
        return FieldElem(self, (1,) + (0,) * (self.n - 1))

    def element(self, index: int) -> "FieldElem":
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for field of order {self.q}")
        coeffs = []
        for i in range(self.n - 1, -1, -1):
            coeffs.append((index // self.p ** i) % self.p)
        return FieldElem(self, tuple(coeffs))

    def index(self, elem: "FieldElem") -> int:
        if elem.spec != self:
            raise FieldMismatch("element belongs to a different field")
        idx = 0
        for c in elem.coeffs:
            idx = idx * self.p + c
        return idx

    def from_int(self, k: int) -> "FieldElem":
        """Image of the integer k under Z -> GF(p^n) (k mod p in the prime subfield)."""
        return FieldElem(self, (k % self.p,) + (0,) * (self.n - 1))

    def __str__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"


@dataclass(frozen=True)
class FieldElem:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _check(self, other):
        if self.spec != other.spec:
            raise FieldMismatch("operands from different fields")

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FieldElem(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        prod = _poly_mulmod(list(self.coeffs), list(other.coeffs), list(spec.modulus), spec.p)
        prod += [0] * (spec.n - len(prod))
        return FieldElem(spec, tuple(prod))

    def inv(self):
        spec = self.spec
        if all(c == 0 for c in self.coeffs):
            raise DivisionByZero("inverse of zero")
        # a^(q-2) = a^{-1}
        return self ** (spec.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, e: int):
        spec = self.spec
        if e < 0:
            return self.inv() ** (-e)
        out = _poly_powmod(list(self.coeffs), e, list(spec.modulus), spec.p)
        out += [0] * (spec.n - len(out))
        return FieldElem(spec, tuple(out))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    @property
    def index(self) -> int:
        return self.spec.index(self)


def make_field(p: int, n: int = 1, modulus=None) -> FieldSpec:
    """Validated GF(p^n); picks the lex-smallest irreducible modulus when omitted."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** n >= ORDER_CAP:
        raise OrderOverflow(f"field order {p}^{n} exceeds 2^63")
    if modulus is None:
        modulus = _default_modulus(p, n)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[n] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {n}")
        if not _is_irreducible(list(modulus), p):
            raise ReducibleModulus(f"modulus {modulus} is reducible over GF({p})")
    return FieldSpec(p=p, n=n, modulus=tuple(modulus))


class FieldOps:
    """Vectorized index-space arithmetic for one field.

    All methods accept and return numpy integer arrays of element indices
    (any broadcastable shapes).  Dense q-by-q tables are built on each call
    for q <= TABLE_CAP.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, n = spec.p, spec.n
        self._weights = np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)
        # reduction rows: x^(n+j) mod modulus, j = 0 .. n-2, as digit vectors
        self._red = np.zeros((n - 1, n), dtype=np.int64)
        for j in range(n - 1):
            row = _poly_powmod([0, 1], n + j, spec.modulus, p)
            self._red[j, :len(row)] = row
        self.zero_index = 0
        self.one_index = spec.index(spec.one())

    # -- digit codecs --------------------------------------------------------

    def decode(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return (idx[..., None] // self._weights) % self.spec.p

    def encode(self, digits):
        return np.asarray(digits, dtype=np.int64) @ self._weights

    # -- vectorized ops ------------------------------------------------------

    def add(self, a, b):
        return self.encode((self.decode(a) + self.decode(b)) % self.spec.p)

    def sub(self, a, b):
        return self.encode((self.decode(a) - self.decode(b)) % self.spec.p)

    def mul(self, a, b):
        p, n = self.spec.p, self.spec.n
        if n == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % p
        da, db = self.decode(a), self.decode(b)
        da, db = np.broadcast_arrays(da, db)
        shape = da.shape[:-1]
        conv = np.zeros(shape + (2 * n - 1,), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                conv[..., i + j] += da[..., i] * db[..., j]
        conv %= p
        out = conv[..., :n].copy()
        for j in range(n - 1):
            out += conv[..., n + j, None] * self._red[j]
        return self.encode(out % p)

    def pow(self, a, e: int):
        if e == 0:
            return np.full_like(np.asarray(a, dtype=np.int64), self.one_index)
        result = None
        base = np.asarray(a, dtype=np.int64)
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    # -- dense tables --------------------------------------------------------

    def add_table(self):
        return self._table(self.add)

    def mul_table(self):
        return self._table(self.mul)

    def _table(self, op):
        """op's (q, q) uint16 table, built on each call: ops() caches FieldOps."""
        q = self.spec.q
        if q > TABLE_CAP:
            raise OrderOverflow(f"no dense table above q={TABLE_CAP}")
        idx = np.arange(q, dtype=np.int64)
        table = np.empty((q, q), dtype=np.uint16)
        for s in range(0, q, 32):
            table[s:s + 32] = op(idx[s:s + 32, None], idx)
        return table


@functools.lru_cache(maxsize=64)
def ops(spec: FieldSpec) -> FieldOps:
    return FieldOps(spec)


def parse_field_literal(text: str, modulus=None) -> FieldSpec:
    """CLI field literal: "p" or "p^n"."""
    try:
        if "^" in text:
            p_s, n_s = text.split("^", 1)
            return make_field(int(p_s), int(n_s), modulus)
        return make_field(int(text), 1, modulus)
    except ValueError as exc:
        raise NotPrime(f"bad field literal {text!r}; expected p or p^n") from exc
