"""Arithmetic and enumeration for finite fields GF(p^n).

Elements are residue-coefficient vectors in the power basis of a monic
irreducible modulus.  Every element also has a dense integer index; the
enumeration order is lexicographic on the coefficient vector
(c0, c1, ..., c_{n-1}), c0 compared first, so index(a) =
sum_i c_i * p^(n-1-i).  Downstream modules work on indices; the
coefficient form only appears in FieldElem and in building FieldOps' tables.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (BadExtensionDegree, DivisionByZero, FieldMismatch, NotPrime, NotPrimitive,
                     OrderOverflow, QrlabError, ReducibleModulus)

ORDER_CAP = 2 ** 63
TABLE_CAP = 4096  # largest q of a dense op-table, largest order of a group table
CELL_CAP = 2 ** 26  # cells of the largest grid, so its longest axis: the largest q FieldOps serves
_BUILD_ROWS = 2 ** 16  # powers multiplied at a time while FieldOps builds its tables


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
            raise QrlabError(f"index {index} out of range for field of order {self.q}")
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
        raise BadExtensionDegree(f"extension degree {n} is below 1")
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
    """Vectorized index-space arithmetic for one field of order q <= CELL_CAP.

    All methods accept and return int64 arrays of element indices, of any
    broadcastable shapes, 0-d included.  No arithmetic call splits an index
    into its digits:

    - GF(p): add and sub are one integer add or subtract and a conditional
      correction by p; mul is (a*b) % p, exact in int64 since q <= CELL_CAP.
    - GF(p^n), n > 1: mul, add and sub read the log/exp/Zech tables of a
      primitive element g (Zech logarithms; Lidl-Niederreiter, *Finite Fields*).
    - pow reads the same tables on every field.

    The tables (see _tables) are built once per FieldOps, on the first call
    that needs them; ops() caches a FieldOps per field.  Dense q-by-q
    tables are built on each call for q <= TABLE_CAP.
    """

    def __init__(self, spec: FieldSpec):
        if spec.q > CELL_CAP:
            raise OrderOverflow(f"field order {spec.q} exceeds the cap {CELL_CAP} "
                                "of vectorized arithmetic")
        self.spec = spec
        p, n = spec.p, spec.n
        self._weights = np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)
        self.zero_index = 0
        self.one_index = spec.index(spec.one())

    # -- digit codecs, used only to build the tables -------------------------

    def decode(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return (idx[..., None] // self._weights) % self.spec.p

    def encode(self, digits):
        return np.asarray(digits, dtype=np.int64) @ self._weights

    # -- log/exp/Zech tables ---------------------------------------------------

    @functools.cached_property
    def _tables(self) -> "_Tables":
        """The tables of the primitive element g of least index, E = q - 1.

        - exp[k] = g^(k mod E) over two periods, k < 2E, so a sum of two
          logs needs no reduction, then a zero tail: exp[2E..4E] = 0.
        - log[g^k] = k, and log[0] = 2E points into the tail, so
          exp[log a + log b] is a*b, zero operands included.
        - zech[t], t in [E, 3E), is the log of 1 + g^(t - 2E), which is 2E
          where 1 + g^(t - 2E) = 0.  Below E it is t - 2E and above 3E it
          is 0, so that exp[log a + zech[log b - log a + 2E]] is a + b for
          every a and b: a = 0 reads exp[log b], b = 0 reads exp[log a].
        - neg[a] = -a = a·g^(E/2) for odd p, a for p = 2.

        exp is built in log2(q) doubling steps: each multiplies the powers
        so far by g^m, an F_p-linear map on their digits.  It must run over
        the nonzero elements once each, or NotPrimitive is raised.
        """
        spec, p, q = self.spec, self.spec.p, self.spec.q
        E = q - 1
        exp = np.zeros(4 * E + 1, dtype=np.int64)
        exp[0] = self.one_index
        g, m = _primitive_element(spec), 1
        basis = [FieldElem(spec, tuple(int(i == j) for i in range(spec.n)))
                 for j in range(spec.n)]
        while m < E:
            times_g = np.array([(x * g).coeffs for x in basis], dtype=np.int64)
            for s in range(0, min(m, E - m), _BUILD_ROWS):
                k = min(s + _BUILD_ROWS, E - m)
                exp[m + s:m + k] = self.encode(self.decode(exp[s:k]) @ times_g % p)
            g, m = g * g, 2 * m
        if not np.array_equal(np.bincount(exp[:E], minlength=q), np.arange(q) > 0):
            raise NotPrimitive(f"the powers of a generator of {spec}^* miss an element")
        exp[E:2 * E] = exp[:E]
        log = np.empty(q, dtype=np.int64)
        log[exp[:E]] = np.arange(E)
        log[0] = 2 * E
        zech = np.zeros(4 * E + 1, dtype=np.int64)
        zech[:E] = np.arange(E) - 2 * E
        # adding 1 adds 1 to the constant coefficient, the top digit of an index
        zech[E:2 * E] = zech[2 * E:3 * E] = log[(exp[:E] + self.one_index) % q]
        neg = exp[log + (E // 2 if p > 2 else 0)]
        return _Tables(exp=exp, log=log, zech=zech, neg=neg)

    def _zech_add(self, a, b):
        """a + b = a·(1 + b/a), through the tables, zero operands included."""
        t = self._tables
        la, lb = t.log[a], t.log[b]
        return t.exp[la + t.zech[lb - la + 2 * (self.spec.q - 1)]]

    # -- vectorized ops ------------------------------------------------------

    def add(self, a, b):
        a, b = _indices(a), _indices(b)
        if self.spec.n > 1:
            return self._zech_add(a, b)
        p = self.spec.p
        out = np.asarray(a + b)
        np.subtract(out, p, out=out, where=out >= p)
        return out

    def sub(self, a, b):
        a, b = _indices(a), _indices(b)
        if self.spec.n > 1:
            return self._zech_add(a, self._tables.neg[b])
        out = np.asarray(a - b)
        np.add(out, self.spec.p, out=out, where=out < 0)
        return out

    def mul(self, a, b):
        a, b = _indices(a), _indices(b)
        if self.spec.n > 1:
            t = self._tables
            return t.exp[t.log[a] + t.log[b]]
        return (a * b) % self.spec.p

    def pow(self, a, e: int):
        """a^e for e >= 0, with 0^0 = 1."""
        a, t, E = _indices(a), self._tables, self.spec.q - 1
        out = t.exp[t.log[a] * (e % E) % E]
        return out if e == 0 else np.where(a == 0, 0, out)

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


@dataclass(frozen=True)
class _Tables:
    exp: np.ndarray
    log: np.ndarray
    zech: np.ndarray
    neg: np.ndarray


def _indices(a):
    return np.asarray(a, dtype=np.int64)


def _primitive_element(spec: FieldSpec) -> FieldElem:
    """The element of least index whose order is q - 1."""
    one, E = spec.one(), spec.q - 1
    for i in range(1, spec.q):
        g = spec.element(i)
        if all(g ** (E // r) != one for r in _prime_factors(E)):
            return g
    raise NotPrimitive(f"no element of {spec} generates its multiplicative group")


@functools.lru_cache(maxsize=64)
def ops(spec: FieldSpec) -> FieldOps:
    return FieldOps(spec)


def parse_field_literal(text: str, modulus=None) -> FieldSpec:
    """CLI field literal: "p" or "p^n"."""
    p_s, caret, n_s = text.partition("^")
    try:
        p, n = int(p_s), int(n_s) if caret else 1
    except ValueError as exc:
        raise QrlabError(f"bad field literal {text!r}; expected p or p^n") from exc
    return make_field(p, n, modulus)
