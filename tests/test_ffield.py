"""Finite field construction and arithmetic."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qrlab import ffield
from qrlab.errors import (DivisionByZero, NotPrime, OrderOverflow,
                          ReducibleModulus)


def test_prime_field_arithmetic():
    f = ffield.make_field(7)
    a = f.from_int(3)
    b = f.from_int(5)
    assert (a + b).index == 1
    assert (a * b).index == 1
    assert (a - b).index == 5
    assert (b / a).index == 4  # 5 * 3^{-1} = 5 * 5 = 25 = 4
    assert a.inv().index == 5
    assert (a ** 6).index == 1  # Fermat


def test_division_by_zero():
    f = ffield.make_field(5)
    with pytest.raises(DivisionByZero):
        f.from_int(3) / f.from_int(0)
    with pytest.raises(DivisionByZero):
        f.from_int(0).inv()


def test_default_moduli_are_lex_smallest():
    # constant coefficient is most significant in the lex comparison
    assert ffield.make_field(2, 2).modulus == (1, 1, 1)
    assert ffield.make_field(3, 2).modulus == (1, 0, 1)
    assert ffield.make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    assert ffield.make_field(2, 5).modulus == (1, 0, 0, 1, 0, 1)
    assert ffield.make_field(2, 7).modulus == (1, 0, 0, 0, 0, 0, 1, 1)
    assert ffield.make_field(2, 8).modulus == (1, 0, 0, 0, 1, 1, 0, 1, 1)
    assert ffield.make_field(2, 9).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)
    assert ffield.make_field(3, 4).modulus == (1, 0, 1, 1, 1)
    assert ffield.make_field(3, 5).modulus == (1, 0, 0, 0, 2, 1)
    assert ffield.make_field(5, 3).modulus == (1, 0, 1, 1)
    assert ffield.make_field(7, 3).modulus == (1, 0, 1, 1)
    assert ffield.make_field(2, 12).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert ffield.make_field(3, 7).modulus == (1, 0, 0, 0, 0, 1, 2, 1)
    assert ffield.make_field(4093, 2).modulus == (1, 3, 1)
    assert ffield.make_field(4093, 3).modulus == (1, 0, 2, 1)


def _monic(p, n):
    """Every monic polynomial of degree n over GF(p), x^i coefficient at i."""
    return [c + (1,) for c in itertools.product(range(p), repeat=n)]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _mobius(d):
    mu = 1
    for r in range(2, d + 1):
        if d % r == 0:
            d //= r
            if d % r == 0:
                return 0
            mu = -mu
    return mu


def test_irreducibility_matches_sieve():
    # reducible = a product of two monic polynomials of lower degree
    for p in (2, 3, 5, 7):
        n = 2
        while p ** n <= 729:
            reducible = {_poly_mul(a, b, p) for d in range(1, n // 2 + 1)
                         for a in _monic(p, d) for b in _monic(p, n - d)}
            irreducible = {f for f in _monic(p, n) if ffield._is_irreducible(list(f), p)}
            assert irreducible == set(_monic(p, n)) - reducible, (p, n)
            # Gauss: (1/n) * sum over d | n of mu(d) * p^(n/d)
            gauss = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
            assert len(irreducible) * n == gauss, (p, n)
            n += 1


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        ffield.make_field(2, 2, modulus=(1, 0, 1))


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        ffield.make_field(6)
    with pytest.raises(NotPrime):
        ffield.make_field(1)


def test_order_overflow():
    with pytest.raises(OrderOverflow):
        ffield.make_field(2, 64)


def test_enumeration_is_lexicographic():
    f = ffield.make_field(2, 2)
    elems = [f.element(i) for i in range(f.q)]
    assert [e.index for e in elems] == [0, 1, 2, 3]
    assert elems[0].is_zero()
    # index weights: constant term carries weight p^{n-1}
    assert f.one().index == 2
    assert f.element(2) == f.one()


def test_frobenius_fixes_field():
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        f = ffield.make_field(p, n)
        q = f.q
        for e in (f.element(i) for i in range(q)):
            assert (e ** q) == e


def test_inverse_exhaustive_gf9():
    f = ffield.make_field(3, 2)
    one = f.one()
    for e in (f.element(i) for i in range(f.q)):
        if not e.is_zero():
            assert e * e.inv() == one


def test_vectorized_ops_match_elementwise():
    for p, n in [(2, 3), (3, 2), (7, 1)]:
        f = ffield.make_field(p, n)
        fops = ffield.ops(f)
        q = f.q
        idx = np.arange(q)
        a = np.repeat(idx, q)
        b = np.tile(idx, q)
        add = fops.add(a, b)
        mul = fops.mul(a, b)
        for i in range(q):
            for j in range(q):
                ea, eb = f.element(i), f.element(j)
                assert add[i * q + j] == (ea + eb).index
                assert mul[i * q + j] == (ea * eb).index


def test_vectorized_tables():
    f = ffield.make_field(3, 2)
    fops = ffield.ops(f)
    at = fops.add_table()
    mt = fops.mul_table()
    assert at.shape == (9, 9) and mt.shape == (9, 9)
    assert at[0, 5] == 5 and mt[fops.one_index, 5] == 5
    assert (mt[0] == 0).all()


def test_tables_match_the_ops_and_are_not_kept():
    # 41 and 81 rows: the table is written 32 rows at a time
    for p, n in ((5, 1), (2, 3), (3, 2), (41, 1), (3, 4)):
        fops = ffield.ops(ffield.make_field(p, n))
        i, j = np.meshgrid(np.arange(p ** n), np.arange(p ** n), indexing="ij")
        for table, op in ((fops.add_table, fops.add), (fops.mul_table, fops.mul)):
            t = table()
            assert t.dtype == np.uint16 and np.array_equal(t, op(i, j))
            assert table() is not t  # ops() caches a FieldOps per field, not its tables


def test_pow_vectorized():
    f = ffield.make_field(13)
    fops = ffield.ops(f)
    idx = np.arange(13)
    sq = fops.mul(idx, idx)
    assert np.array_equal(fops.pow(idx, 2), sq)
    assert np.array_equal(fops.pow(idx[1:], 12), np.full(12, fops.one_index))


def test_field_arith_dispatch():
    f = ffield.make_field(11)
    a, b = f.from_int(7), f.from_int(4)
    assert (a + b).index == 0
    assert (a - b).index == 3
    assert (a * b).index == 6
    assert (-a).index == 4


def test_order_hash_depends_on_modulus():
    a = ffield.make_field(2, 2)
    b = ffield.make_field(2, 2)
    assert a.order_hash == b.order_hash
    c = ffield.make_field(2, 3)
    assert a.order_hash != c.order_hash


def test_default_modulus_search_runs_once():
    a = ffield.make_field(3, 5)
    before = ffield._default_modulus.cache_info().hits
    b = ffield.make_field(3, 5)
    assert ffield._default_modulus.cache_info().hits == before + 1
    assert a.modulus == b.modulus and a.order_hash == b.order_hash
    assert a == b


def test_parse_field_literal():
    assert ffield.parse_field_literal("13").q == 13
    assert ffield.parse_field_literal("3^2").q == 9
    with pytest.raises(NotPrime):
        ffield.parse_field_literal("abc")


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 61, 1009}
    for k in range(2, 70):
        assert ffield.is_prime(k) == (k in primes or k in
                                      {17, 19, 23, 29, 31, 37, 41, 43, 47,
                                       53, 59, 67})
