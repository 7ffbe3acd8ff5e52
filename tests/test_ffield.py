"""Finite field construction and arithmetic."""

from __future__ import annotations

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
    elems = ffield.enumerate_elements(f)
    assert [e.index for e in elems] == [0, 1, 2, 3]
    assert elems[0].is_zero()
    # index weights: constant term carries weight p^{n-1}
    assert f.one().index == 2
    assert f.element(2) == f.one()


def test_frobenius_fixes_field():
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        f = ffield.make_field(p, n)
        q = f.q
        for e in ffield.enumerate_elements(f):
            assert (e ** q) == e


def test_inverse_exhaustive_gf9():
    f = ffield.make_field(3, 2)
    one = f.one()
    for e in ffield.enumerate_elements(f):
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
    assert ffield.field_arith(a, b, "add").index == 0
    assert ffield.field_arith(a, b, "sub").index == 3
    assert ffield.field_arith(a, b, "mul").index == 6
    assert ffield.field_arith(a, None, "neg").index == 4


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
