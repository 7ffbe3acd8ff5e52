"""Finite field construction and arithmetic."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qrlab import ffield
from qrlab.errors import (BadExtensionDegree, DivisionByZero, NotPrime, NotPrimitive,
                          OrderOverflow, QrlabError, ReducibleModulus)

FIELDS_TO_256 = [(p, n) for p in range(2, 257) if ffield.is_prime(p)
                 for n in range(1, 9) if p ** n <= 256]


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


@pytest.mark.parametrize("p", [4294967311, 2 ** 61 - 1])
def test_no_arithmetic_above_the_cell_cap(p):
    # (p-1)^2 overflows int64 above p ~ 3.04e9; the cap refuses the field first
    spec = ffield.make_field(p)
    assert (spec.from_int(-1) * spec.from_int(-1)).index == 1  # scalar arithmetic stays
    with pytest.raises(OrderOverflow):
        ffield.ops(spec)


def test_largest_prime_under_the_cell_cap():
    p = 2 ** 26 - 5
    assert ffield.is_prime(p) and p <= ffield.CELL_CAP
    fops = ffield.ops(ffield.make_field(p))
    assert fops.mul(p - 1, np.array([p - 1, p - 2])).tolist() == [1, 2]
    assert fops.add(p - 1, np.array([1, p - 1])).tolist() == [0, p - 2]
    assert fops.sub(0, np.array([0, 1])).tolist() == [0, p - 1]


@pytest.mark.parametrize("make", [lambda: ffield.make_field(3, 0),
                                  lambda: ffield.make_field(3, -1),
                                  lambda: ffield.parse_field_literal("3^0")])
def test_zero_extension_degree(make):
    with pytest.raises(BadExtensionDegree) as exc:
        make()
    assert isinstance(exc.value, QrlabError)


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
    for bad in ("abc", "3^x", "^2"):
        with pytest.raises(QrlabError, match="bad field literal") as err:
            ffield.parse_field_literal(bad)
        assert type(err.value) is QrlabError, bad
    with pytest.raises(NotPrime):
        ffield.parse_field_literal("4")
    with pytest.raises(BadExtensionDegree):
        ffield.parse_field_literal("3^0")
    with pytest.raises(QrlabError, match="out of range") as err:
        ffield.make_field(2, 8).element(256)
    assert type(err.value) is QrlabError


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 61, 1009}
    for k in range(2, 70):
        assert ffield.is_prime(k) == (k in primes or k in
                                      {17, 19, 23, 29, 31, 37, 41, 43, 47,
                                       53, 59, 67})


# -- the table routes against FieldElem ----------------------------------------

def _reference(spec, i, j):
    """(i + j, i - j, i * j) for index arrays i, j by FieldElem's coefficient
    arithmetic: sums and differences coefficientwise, and the product
    bilinear in the two coefficient vectors, with FieldElem's products of
    the basis monomials x^s * x^t."""
    p, n = spec.p, spec.n
    digits = np.array([spec.element(k).coeffs for k in range(spec.q)])
    weights = p ** np.arange(n - 1, -1, -1)
    assert np.array_equal(digits @ weights, np.arange(spec.q))
    basis = [ffield.FieldElem(spec, tuple(int(k == s) for k in range(n))) for s in range(n)]
    prods = np.array([[(x * y).coeffs for y in basis] for x in basis])
    a, b = digits[i], digits[j]
    prod = sum(a[..., s, None] * (b @ prods[s]) for s in range(n))
    return (a + b) % p @ weights, (a - b) % p @ weights, prod % p @ weights


def _ops(fops, i, j):
    return fops.add(i, j), fops.sub(i, j), fops.mul(i, j)


def _assert_pow(spec, fops, a):
    q = spec.q
    for e in (0, 1, 2, q - 2, q - 1, q, 3 * q + 1):
        want = [(spec.element(int(k)) ** e).index for k in a]
        assert fops.pow(a, e).tolist() == want, e


@pytest.mark.parametrize("p, n", FIELDS_TO_256)
def test_every_pair_matches_field_elem(p, n):
    spec = ffield.make_field(p, n)
    fops = ffield.ops(spec)
    i, j = np.arange(spec.q)[:, None], np.arange(spec.q)
    for got, want in zip(_ops(fops, i, j), _reference(spec, i, j)):
        assert got.shape == (spec.q, spec.q) and np.array_equal(got, want)
    _assert_pow(spec, fops, np.arange(spec.q))  # 0^0 = 1, 0^e = 0 for e > 0


@pytest.mark.parametrize("p, n", [(7, 1), (2, 1), (2, 4), (3, 2), (3, 5)])
def test_zero_operands_0d_operands_and_broadcasting(p, n):
    spec = ffield.make_field(p, n)
    fops = ffield.ops(spec)
    x = np.arange(spec.q)
    assert np.array_equal(fops.add(x, 0), x) and np.array_equal(fops.add(0, x), x)
    assert np.array_equal(fops.sub(x, 0), x)
    assert (fops.add(x, fops.sub(0, x)) == 0).all()  # a + (-a)
    assert (fops.sub(x, x) == 0).all()
    assert (fops.mul(x, 0) == 0).all() and (fops.mul(0, x) == 0).all()
    assert np.array_equal(fops.mul(x, fops.one_index), x)
    # 0-d operands, as defform passes its constants and parameters
    for a, b in itertools.product((0, fops.one_index, spec.q - 1), repeat=2):
        for got, want in zip(_ops(fops, np.array(a), np.array(b)), _reference(spec, a, b)):
            assert np.shape(got) == () and got == want
        assert np.shape(fops.pow(np.array(a), 3)) == ()
    i, j = x.reshape(spec.q, 1), np.array([0, fops.one_index, spec.q - 1]).reshape(1, 1, 3)
    for got, want in zip(_ops(fops, i, j), _reference(spec, i, j)):
        assert got.shape == (1, spec.q, 3) and np.array_equal(got, want)


@pytest.mark.parametrize("p, n", [(2, 12), (3, 7), (5, 5), (2, 16)])
def test_random_pairs_match_field_elem(p, n):
    spec = ffield.make_field(p, n)
    fops = ffield.ops(spec)
    i, j = np.random.default_rng([p, n]).integers(spec.q, size=(2, 10 ** 5))
    want = _reference(spec, i, j)
    for got, w in zip(_ops(fops, i, j), want):
        assert np.array_equal(got, w)
    for k in range(300):  # the reference itself, pair by pair
        a, b = spec.element(int(i[k])), spec.element(int(j[k]))
        assert [w[k] for w in want] == [(a + b).index, (a - b).index, (a * b).index]
    _assert_pow(spec, fops, np.concatenate([[0], i[:50]]))


@pytest.mark.parametrize("p, n", [(3, 5), (2, 8)])
def test_arithmetic_never_splits_an_index_into_digits(monkeypatch, p, n):
    spec = ffield.make_field(p, n)
    fops = ffield.ops(spec)
    fops.mul(1, 1)  # builds the tables, the only user of the digit codecs

    def codec(*args):
        raise AssertionError("an arithmetic call went through the digit codecs")
    monkeypatch.setattr(ffield.FieldOps, "decode", codec)
    monkeypatch.setattr(ffield.FieldOps, "encode", codec)
    i, j = np.arange(spec.q)[:, None], np.arange(spec.q)
    for got, want in zip(_ops(fops, i, j), _reference(spec, i, j)):
        assert np.array_equal(got, want)
    _assert_pow(spec, fops, np.arange(spec.q))


def test_tables_are_proven_as_they_are_built(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2): the powers of x are 1, x, 1
    with pytest.raises(NotPrimitive):
        ffield.FieldOps(ffield.FieldSpec(2, 2, (1, 0, 1))).mul(1, 1)
    monkeypatch.setattr(ffield, "_primitive_element", lambda spec: spec.from_int(-1))
    with pytest.raises(NotPrimitive):
        ffield.FieldOps(ffield.make_field(3, 2)).pow(1, 2)


def test_tables_built_a_few_rows_at_a_time(monkeypatch):
    want = ffield.ops(ffield.make_field(3, 5))
    monkeypatch.setattr(ffield, "_BUILD_ROWS", 5)
    fops = ffield.FieldOps(ffield.make_field(3, 5))
    i, j = np.arange(243)[:, None], np.arange(243)
    for got, w in zip(_ops(fops, i, j), _ops(want, i, j)):
        assert np.array_equal(got, w)
