"""Formula parsing, canonical serialization, complexity, and evaluation."""

from __future__ import annotations

import random

import numpy as np
import pytest

from qrlab import defform
from qrlab.defform import BoolOp, Const, Eq, Not, Quant, TermOp, Var
from qrlab.errors import ArityTooLarge, FormulaSyntaxError, OrderOverflow, UnboundVariable
from qrlab.ffield import make_field


def test_complexity_reference_values():
    assert defform.parse("exists y. x = y*y & !(x = 0)").complexity == 14
    assert defform.parse("x = 0").complexity == 3
    assert defform.parse("x = x").complexity == 3


def test_free_vars_in_first_occurrence_order():
    f = defform.parse("y + x = z & x = y")
    assert f.free_vars == ("y", "x", "z")
    g = defform.parse("exists y. x = y")
    assert g.free_vars == ("x",)


def test_param_vars_separate_from_free():
    f = defform.parse("x = a*a + b", param_vars=("a", "b"))
    assert f.free_vars == ("x",)
    assert f.param_vars == ("a", "b")


def test_quantifier_cannot_rebind_parameter():
    with pytest.raises(UnboundVariable):
        defform.parse("exists a. x = a", param_vars=("a",))


def test_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        defform.parse("x = ")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        defform.parse("x = 0 )")
    with pytest.raises(FormulaSyntaxError):
        defform.parse("exists . x = 0")
    with pytest.raises(FormulaSyntaxError):
        defform.parse("x # 0")


def test_implication_desugars():
    f = defform.parse("x = 0 -> x = 1")
    assert f.serialize() == "!(x = 0) | x = 1"
    # right associative
    g = defform.parse("x = 0 -> x = 1 -> x = x")
    assert g.serialize() == "!(x = 0) | (!(x = 1) | x = x)"


def test_quantifier_scope_is_maximal():
    f = defform.parse("exists y. x = y & y = 0")
    assert isinstance(f.ast, Quant)
    assert isinstance(f.ast.body, BoolOp)


def test_serialize_preserves_term_grouping():
    for text, expected in [
        ("x - (y - z) = 0", "x - (y - z) = 0"),
        ("x - y - z = 0", "x - y - z = 0"),
        ("(x + y) * z = 0", "(x + y) * z = 0"),
        ("x * (y * z) = 0", "x * (y * z) = 0"),
        ("x*y + z = 0", "x * y + z = 0"),
    ]:
        assert defform.parse(text).serialize() == expected


def test_serialization_roundtrip_fuzz():
    rng = random.Random(11)
    names = ["x", "y", "z"]

    def rterm(d):
        if d == 0:
            return rng.choice([Const(rng.randint(0, 1)), Var(rng.choice(names))])
        return TermOp(rng.choice("+-*"), rterm(d - 1), rterm(d - 1))

    def rform(d):
        if d == 0:
            return Eq(rterm(2), rterm(1))
        r = rng.random()
        if r < 0.25:
            return Not(rform(d - 1))
        if r < 0.45:
            return Quant(rng.choice(["exists", "forall"]),
                         rng.choice(["u", "v"]), rform(d - 1))
        return BoolOp(rng.choice("&|"), rform(d - 1), rform(d - 1))

    for _ in range(500):
        ast = rform(rng.randint(1, 4))
        s = defform.serialize(ast)
        assert defform.serialize(defform.parse(s).ast) == s


def test_quadratic_residues_gf13():
    f = defform.parse("exists y. x = y*y & !(x = 0)")
    ds = defform.evaluate(f, make_field(13))
    assert np.flatnonzero(ds.membership).tolist() == [1, 3, 4, 9, 10, 12]
    assert ds.size == 6


def test_artin_schreier_image_gf4():
    f = defform.parse("exists y. x = y*y - y")
    ds = defform.evaluate(f, make_field(2, 2))
    assert np.flatnonzero(ds.membership).tolist() == [0, 2]  # {0, 1}


def test_forall_and_tautologies():
    f9 = make_field(3, 2)
    assert defform.evaluate(defform.parse("x * (y + z) = x*y + x*z"),
                            f9).membership.all()
    assert defform.evaluate(defform.parse("forall y. x * y = y * x"),
                            f9).membership.all()
    assert not defform.evaluate(defform.parse("x = x & !(x = x)"),
                                f9).membership.any()


def test_implication_semantics():
    f = defform.parse("x = 0 -> x * x = 0")
    assert defform.evaluate(f, make_field(7)).membership.all()


def test_parameters_substitute():
    f13 = make_field(13)
    f = defform.parse("x = a*a", param_vars=("a",))
    ds = defform.evaluate(f, f13, params={"a": f13.element(5)})
    assert np.flatnonzero(ds.membership).tolist() == [12]
    ds2 = defform.evaluate(f, f13, params={"a": 5})
    assert np.array_equal(ds.membership, ds2.membership)
    with pytest.raises(UnboundVariable):
        defform.evaluate(f, f13)


def test_multi_arity_grid_order():
    # membership is C-ordered over (x, y); cell = x*q + y
    f7 = make_field(7)
    f = defform.parse("x = y")
    ds = defform.evaluate(f, f7)
    assert ds.arity == 2
    hits = np.flatnonzero(ds.membership)
    assert hits.tolist() == [i * 7 + i for i in range(7)]


def test_arity_cap():
    f = defform.parse("exists u. exists v. x = u & y = v & z = u*v")
    with pytest.raises(ArityTooLarge):
        defform.evaluate(f, make_field(2, 6))  # 64^5 cells > 2^26


def test_rle_roundtrip():
    f = defform.parse("exists y. x = y*y & !(x = 0)")
    ds = defform.evaluate(f, make_field(13))
    rle = ds.to_rle()
    assert rle["q"] == 13 and rle["arity"] == 1
    assert sum(rle["runs"]) == 13
    # reconstruct
    bits = []
    cur = rle["first"]
    for run in rle["runs"]:
        bits.extend([cur] * run)
        cur = not cur
    assert np.array_equal(np.array(bits, dtype=bool), ds.membership)


def test_complexity_counts_tokens_not_dots():
    # "forall y. x*y = y*x": forall, y, x, *, y, =, y, *, x -> 9 tokens
    assert defform.parse("forall y. x*y = y*x").complexity == 9
    # negation operand is always parenthesized in canonical form
    assert defform.parse("!(x = 0)").complexity == 6
    assert defform.parse("! x = 0").complexity == 6


# -- structured routes against the grid -------------------------------------------

FIELDS_TO_50 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1),
                (31, 1), (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2)]
REFERENCE_CELLS = 2 ** 17  # every formula with 3 axes at q <= 50

# (text, parameter names): the formulas of the tests above, the counting
# workload's five, the four family formulas and parameterised atoms
KNOWN = [
    ("exists y. x = y*y & !(x = 0)", ()), ("x = 0", ()), ("x = x", ()),
    ("y + x = z & x = y", ()), ("x = a*a + b", ("a", "b")), ("exists y. x = y", ()),
    ("x = 0 -> x = 1", ()), ("x = 0 -> x = 1 -> x = x", ()),
    ("exists y. x = y & y = 0", ()), ("x - (y - z) = 0", ()), ("x - y - z = 0", ()),
    ("(x + y) * z = 0", ()), ("x * (y * z) = 0", ()), ("x*y + z = 0", ()),
    ("exists y. x = y*y - y", ()), ("x * (y + z) = x*y + x*z", ()),
    ("forall y. x * y = y * x", ()), ("x = x & !(x = x)", ()),
    ("x = 0 -> x * x = 0", ()), ("x = a*a", ("a",)), ("x = y", ()),
    ("exists u. exists v. x = u & y = v & z = u*v", ()),
    ("forall y. x*y = y*x", ()), ("!(x = 0)", ()), ("! x = 0", ()),
    ("y*y = x*x*x + x + 1", ()), ("x*x + y*y = z*z", ()),
    ("exists y. exists z. x = y*y*y + z*z*z", ()),
    ("exists y. a + d = y*y & !(a + d = 0)", ()), ("exists y. x = y*y*y & !(x = 0)", ()),
    ("exists y. x = y*y*y - y", ()), ("exists y. x = y*y*y*y*y - y", ()), ("exists y. exists y. x = y*y", ()),
    ("x*x + a = y*y*y", ("a",)), ("exists y. x + a = a*y*y & !(x = a)", ("a",)),
    ("0 = 1", ()), ("1 = 1 + 1", ()),
]


def _grid(f, spec, params=None):
    """Membership by the grid alone: the image route switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(defform, "_image", lambda *args: None)
        return defform.evaluate(f, spec, params).membership


def _random_formula(rng):
    """A seeded formula in free x, y, z, bound u, v and the parameter a,
    half of them in one of the two structured shapes."""
    free, bound = ["x", "y", "z"], ["u", "v"]

    def term(names, d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice([Const(0), Const(1), Var("a")] + [Var(n) for n in names])
        return TermOp(rng.choice("+-*"), term(names, d - 1), term(names, d - 1))

    def formula(names, d):
        r = rng.random()
        if d == 0 or r < 0.3:
            return Eq(term(names, 2), term(names, 2))
        if r < 0.45:
            return Not(formula(names, d - 1))
        if r < 0.65:
            v = rng.choice(bound)
            return Quant(rng.choice(["exists", "forall"]), v, formula(names + [v], d - 1))
        return BoolOp(rng.choice("&|"), formula(names, d - 1), formula(names, d - 1))

    shape = rng.random()
    if shape < 0.25:  # a separable atom
        split = rng.randint(1, 2)
        return Eq(term(free[:split], 3), term(free[split:], 3))
    if shape < 0.5:  # an image, its binding atom either way round, with conditions
        ys = bound[:rng.randint(1, 2)]
        atom = [term(free[:rng.randint(1, 2)], 2), term(ys, 3)]
        rng.shuffle(atom)
        body = Eq(*atom)
        for _ in range(rng.randint(0, 2)):
            c = formula(free[:2], 1)
            body = BoolOp("&", c, body) if rng.random() < 0.5 else BoolOp("&", body, c)
        for y in reversed(ys):
            body = Quant("exists", y, body)
        return body
    return formula(free[:2], 2)


def _cases():
    rng = random.Random(33)
    for text, params in KNOWN:
        yield defform.parse(text, param_vars=params)
    for _ in range(200):
        text = defform.serialize(_random_formula(rng))
        uses_a = ("ident", "a") in [t[:2] for t in defform.tokenize(text)]
        yield defform.parse(text, param_vars=("a",) if uses_a else ())


@pytest.mark.parametrize("p, n", FIELDS_TO_50)
def test_structured_routes_equal_the_grid(p, n):
    spec = make_field(p, n)
    checked = 0
    for f in _cases():
        cells = spec.q ** (len(f.free_vars) + defform._max_depth(f.ast))
        if cells > REFERENCE_CELLS:
            continue
        params = {v: 2 for v in f.param_vars}
        want = _grid(f, spec, params)
        assert np.array_equal(defform.evaluate(f, spec, params).membership, want), f
        assert defform.count(f, spec, params) == np.count_nonzero(want), f
        checked += 1
    assert checked >= 200


def test_count_of_a_separable_atom_needs_no_grid_under_the_cap():
    cone = defform.parse("x*x + y*y = z*z")
    assert defform.count(cone, make_field(2, 9)) == 512 ** 2
    with pytest.raises(ArityTooLarge):
        defform.evaluate(cone, make_field(2, 9))
    with pytest.raises(ArityTooLarge):  # the side x*x + y*y has 8209^2 cells
        defform.count(cone, make_field(8209))


@pytest.mark.parametrize("p", [4294967311, 2 ** 61 - 1])
def test_ground_sentence_above_the_cell_cap_raises(p):
    # no variable, so the grid check passes with q^0 cells, while (p-1)^2
    # overflows int64 above p ~ 3.04e9
    f = defform.parse("a*a = 1", param_vars=("a",))
    for run in (defform.evaluate, defform.count):
        with pytest.raises(OrderOverflow):
            run(f, make_field(p), {"a": -1})


def test_each_route_skips_the_grid(monkeypatch):
    calls = {"evaluate": 0, "any": 0}
    evaluate, any_ = defform.evaluate, np.any

    def counted_evaluate(*a, **kw):
        calls["evaluate"] += 1
        return evaluate(*a, **kw)

    def counted_any(*a, **kw):
        calls["any"] += 1
        return any_(*a, **kw)
    monkeypatch.setattr(defform, "evaluate", counted_evaluate)
    monkeypatch.setattr(np, "any", counted_any)
    spec = make_field(3, 3)
    for text in ("x*x + y*y = z*z", "y*y = x*x*x + x + 1"):
        defform.count(defform.parse(text), spec)
    assert calls == {"evaluate": 0, "any": 0}
    for text in ("exists y. x = y*y & !(x = 0)", "exists y. exists z. x = y*y*y + z*z*z",
                 "exists y. a + d = y*y & !(a + d = 0)", "exists y. x = y*y*y - y"):
        defform.count(defform.parse(text), spec)
    assert calls == {"evaluate": 4, "any": 0}
    defform.count(defform.parse("exists y. x = y*y & y = x"), spec)  # two atoms bind y
    assert calls == {"evaluate": 5, "any": 1}
