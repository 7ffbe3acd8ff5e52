"""First-order ring-language formulas with parameters, their evaluation over
finite fields, and the size of the sets they define.

Grammar (text form)::

    term    := factor (("+" | "-") factor)*
    factor  := primary ("*" primary)*
    primary := "0" | "1" | ident | "(" term ")"
    atom    := term "=" term
    formula := implication
    impl    := or_f ("->" formula)?          # right associative, desugars to !a | b
    or_f    := and_f ("|" and_f)*
    and_f   := unary ("&" unary)*
    unary   := "!" unary | "exists" ident "." formula | "forall" ident "." formula
             | atom | "(" formula ")"

The AST keeps only {+, -, *, =, &, |, !, exists, forall}; "->" is removed at
parse time.  Complexity is the token count of the canonical serialization,
which parenthesizes negation operands, adds grouping parentheses only where
re-parsing would otherwise change the tree, and treats the quantifier dot as
punctuation (not a token).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityTooLarge, FormulaSyntaxError, UnboundVariable
from .ffield import CELL_CAP, FieldSpec, ops


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class TermOp:
    op: str  # '+', '-', '*'
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class BoolOp:
    op: str  # '&', '|'
    left: object
    right: object


@dataclass(frozen=True)
class Quant:
    kind: str  # 'exists', 'forall'
    var: str
    body: object


# -- tokenizer ----------------------------------------------------------------

_PUNCT = {"+", "-", "*", "=", "(", ")", "!", "&", "|", "."}
_KEYWORDS = {"exists", "forall"}


def tokenize(text: str):
    """Yields (kind, value, position); kind in {num, ident, punct, kw, arrow}."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            out.append(("arrow", "->", i))
            i += 2
            continue
        if c in _PUNCT:
            out.append(("punct", c, i))
            i += 1
            continue
        if c in "01":
            out.append(("num", c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(("kw" if word in _KEYWORDS else "ident", word, i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None, value=None):
        k, v, p = self.toks[self.pos]
        if (kind is not None and k != kind) or (value is not None and v != value):
            raise FormulaSyntaxError(f"unexpected token {v!r}", p,
                                     expected=(value,) if value else (kind,))
        self.pos += 1
        return v

    # terms
    def primary(self):
        k, v, p = self.peek()
        if k == "num":
            self.take()
            return Const(int(v))
        if k == "ident":
            self.take()
            return Var(v)
        if (k, v) == ("punct", "("):
            self.take()
            t = self.term()
            self.take("punct", ")")
            return t
        raise FormulaSyntaxError(f"unexpected token {v!r} in term", p,
                                 expected=("0", "1", "identifier", "("))

    def factor(self):
        t = self.primary()
        while self.peek()[:2] == ("punct", "*"):
            self.take()
            t = TermOp("*", t, self.primary())
        return t

    def term(self):
        t = self.factor()
        while self.peek()[0] == "punct" and self.peek()[1] in "+-":
            op = self.take()
            t = TermOp(op, t, self.factor())
        return t

    # formulas
    def atom(self):
        left = self.term()
        self.take("punct", "=")
        return Eq(left, self.term())

    def unary(self):
        k, v, p = self.peek()
        if (k, v) == ("punct", "!"):
            self.take()
            return Not(self.unary())
        if k == "kw":
            self.take()
            name = self.take("ident")
            self.take("punct", ".")
            return Quant(v, name, self.formula())
        if (k, v) == ("punct", "("):
            # lookahead: parenthesized formula vs parenthesized term opening an atom
            save = self.pos
            try:
                self.take()
                f = self.formula()
                self.take("punct", ")")
                if self.peek()[:2] == ("punct", "="):
                    raise FormulaSyntaxError("atom", p)  # it was a term after all
                return f
            except FormulaSyntaxError:
                self.pos = save
                return self.atom()
        return self.atom()

    def and_f(self):
        f = self.unary()
        while self.peek()[:2] == ("punct", "&"):
            self.take()
            f = BoolOp("&", f, self.unary())
        return f

    def or_f(self):
        f = self.and_f()
        while self.peek()[:2] == ("punct", "|"):
            self.take()
            f = BoolOp("|", f, self.and_f())
        return f

    def formula(self):
        f = self.or_f()
        if self.peek()[0] == "arrow":
            self.take()
            g = self.formula()
            return BoolOp("|", Not(f), g)
        return f


# -- serialization and complexity ----------------------------------------------

def _ser_term(node, parent):
    """parent in {None, '+', '*', 'rhs+', 'rhs*'} controls grouping."""
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    s = f"{_ser_term(node.left, node.op)} {node.op} {_ser_term(node.right, 'rhs' + node.op)}"
    need = False
    if parent in ("*", "rhs*") and node.op in "+-":
        need = True
    elif parent in ("rhs+", "rhs-") and node.op in "+-":
        need = True  # right operand of same precedence: keep left-assoc reparse
    elif parent == "rhs*":
        need = True
    return f"({s})" if need else s


def _ser_formula(node, parent):
    """parent in {None, '&', '|', 'rhs&', 'rhs|', '!'}."""
    if isinstance(node, Eq):
        return f"{_ser_term(node.left, None)} = {_ser_term(node.right, None)}"
    if isinstance(node, Not):
        return f"!({_ser_formula(node.body, None)})"
    if isinstance(node, Quant):
        s = f"{node.kind} {node.var}. {_ser_formula(node.body, None)}"
        # quantifier scope runs maximally right: parenthesize unless rightmost
        return f"({s})" if parent in ("&", "|", "rhs&", "rhs|") else s
    if isinstance(node, BoolOp):
        s = f"{_ser_formula(node.left, node.op)} {node.op} {_ser_formula(node.right, 'rhs' + node.op)}"
        need = False
        if node.op == "|" and parent in ("&", "rhs&"):
            need = True
        elif parent == "rhs" + node.op:
            need = True
        return f"({s})" if need else s
    raise TypeError(f"not a formula node: {node!r}")


def serialize(node) -> str:
    return _ser_formula(node, None)


def _count_tokens(text: str) -> int:
    return sum(1 for k, v, _ in tokenize(text) if k != "eof" and (k, v) != ("punct", "."))


def _walk_idents(node, bound, free_order, param_names):
    if isinstance(node, Var):
        if node.name not in bound | param_names and node.name not in free_order:
            free_order.append(node.name)
    elif isinstance(node, (TermOp, Eq, BoolOp)):
        _walk_idents(node.left, bound, free_order, param_names)
        _walk_idents(node.right, bound, free_order, param_names)
    elif isinstance(node, Not):
        _walk_idents(node.body, bound, free_order, param_names)
    elif isinstance(node, Quant):
        if node.var in param_names:
            raise UnboundVariable(f"quantifier rebinds parameter {node.var!r}")
        _walk_idents(node.body, bound | {node.var}, free_order, param_names)


def _max_depth(node):
    """Maximal number of simultaneously live quantifier axes."""
    if isinstance(node, (Const, Var, TermOp, Eq)):
        return 0
    if isinstance(node, Not):
        return _max_depth(node.body)
    if isinstance(node, BoolOp):
        return max(_max_depth(node.left), _max_depth(node.right))
    if isinstance(node, Quant):
        return 1 + _max_depth(node.body)
    raise TypeError


@dataclass(frozen=True)
class Formula:
    """Parsed ring-language formula with resolved binders."""

    ast: object
    free_vars: tuple[str, ...]
    param_vars: tuple[str, ...]

    @property
    def complexity(self) -> int:
        return complexity(self)

    def serialize(self) -> str:
        return serialize(self.ast)

    def __str__(self):
        return self.serialize()


def parse(text: str, param_vars=()) -> Formula:
    """Parse formula text; identifiers named in param_vars become parameters."""
    p = _Parser(tokenize(text))
    ast = p.formula()
    if p.peek()[0] != "eof":
        k, v, pos = p.peek()
        raise FormulaSyntaxError(f"trailing input {v!r}", pos, expected=("end of input",))
    free_order: list[str] = []
    _walk_idents(ast, frozenset(), free_order, frozenset(param_vars))
    return Formula(ast=ast, free_vars=tuple(free_order), param_vars=tuple(param_vars))


def complexity(f: Formula | object) -> int:
    """Token count of the canonical serialization (quantifier dots excluded)."""
    node = f.ast if isinstance(f, Formula) else f
    return _count_tokens(serialize(node))


# -- evaluation -----------------------------------------------------------------

@dataclass(frozen=True)
class DefinableSet:
    """Exact solution set over F^arity as a dense membership bitset.

    membership is flattened C-order over the grid (q, ..., q) whose axes
    follow the free variables of the formula that defined it, in their
    first-occurrence order; cell index = sum_i idx_i * q^(arity-1-i).
    """

    field: FieldSpec
    arity: int
    membership: np.ndarray  # bool, length q**arity

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.membership))

    def to_rle(self) -> dict:
        """Run-length encoding with an enumeration-order header."""
        bits = self.membership
        runs = []
        if len(bits):
            flips = np.flatnonzero(np.diff(bits.view(np.int8)))
            prev = 0
            for f_ in flips:
                runs.append(int(f_ + 1 - prev))
                prev = int(f_ + 1)
            runs.append(int(len(bits) - prev))
        return {
            "q": self.field.q,
            "arity": self.arity,
            "order_hash": self.field.order_hash,
            "first": bool(bits[0]) if len(bits) else False,
            "runs": runs,
        }


def _eval_term(node, fops, env, ndims):
    q = fops.spec.q
    if isinstance(node, Const):
        idx = fops.one_index if node.value == 1 else fops.zero_index
        return np.array(idx, dtype=np.int64)
    if isinstance(node, Var):
        kind, val = env[node.name]
        if kind == "const":
            return np.array(val, dtype=np.int64)
        shape = [1] * ndims
        shape[val] = q
        return np.arange(q, dtype=np.int64).reshape(shape)
    if isinstance(node, TermOp):
        a = _eval_term(node.left, fops, env, ndims)
        b = _eval_term(node.right, fops, env, ndims)
        if node.op == "+":
            return fops.add(a, b)
        if node.op == "-":
            return fops.sub(a, b)
        return fops.mul(a, b)
    raise TypeError(f"not a term node: {node!r}")


def _names(node) -> set:
    """The variable and parameter names free in a term or formula node."""
    out: list[str] = []
    _walk_idents(node, frozenset(), out, frozenset())
    return set(out)


def _conjuncts(node) -> list:
    if isinstance(node, BoolOp) and node.op == "&":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _image(node, fops, env, ndims):
    """exists y1 ... yk. s = t & C, with t in the ys, constants and
    parameters, and neither s nor the other conjuncts C mentioning a y, is
    (t's values read at s) & C, since exists y. (A & C) = (exists y. A) & C:
    t is scattered once over its q^k cells into a length-q mask.  None when
    node has another shape."""
    ys = set()
    while isinstance(node, Quant) and node.kind == "exists":
        ys.add(node.var)
        node = node.body
    conjuncts = _conjuncts(node)
    bound = [i for i, c in enumerate(conjuncts) if _names(c) & ys]
    if len(bound) != 1 or not isinstance(conjuncts[bound[0]], Eq):
        return None
    atom = conjuncts.pop(bound[0])
    for s, t in ((atom.left, atom.right), (atom.right, atom.left)):
        t_ys = _names(t) - {name for name, (kind, _) in env.items() if kind == "const"}
        if _names(s) & ys or not t_ys <= ys:
            continue
        t_env = dict(env, **{y: ("axis", i) for i, y in enumerate(sorted(t_ys))})
        mask = np.zeros(fops.spec.q, dtype=bool)
        mask[np.ravel(_eval_term(t, fops, t_env, len(t_ys)))] = True
        out = mask[_eval_term(s, fops, env, ndims)]
        for c in conjuncts:
            out = out & _eval_formula(c, fops, env, ndims)
        return out
    return None


def _eval_formula(node, fops, env, ndims):
    if isinstance(node, Eq):
        a = _eval_term(node.left, fops, env, ndims)
        b = _eval_term(node.right, fops, env, ndims)
        return a == b
    if isinstance(node, Not):
        return ~_eval_formula(node.body, fops, env, ndims)
    if isinstance(node, BoolOp):
        a = _eval_formula(node.left, fops, env, ndims)
        b = _eval_formula(node.right, fops, env, ndims)
        return (a & b) if node.op == "&" else (a | b)
    if isinstance(node, Quant):
        image = _image(node, fops, env, ndims)
        if image is not None:
            return image
        env2 = dict(env)
        env2[node.var] = ("axis", ndims)
        body = _eval_formula(node.body, fops, env2, ndims + 1)
        if body.ndim < ndims + 1:
            # the bound variable never occurs; any/all over identical copies
            return body
        reducer = np.any if node.kind == "exists" else np.all
        return reducer(body, axis=-1)
    raise TypeError(f"not a formula node: {node!r}")


def _param_env(f: Formula, field_spec: FieldSpec, params) -> dict:
    """The env entry ("const", index) of each of f's parameters."""
    params = dict(params or {})
    missing = [v for v in f.param_vars if v not in params]
    if missing:
        raise UnboundVariable(f"parameters not assigned: {missing}")
    env = {}
    for name, val in params.items():
        if hasattr(val, "index"):
            idx = val.index if isinstance(val.index, int) else field_spec.index(val)
        else:
            idx = field_spec.from_int(int(val)).index
        env[name] = ("const", idx)
    return env


def _check_cells(q: int, axes: int) -> None:
    if q ** axes > CELL_CAP:
        raise ArityTooLarge(f"a grid of {q}^{axes} cells exceeds the cell cap {CELL_CAP}")


def evaluate(f: Formula, field_spec: FieldSpec, params=None) -> DefinableSet:
    """Exact solution set of f over field_spec^arity, on the grid of its free
    and bound variables but for the existential images that _image scatters."""
    env = _param_env(f, field_spec, params)
    q = field_spec.q
    arity = len(f.free_vars)
    _check_cells(q, arity + _max_depth(f.ast))
    for i, v in enumerate(f.free_vars):
        env[v] = ("axis", i)
    result = _eval_formula(f.ast, ops(field_spec), env, arity)
    full_shape = (q,) * arity
    if np.shape(result) != full_shape:
        result = np.broadcast_to(result, full_shape)
    membership = np.ascontiguousarray(result, dtype=bool).reshape(-1)
    return DefinableSet(field=field_spec, arity=arity, membership=membership)


def count(f: Formula, field_spec: FieldSpec, params=None) -> int:
    """|set f defines over field_spec^arity|, without its grid when f is one
    atom whose two sides share no variable: each side is evaluated on the
    grid of its own variables, and the count is the dot product of the two
    sides' value histograms.  Every other formula is counted by evaluate."""
    sides = (f.ast.left, f.ast.right) if isinstance(f.ast, Eq) else ()
    names = [[v for v in f.free_vars if v in side] for side in map(_names, sides)]
    if not sides or set(names[0]) & set(names[1]):
        return evaluate(f, field_spec, params).size
    env = _param_env(f, field_spec, params)
    q = field_spec.q
    _check_cells(q, max(map(len, names)))
    hists = []
    for side, side_names in zip(sides, names):
        side_env = dict(env, **{v: ("axis", i) for i, v in enumerate(side_names)})
        values = _eval_term(side, ops(field_spec), side_env, len(side_names))
        values = np.broadcast_to(values, (q,) * len(side_names))
        hists.append(np.bincount(values.ravel(), minlength=q))
    return int(hists[0] @ hists[1])
