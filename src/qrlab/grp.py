"""Concrete finite groups as dense multiplication tables, plus subgroups,
cosets, conjugacy classes, abelian character phases, and normal-subgroup
enumeration.

Element ids are dense integers 0..order-1.  Subsets of a group are boolean
masks over ids, so all downstream counting is plain array algebra.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Optional

import numpy as np

from . import ffield
from .errors import (CosetMismatch, NotAbelian, NotAGroup,
                     NotNormalWhenRequired, OrderCap, QrlabError)
from .ffield import FieldSpec, ops

EXHAUSTIVE_LAW_CAP = 512
RANDOM_TRIPLES = 10 ** 5
SUBGROUP_LATTICE_CAP = 20000


@dataclass
class GroupTable:
    """Finite group on ids 0..order-1 backed by a dense multiplication table."""

    order: int
    table: np.ndarray  # (order, order) uint16, table[a, b] = a·b
    identity: int
    inv: np.ndarray  # (order,) uint16
    label: str = "table"
    element_names: Optional[tuple] = None
    field: Optional[FieldSpec] = None
    # `field` above shadows dataclasses.field from here on in the class body
    sl2_entries: Optional[np.ndarray] = dataclasses.field(  # (order, 4): a, b, c, d
        default=None, init=False, repr=False, compare=False)
    derived: dict = dataclasses.field(  # per_group results, keyed by function
        default_factory=dict, init=False, repr=False, compare=False)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        cur = np.arange(n)
        k = 1
        while (orders == 0).any():
            done = (cur == self.identity) & (orders == 0)
            orders[done] = k
            cur = self.table[cur, np.arange(n)]
            k += 1
        return orders

    @cached_property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders))

    def name_of(self, e: int) -> str:
        if self.element_names is not None:
            return self.element_names[e]
        return str(e)

    def __str__(self):
        return f"{self.label} group of order {self.order}"


def per_group(fn):
    """Memoizes fn(g) in g.derived, so data the table fixes (characters,
    classes, class constants) is computed once per GroupTable instance.
    Every caller shares the result, so fn returns its arrays read-only.
    """
    @wraps(fn)
    def cached(g: GroupTable):
        if fn not in g.derived:
            g.derived[fn] = fn(g)
        return g.derived[fn]
    return cached


def readonly(a: np.ndarray) -> np.ndarray:
    """Marks a freshly built array read-only and returns it."""
    a.flags.writeable = False
    return a


def _verify_laws(gt: GroupTable, seed: int = 0) -> None:
    n = gt.order
    t = gt.table
    ids = np.arange(n)
    if t.shape != (n, n):
        raise NotAGroup(f"table shape {t.shape} is not ({n}, {n})")
    # Latin square: each row and column is a permutation
    for axis in (0, 1):
        s = np.sort(t, axis=axis)
        if not np.array_equal(s, np.broadcast_to(ids[:, None] if axis == 0
                                                 else ids[None, :], (n, n))):
            raise NotAGroup("multiplication table is not a Latin square")
    e = gt.identity
    if not (np.array_equal(t[e], ids) and np.array_equal(t[:, e], ids)):
        raise NotAGroup("identity law fails")
    if not (np.array_equal(t[ids, gt.inv], np.full(n, e))
            and np.array_equal(t[gt.inv, ids], np.full(n, e))):
        raise NotAGroup("inverse law fails")
    if n <= EXHAUSTIVE_LAW_CAP:
        for a in range(n):
            # (a·b)·c vs a·(b·c) for all b, c at once
            if not np.array_equal(t[t[a], :], t[a][t]):
                raise NotAGroup(f"associativity fails at a={a}")
    else:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, RANDOM_TRIPLES)
        b = rng.integers(0, n, RANDOM_TRIPLES)
        c = rng.integers(0, n, RANDOM_TRIPLES)
        if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
            raise NotAGroup("associativity fails on a random triple")


def make_group(table: np.ndarray, identity: int, label: str = "table",
               element_names=None, field_spec=None,
               verify: bool = True) -> GroupTable:
    """Wraps a multiplication table, computes inverses, verifies group laws."""
    n = len(table)
    if n > ffield.TABLE_CAP:
        raise OrderCap(f"group order {n} exceeds dense table cap {ffield.TABLE_CAP}")
    table = np.ascontiguousarray(table, dtype=np.uint16)
    inv = np.empty(n, dtype=np.uint16)
    rows, cols = np.nonzero(table == identity)
    inv[rows] = cols
    gt = GroupTable(order=n, table=table, identity=identity, inv=inv,
                    label=label, element_names=element_names,
                    field=field_spec)
    if verify:
        _verify_laws(gt)
    return gt


# -- constructors -------------------------------------------------------------

def additive_group(spec: FieldSpec) -> GroupTable:
    """(F_q, +) with element ids equal to field element indices."""
    fops = ops(spec)
    names = tuple(str(spec.element(i)) for i in range(spec.q))
    return make_group(fops.add_table(), fops.zero_index, label="additive",
                      element_names=names, field_spec=spec)


def multiplicative_group(spec: FieldSpec) -> GroupTable:
    """(F_q^*, ·); group id e corresponds to field index e + 1."""
    fops = ops(spec)
    mt = fops.mul_table()[1:, 1:].astype(np.int64) - 1
    names = tuple(str(spec.element(i + 1)) for i in range(spec.q - 1))
    return make_group(mt, fops.one_index - 1, label="multiplicative",
                      element_names=names, field_spec=spec)


def cyclic_group(n: int) -> GroupTable:
    """Z/n written additively; id arithmetic is addition mod n."""
    ids = np.arange(n)
    return make_group((ids[:, None] + ids[None, :]) % n, 0, label="product")


def sl2(spec: FieldSpec) -> GroupTable:
    """SL2(F_q): 2x2 matrices of determinant 1, ids in enumeration order."""
    q = spec.q
    order = q * (q * q - 1)
    if order > ffield.TABLE_CAP:
        raise OrderCap(f"|SL2(F_{q})| = {order} exceeds dense table cap {ffield.TABLE_CAP}")
    fops = ops(spec)
    a, b, c, d = [x.ravel() for x in np.meshgrid(*[np.arange(q)] * 4, indexing="ij")]
    det = fops.sub(fops.mul(a, d), fops.mul(b, c))
    keep = det == fops.one_index
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    if len(a) != order:
        raise NotAGroup(f"{len(a)} matrices of determinant 1 over F_{q}, expected {order}")
    # key lookup: (a, b, c, d) -> group id
    key = ((a * q + b) * q + c) * q + d
    lookup = np.full(q ** 4, -1, dtype=np.int64)
    lookup[key] = np.arange(order)
    # all pairwise products via field ops on broadcast id arrays
    A, B, C, D = a[:, None], b[:, None], c[:, None], d[:, None]
    pa = fops.add(fops.mul(A, a[None, :]), fops.mul(B, c[None, :]))
    pb = fops.add(fops.mul(A, b[None, :]), fops.mul(B, d[None, :]))
    pc = fops.add(fops.mul(C, a[None, :]), fops.mul(D, c[None, :]))
    pd = fops.add(fops.mul(C, b[None, :]), fops.mul(D, d[None, :]))
    table = lookup[((pa * q + pb) * q + pc) * q + pd]
    if (table < 0).any():
        raise NotAGroup(f"a product in SL2(F_{q}) has determinant other than 1")
    ident = int(lookup[((fops.one_index * q + 0) * q + 0) * q + fops.one_index])
    names = tuple(f"[[{ai},{bi}],[{ci},{di}]]" for ai, bi, ci, di in zip(a, b, c, d))
    gt = make_group(table, ident, label="sl2", element_names=names, field_spec=spec)
    gt.sl2_entries = np.stack([a, b, c, d], axis=1)
    return gt


def parse_group_literal(text: str, modulus=None) -> GroupTable:
    """Builds a group from a literal like "add:3^2", "mul:13", or "sl2:5"."""
    from .ffield import make_field, parse_field_literal
    kind, _, fld = text.partition(":")
    if not fld:
        raise QrlabError(f"bad group literal {text!r}; expected kind:field")
    spec = parse_field_literal(fld, modulus=modulus)
    builders = {"add": additive_group, "mul": multiplicative_group, "sl2": sl2}
    if kind not in builders:
        raise QrlabError(f"unknown group kind {kind!r}; expected add, mul, or sl2")
    return builders[kind](spec)


# -- subgroups and cosets -----------------------------------------------------

@dataclass
class Subgroup:
    """Verified subgroup, stored as a boolean membership mask over parent ids."""

    parent: GroupTable
    members: np.ndarray  # bool mask, length parent.order
    index: int = field(init=False)
    normal: bool = field(init=False)

    def __post_init__(self):
        g = self.parent
        mask = np.asarray(self.members, dtype=bool)
        self.members = mask
        elems = np.flatnonzero(mask)
        size = len(elems)
        if size == 0 or not mask[g.identity]:
            raise QrlabError("subgroup must contain the identity")
        if g.order % size != 0:
            raise QrlabError("subgroup size does not divide group order")
        if not mask[g.table[np.ix_(elems, elems)]].all():
            raise QrlabError("subgroup not closed under multiplication")
        if not mask[g.inv[elems]].all():
            raise QrlabError("subgroup not closed under inverse")
        self.index = g.order // size
        conj = g.table[g.table[:, elems], g.inv[:, None]]  # (n, |H|): g h g^-1
        self.normal = bool(mask[conj].all())

    @property
    def size(self) -> int:
        return int(self.members.sum())

    def element_ids(self) -> np.ndarray:
        return np.flatnonzero(self.members)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and np.array_equal(self.members, other.members))

    def __hash__(self):
        return hash((id(self.parent), self.members.tobytes()))


@dataclass
class CosetDecomposition:
    subgroup: Subgroup
    reps: np.ndarray      # smallest id in each coset, sorted
    coset_of: np.ndarray  # id -> coset number

    @property
    def index(self) -> int:
        return len(self.reps)

    def coset_ids(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.coset_of == i)


def cosets(h: Subgroup, require_normal: bool = False) -> CosetDecomposition:
    """Left-coset partition gH with smallest-id representatives.

    For normal subgroups the left and right partitions are checked equal.
    """
    if require_normal and not h.normal:
        raise NotNormalWhenRequired("subgroup is not normal")
    g = h.parent
    n = g.order
    elems = h.element_ids()
    left = g.table[:, elems]  # row x = coset xH
    coset_min = left.min(axis=1)
    reps = np.unique(coset_min)
    coset_of = np.searchsorted(reps, coset_min)
    if h.normal:
        right = g.table[np.ix_(elems, np.arange(n))]  # column x = coset Hx
        if not np.array_equal(right.min(axis=0), coset_min):
            raise CosetMismatch("left and right cosets of a normal subgroup differ")
    if len(reps) != h.index:
        raise CosetMismatch(f"{len(reps)} left cosets, expected index {h.index}")
    return CosetDecomposition(subgroup=h, reps=reps, coset_of=coset_of)


def subgroup_group(h: Subgroup, verify: bool = True) -> GroupTable:
    """The subgroup as a standalone GroupTable; id i is parent id elems[i]."""
    g = h.parent
    elems = h.element_ids()
    reindex = np.full(g.order, -1, dtype=np.int64)
    reindex[elems] = np.arange(len(elems))
    table = reindex[g.table[np.ix_(elems, elems)]]
    ident = int(reindex[g.identity])
    names = tuple(g.name_of(int(e)) for e in elems)
    return make_group(table, ident, label="subgroup", element_names=names,
                      field_spec=g.field, verify=verify)


def quotient_group(h: Subgroup) -> GroupTable:
    """G/H for normal H; ids are coset numbers of the coset decomposition."""
    if not h.normal:
        raise NotNormalWhenRequired("quotient requires a normal subgroup")
    dec = cosets(h)
    g = h.parent
    reps = dec.reps
    table = dec.coset_of[g.table[np.ix_(reps, reps)]]
    return make_group(table, int(dec.coset_of[g.identity]), label="quotient")


def generated_subgroup(g: GroupTable, gens) -> Subgroup:
    """Smallest subgroup containing gens, by closure iteration."""
    cur = np.zeros(g.order, dtype=bool)
    cur[g.identity] = True
    cur[np.asarray(list(gens), dtype=np.int64)] = True
    cur[g.inv[cur]] = True
    while True:
        elems = np.flatnonzero(cur)
        new = np.zeros(g.order, dtype=bool)
        new[g.table[np.ix_(elems, elems)]] = True
        if (new == cur).all():
            return Subgroup(parent=g, members=cur)
        cur = new | cur


@per_group
def conjugacy_classes(g: GroupTable) -> tuple:
    """Conjugacy classes as sorted id arrays, ordered by smallest member."""
    n = g.order
    ids = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        cls = np.unique(g.table[g.table[ids, x], g.inv])  # g x g^-1 over all g
        seen[cls] = True
        classes.append(readonly(cls))
    return tuple(classes)


# -- abelian characters -------------------------------------------------------

@per_group
def character_phases(g: GroupTable):
    """Characters of an abelian group as exact integer phases.

    Returns (L, phases) where L is the group exponent and phases is an
    (order, order) integer array with character i taking the value
    exp(2*pi*1j*phases[i, x]/L) at element x.  Built by extending characters
    one cyclic step at a time, so everything stays in exact arithmetic.
    """
    if not g.is_abelian:
        raise NotAbelian("character phases require an abelian group")
    n = g.order
    L = g.exponent
    t = g.table
    sub = [g.identity]
    pos = {g.identity: 0}
    phases = np.zeros((1, 1), dtype=np.int64)
    while len(sub) < n:
        h = next(x for x in range(n) if x not in pos)
        # k = least power with h^k already in the current subgroup
        k = 1
        hp = h
        while hp not in pos:
            hp = int(t[hp, h])
            k += 1
        tgt = phases[:, pos[hp]]  # phi(h^k) for each current character
        if (tgt % k).any():
            raise NotAGroup(f"character values at {h}^{k} are not divisible by {k}")
        base = tgt // k
        step = L // k
        c, m = phases.shape
        new_phases = np.empty((c * k, m * k), dtype=np.int64)
        hj = g.identity
        cols = []
        for j in range(k):
            if j:
                hj = int(t[hj, h])
            cols.append(t[np.asarray(sub, dtype=np.int64), hj])
        for ti in range(k):
            x = (base + ti * step) % L  # shape (c,)
            for j in range(k):
                new_phases[ti * c:(ti + 1) * c, j * m:(j + 1) * m] = \
                    (phases + j * x[:, None]) % L
        sub = [int(e) for block in cols for e in block]
        pos = {e: i for i, e in enumerate(sub)}
        if len(pos) < len(sub):
            raise NotAGroup(f"cosets of the span so far by powers of {h} overlap")
        phases = new_phases
    # reorder columns so column e is element e
    perm = np.empty(n, dtype=np.int64)
    for i, e in enumerate(sub):
        perm[e] = i
    phases = phases[:, perm]
    # canonical character order: lexicographic by phase vector
    order = np.lexsort(phases.T[::-1])
    return L, readonly(phases[order])


# -- normal subgroup enumeration ----------------------------------------------

def _abelian_normal_subgroups(g: GroupTable, max_index: int) -> list:
    """Index-bounded subgroups via annihilators in the character dual.

    A subgroup of index m corresponds to an order-m subgroup of the dual;
    enumerating small dual subgroups avoids walking the full subgroup lattice.
    """
    L, phases = character_phases(g)
    # dual element order = L / gcd(L, gcd of phase entries)
    row_gcd = np.gcd.reduce(np.concatenate([phases, np.full((g.order, 1), L,
                                                            dtype=np.int64)],
                                           axis=1), axis=1)
    dual_orders = L // row_gcd
    small = [i for i in range(g.order) if dual_orders[i] <= max_index]
    trivial = tuple([0] * g.order)

    def closure(rows):
        out = {trivial}
        frontier = set(rows)
        while frontier:
            add = set()
            for r in frontier:
                for s in list(out) + list(frontier):
                    v = tuple((np.asarray(r) + np.asarray(s)) % L)
                    if v not in out and v not in frontier and v not in add:
                        add.add(v)
            out |= frontier
            frontier = add
        return out

    found = {frozenset({trivial})}
    frontier = [frozenset({trivial})]
    while frontier:
        nxt = []
        for X in frontier:
            for i in small:
                row = tuple(int(v) for v in phases[i])
                if row in X:
                    continue
                Y = frozenset(closure(set(X) | {row}))
                if len(Y) <= max_index and Y not in found:
                    found.add(Y)
                    nxt.append(Y)
                if len(found) > SUBGROUP_LATTICE_CAP:
                    raise OrderCap("dual subgroup enumeration exceeded cap")
        frontier = nxt
    subs = []
    seen_masks = set()
    for X in found:
        mat = np.array(sorted(X), dtype=np.int64)
        mask = (mat == 0).all(axis=0)
        key = mask.tobytes()
        if key not in seen_masks:
            seen_masks.add(key)
            subs.append(Subgroup(parent=g, members=mask))
    return subs


def _nonabelian_normal_subgroups(g: GroupTable, max_index: int) -> list:
    """Join closure of normal closures of conjugacy classes.

    Every normal subgroup is the join of the normal closures of the classes
    it contains, so closing the set of class closures under join enumerates
    the whole normal-subgroup lattice; small-index members are then filtered.
    """
    classes = conjugacy_classes(g)
    gens = []
    seen = set()
    for cls in classes:
        sg = generated_subgroup(g, cls)
        key = sg.members.tobytes()
        if key not in seen:
            seen.add(key)
            gens.append(sg.members)
    trivial = np.zeros(g.order, dtype=bool)
    trivial[g.identity] = True
    lattice = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for m in frontier:
            for gm in gens:
                u = m | gm
                joined = generated_subgroup(g, np.flatnonzero(u)).members
                key = joined.tobytes()
                if key not in lattice:
                    lattice[key] = joined
                    nxt.append(joined)
                if len(lattice) > SUBGROUP_LATTICE_CAP:
                    raise OrderCap("normal subgroup lattice exceeded cap")
        frontier = nxt
    subs = []
    for mask in lattice.values():
        size = int(mask.sum())
        if g.order // size <= max_index:
            subs.append(Subgroup(parent=g, members=mask))
    return subs


def normal_subgroups_up_to_index(g: GroupTable, max_index: int) -> list:
    """All normal subgroups of index at most max_index, each verified.

    Abelian groups go through the character dual (subgroups of index m are
    annihilators of order-m dual subgroups); nonabelian groups via join
    closure of conjugacy-class normal closures.
    """
    full = Subgroup(parent=g, members=np.ones(g.order, dtype=bool))
    if max_index <= 1:
        return [full]
    if g.is_abelian:
        subs = _abelian_normal_subgroups(g, max_index)
    else:
        subs = _nonabelian_normal_subgroups(g, max_index)
    if any(not s.normal or s.index > max_index for s in subs):
        raise NotAGroup(f"an enumerated subgroup is not normal or has index > {max_index}")
    subs.sort(key=lambda s: (s.index, s.members.tobytes()))
    return subs
