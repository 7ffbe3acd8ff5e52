"""Concrete finite groups as dense multiplication tables, plus subgroups,
cosets, conjugacy classes, abelian character phases, and normal-subgroup
enumeration as intersections of character kernels on every group.

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
from .errors import (NotAbelian, NotAGroup, NotNormalWhenRequired, OrderCap,
                     QrlabError)
from .ffield import FieldSpec, ops

SUBGROUP_LATTICE_CAP = 20000


@dataclass
class GroupTable:
    """Finite group on ids 0..order-1 backed by a dense multiplication table.

    Made only from a table it proves a group (see _verify_laws), and from a
    digit layout `radix` it proves (see _verify_radix), so nothing derived
    from it re-checks the group laws.
    """

    table: np.ndarray  # (order, order) uint16, table[a, b] = a·b
    identity: int
    label: str = "table"
    field: Optional[FieldSpec] = None
    # id x is the mixed-radix number of its digits, first digit most
    # significant, and the product adds digits, each modulo its radix;
    # () when the ids have no such layout
    radix: tuple = ()
    # `field` above shadows dataclasses.field from here on in the class body
    # coordinate name -> read-only (order,) field indices: id x is the
    # point (coords[v][x] for v in coords) of F^k; {} without a field
    coords: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)
    order: int = dataclasses.field(init=False)
    inv: np.ndarray = dataclasses.field(init=False, repr=False)  # (order,) uint16
    derived: dict = dataclasses.field(  # per_group results, keyed by function
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.table = np.ascontiguousarray(self.table, dtype=np.uint16)
        self.order = len(self.table)
        self.radix = tuple(self.radix)
        self.inv = np.empty(self.order, dtype=np.uint16)
        rows, cols = np.nonzero(self.table == self.identity)
        self.inv[rows] = cols
        _verify_laws(self)
        if self.radix:
            _verify_radix(self)

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

    def __str__(self):
        return f"{self.label} group of order {self.order}"


def per_group(fn):
    """Memoizes fn(g) in g.derived, so data the table fixes (characters,
    classes, character tables) is computed once per GroupTable instance.
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


def _closure(t: np.ndarray, closed: np.ndarray, new) -> np.ndarray:
    """Mask of the product closure, under the table t, of the closed mask
    `closed` and ids `new`.

    Each round multiplies only the ids the round before added, on both
    sides, by every id reached so far.  Products of two old ids lie in
    `closed`, so they are never taken.  Associativity is not assumed, so
    the group-law proof can call it on a table it has not yet proven.
    """
    fresh = np.zeros(len(t), dtype=bool)
    fresh[np.asarray(new, dtype=np.intp)] = True
    fresh &= ~closed
    cur = closed | fresh
    while fresh.any() and not cur.all():
        f, c = np.flatnonzero(fresh), np.flatnonzero(cur)
        hits = np.zeros(len(t), dtype=bool)
        hits[np.take(t[f], c, axis=1)] = True
        hits[np.take(t[c], f, axis=1)] = True
        fresh = hits & ~cur
        cur |= fresh
    return cur


def _verify_laws(gt: GroupTable) -> None:
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
    # Light's test on a greedy generating set.  The s with (a·s)·c = a·(s·c)
    # for all a, c form the middle nucleus, a subgroup of the loop, so each
    # passing s at least doubles the span, and a span of all ids proves the
    # table associative.
    span = np.zeros(n, dtype=bool)
    span[e] = True
    while not span.all():
        s = int(np.argmin(span))
        if not np.array_equal(t[t[:, s]], np.take(t, t[s], axis=1)):
            raise NotAGroup(f"associativity fails at s={s}")
        span = _closure(t, span, [s])


def _verify_radix(gt: GroupTable) -> None:
    """Proves the digit layout gt.radix.  With id 0 the identity, the law is
    fixed by the products u_i·x, u_i the id with digit i one and every other
    digit zero: the table is a group, so every id is a product of the u_i.
    Each such row must add one to digit i, modulo its radix."""
    if int(np.prod(gt.radix)) != gt.order or gt.identity != 0:
        raise NotAGroup(f"radix {gt.radix} does not lay out {gt.order} ids from 0")
    ids = np.arange(gt.order).reshape(gt.radix)
    for axis in range(len(gt.radix)):
        shifted = np.roll(ids, -1, axis=axis).ravel()  # x with digit `axis` + 1
        if not np.array_equal(gt.table[shifted[0]], shifted):
            raise NotAGroup(f"the product does not add digit {axis} modulo {gt.radix[axis]}")


def make_group(table: np.ndarray, identity: int, label: str = "table",
               field_spec=None, radix: tuple = (), coords=None) -> GroupTable:
    """The GroupTable of a multiplication table of order at most TABLE_CAP."""
    if len(table) > ffield.TABLE_CAP:
        raise OrderCap(f"group order {len(table)} exceeds dense table cap {ffield.TABLE_CAP}")
    return GroupTable(table=table, identity=identity, label=label, field=field_spec,
                      radix=radix, coords=coords or {})


# -- constructors -------------------------------------------------------------

def additive_group(spec: FieldSpec) -> GroupTable:
    """(F_q, +) with element ids equal to field element indices: the
    coefficient digits (c0, ..., c_{n-1}), c0 most significant."""
    fops = ops(spec)
    return make_group(fops.add_table(), fops.zero_index, label="additive", field_spec=spec,
                      radix=(spec.p,) * spec.n, coords={"x": readonly(np.arange(spec.q))})


def multiplicative_group(spec: FieldSpec) -> GroupTable:
    """(F_q^*, ·); group id e corresponds to field index e + 1."""
    fops = ops(spec)
    mt = fops.mul_table()[1:, 1:].astype(np.int64) - 1
    return make_group(mt, fops.one_index - 1, label="multiplicative", field_spec=spec,
                      coords={"x": readonly(np.arange(1, spec.q))})


def cyclic_group(n: int) -> GroupTable:
    """Z/n written additively; id arithmetic is addition mod n."""
    ids = np.arange(n)
    return make_group((ids[:, None] + ids[None, :]) % n, 0, label="product",
                      radix=(n,))


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
    # the products of q^2 rows at a time with every id, via field ops
    table = np.empty((order, order), dtype=np.uint16)
    for s in range(0, order, q * q):
        A, B, C, D = [x[s:s + q * q, None] for x in (a, b, c, d)]
        pa = fops.add(fops.mul(A, a), fops.mul(B, c))
        pb = fops.add(fops.mul(A, b), fops.mul(B, d))
        pc = fops.add(fops.mul(C, a), fops.mul(D, c))
        pd = fops.add(fops.mul(C, b), fops.mul(D, d))
        rows = lookup[((pa * q + pb) * q + pc) * q + pd]
        if (rows < 0).any():
            raise NotAGroup(f"a product in SL2(F_{q}) has determinant other than 1")
        table[s:s + q * q] = rows
    ident = int(lookup[((fops.one_index * q + 0) * q + 0) * q + fops.one_index])
    return make_group(table, ident, label="sl2", field_spec=spec,
                      coords=dict(zip("abcd", map(readonly, (a, b, c, d)))))


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
    """Verified subgroup, stored as a boolean membership mask over parent
    ids, with its left cosets: reps holds the smallest id of each coset,
    sorted, and coset_of maps each id to its coset number."""

    parent: GroupTable
    members: np.ndarray  # bool mask, length parent.order
    index: int = field(init=False)
    normal: bool = field(init=False)
    reps: np.ndarray = field(init=False, repr=False)
    coset_of: np.ndarray = field(init=False, repr=False)

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
        left = g.table[:, elems]  # row x = coset xH
        if not mask[left[elems]].all():
            raise QrlabError("subgroup not closed under multiplication")
        if not mask[g.inv[elems]].all():
            raise QrlabError("subgroup not closed under inverse")
        self.index = g.order // size
        coset_min = left.min(axis=1)
        self.reps = readonly(np.unique(coset_min))
        self.coset_of = readonly(np.searchsorted(self.reps, coset_min))
        # x -> min(xH) and x -> min(Hx) name the left and the right cosets,
        # so they agree iff xH = Hx for every x
        self.normal = bool(np.array_equal(g.table[elems].min(axis=0), coset_min))

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
    reps: np.ndarray      # smallest id in each coset, sorted
    coset_of: np.ndarray  # id -> coset number


def cosets(h: Subgroup) -> CosetDecomposition:
    """Left-coset partition gH with smallest-id representatives, as the
    Subgroup found it when it verified itself."""
    return CosetDecomposition(reps=h.reps, coset_of=h.coset_of)


def subgroup_group(h: Subgroup) -> GroupTable:
    """The subgroup as a standalone GroupTable; id i is parent id elems[i],
    and keeps that id's coordinates."""
    g = h.parent
    elems = h.element_ids()
    reindex = np.full(g.order, -1, dtype=np.int64)
    reindex[elems] = np.arange(len(elems))
    table = reindex[g.table[np.ix_(elems, elems)]]
    ident = int(reindex[g.identity])
    return make_group(table, ident, label="subgroup", field_spec=g.field,
                      coords={v: readonly(a[elems]) for v, a in g.coords.items()})


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
    """Smallest subgroup containing gens, by product closure."""
    trivial = np.zeros(g.order, dtype=bool)
    trivial[g.identity] = True
    return Subgroup(parent=g, members=_closure(g.table, trivial, list(gens)))


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
    exp(2*pi*1j*phases[i, x]/L) at element x.  Rows are sorted by phase
    vector, so row 0 is the trivial character.  Built by extending
    characters one cyclic step at a time, so everything stays in exact
    arithmetic.
    """
    if not g.is_abelian:
        raise NotAbelian("character phases require an abelian group")
    L, t = g.exponent, g.table
    sub = np.array([g.identity])  # column c of phases is element sub[c]
    col = np.full(g.order, -1)  # id -> its column, -1 outside the span so far
    col[g.identity] = 0
    phases = np.zeros((1, 1), dtype=np.int64)
    while len(sub) < g.order:
        h = int(np.argmax(col < 0))
        powers = [g.identity]  # h^j for j < k, k the least power in the span
        hk = h
        while col[hk] < 0:
            powers.append(hk)
            hk = int(t[hk, h])
        k = len(powers)
        # the k extensions of each character take these values at h: the
        # k-th roots of its value at h^k
        at_h = (phases[:, col[hk]] // k + np.arange(k)[:, None] * (L // k)) % L
        # extension (ti, i) at sub[m]·h^j is phases[i, m] + j·at_h[ti, i]
        j = np.arange(k)[:, None]
        phases = ((phases[None, :, None, :] + j * at_h[:, :, None, None]) % L).reshape(
            k * len(phases), k * len(sub))
        sub = t[sub[None, :], np.array(powers)[:, None]].ravel()
        col[sub] = np.arange(len(sub))
    phases = phases[:, col]
    # canonical character order: lexicographic by phase vector
    order = np.lexsort(phases.T[::-1])
    return L, readonly(phases[order])


# -- normal subgroup enumeration ----------------------------------------------

def _character_kernels(g: GroupTable) -> np.ndarray:
    """(k, order) bool masks, row r the kernel of irreducible character r.

    Abelian groups read the exact phases of character_phases.  Other groups
    read fourier.character_table, whose values are floats: chi_r(x) is a sum
    of d_r roots of unity of order dividing o = ord(x), all 1 iff x is in
    the kernel, and one of them otherwise has real part at most
    cos(2 pi/o).  So d_r - Re chi_r(x) is 0 or at least 1 - cos(2 pi/o),
    and half that gap separates the two.
    """
    if g.is_abelian:
        return character_phases(g)[1] == 0
    from .fourier import character_table
    degrees, chi = character_table(g)
    classes = conjugacy_classes(g)
    class_of = np.empty(g.order, dtype=np.intp)
    for i, cls in enumerate(classes):
        class_of[cls] = i
    orders = np.maximum(g.element_orders[[c[0] for c in classes]], 2)
    gap = (1 - np.cos(2 * np.pi / orders)) / 2
    return (degrees[:, None] - chi.real < gap)[:, class_of]


def normal_subgroups_up_to_index(g: GroupTable, max_index: int) -> list:
    """All normal subgroups of index at most max_index (at least 1), each
    verified, sorted by index and then by membership mask.

    Every normal subgroup H is the intersection of the kernels of the
    irreducible characters trivial on it (Isaacs, Character Theory of
    Finite Groups, ch. 2), which are characters of G/H, so their kernels
    have index at most [G:H].  An intersection only shrinks, so one walk down from G through
    intersections of kernels, stopped wherever the index exceeds max_index,
    finds every H on any group.  More than SUBGROUP_LATTICE_CAP results, or
    a nonabelian group of more than fourier.IRREP_CAP classes, raise OrderCap.
    """
    if max_index < 1:
        raise QrlabError(f"max index {max_index} is below 1")
    if max_index == 1:
        return [Subgroup(parent=g, members=np.ones(g.order, dtype=bool))]

    def within(masks):
        return g.order // masks.sum(axis=-1) <= max_index

    kernels = _character_kernels(g)
    kernels = kernels[within(kernels)]
    start = np.ones(g.order, dtype=bool)
    lattice = {start.tobytes(): start}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for k in kernels:
                u = m & k
                if not within(u) or u.tobytes() in lattice:
                    continue
                lattice[u.tobytes()] = u
                nxt.append(u)
                if len(lattice) > SUBGROUP_LATTICE_CAP:
                    raise OrderCap(f"subgroup lattice exceeded {SUBGROUP_LATTICE_CAP} members")
        frontier = nxt
    subs = [Subgroup(parent=g, members=m) for m in lattice.values()]
    subs.sort(key=lambda s: (s.index, s.members.tobytes()))
    return subs
