"""Group tables, subgroups, cosets, characters, normal-subgroup enumeration."""

from __future__ import annotations

import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrlab import fourier, grp
from qrlab.errors import (NotAbelian, NotAGroup, NotNormalWhenRequired,
                          OrderCap, QrlabError)
from qrlab.ffield import make_field, ops

# Latin squares with identity 0 that are not associative, so not groups.
LOOP_PHASES = [[0, 1, 2, 3, 4, 5, 6], [1, 6, 3, 2, 0, 4, 5],
               [2, 3, 5, 1, 6, 0, 4], [3, 2, 1, 4, 5, 6, 0],
               [4, 0, 6, 5, 2, 3, 1], [5, 4, 0, 6, 3, 1, 2],
               [6, 5, 4, 0, 1, 2, 3]]  # commutative
LOOP_OVERLAP = [[0, 1, 2, 3, 4, 5], [1, 4, 3, 2, 5, 0], [2, 3, 4, 5, 0, 1],
                [3, 2, 5, 0, 1, 4], [4, 5, 0, 1, 2, 3], [5, 0, 1, 4, 3, 2]]  # commutative
LOOP_CLASSES = [[0, 1, 2, 3, 4, 5], [1, 3, 4, 5, 0, 2], [2, 4, 3, 1, 5, 0],
                [3, 5, 1, 0, 2, 4], [4, 0, 5, 2, 1, 3], [5, 2, 0, 4, 3, 1]]
LOOP_SIDES = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 5, 3, 4, 1, 0],
              [3, 0, 4, 2, 5, 1], [4, 3, 5, 1, 0, 2], [5, 4, 1, 0, 2, 3]]
LOOP_NORMAL = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 4, 5, 2], [2, 3, 4, 5, 0, 1],
               [3, 4, 5, 2, 1, 0], [4, 5, 0, 1, 2, 3], [5, 2, 1, 0, 3, 4]]
LOOPS = [LOOP_PHASES, LOOP_OVERLAP, LOOP_CLASSES, LOOP_SIDES, LOOP_NORMAL]


def test_additive_group_basics():
    g = grp.additive_group(make_field(7))
    assert g.order == 7 and g.is_abelian
    assert g.identity == 0
    assert g.mul(3, 5) == 1


def test_klein_four():
    g = grp.additive_group(make_field(2, 2))
    assert g.order == 4 and g.is_abelian
    assert sorted(g.element_orders.tolist()) == [1, 2, 2, 2]
    assert g.exponent == 2


def test_multiplicative_group_cyclic():
    for q in (7, 13):
        g = grp.multiplicative_group(make_field(q))
        assert g.order == q - 1
        assert g.is_abelian
        assert g.element_orders.max() == q - 1  # has a primitive root


def test_cyclic_group():
    g = grp.cyclic_group(12)
    assert g.order == 12 and g.exponent == 12
    assert g.mul(7, 8) == 3


def test_digit_layouts_are_proven():
    assert grp.additive_group(make_field(3, 4)).radix == (3, 3, 3, 3)
    assert grp.additive_group(make_field(557)).radix == (557,)
    assert grp.cyclic_group(12).radix == (12,)
    assert grp.multiplicative_group(make_field(13)).radix == ()
    assert grp.sl2(make_field(3)).radix == ()
    # Z/6 with ids 1 and 2 swapped is a group, but its ids are not the digits
    # of its law
    n = 6
    ids = np.arange(n)
    perm = ids.copy()
    perm[[1, 2]] = [2, 1]
    table = perm[((ids[:, None] + ids[None, :]) % n)[np.ix_(perm, perm)]]
    assert grp.make_group(table, 0).radix == ()
    with pytest.raises(NotAGroup, match="digit 0"):
        grp.make_group(table, 0, radix=(n,))
    # (Z/2)^2 laid out as Z/4, and a layout that does not count the ids
    with pytest.raises(NotAGroup, match="digit 0"):
        grp.make_group(grp.additive_group(make_field(2, 2)).table, 0, radix=(4,))
    with pytest.raises(NotAGroup, match="does not lay out"):
        grp.make_group(grp.cyclic_group(6).table, 0, radix=(2, 2))


def test_sl2_orders_match_formula():
    for q in (2, 3, 4, 5, 7):
        p, n = (q, 1) if q in (2, 3, 5, 7) else (2, 2)
        g = grp.sl2(make_field(p, n))
        assert g.order == q * (q * q - 1)


def test_sl2_identity_is_identity_matrix():
    g = grp.sl2(make_field(3))
    one = make_field(3).one().index
    assert tuple(int(g.coords[v][g.identity]) for v in "abcd") == (one, 0, 0, one)


@pytest.mark.parametrize("build, p, n, names", [
    (grp.additive_group, 3, 2, ["x"]),
    (grp.multiplicative_group, 13, 1, ["x"]),
    (grp.sl2, 3, 1, ["a", "b", "c", "d"]),
    (grp.sl2, 2, 2, ["a", "b", "c", "d"]),
    (grp.sl2, 5, 1, ["a", "b", "c", "d"]),
])
def test_coordinates_name_each_id_once(build, p, n, names):
    spec = make_field(p, n)
    g = build(spec)
    assert list(g.coords) == names
    points = np.stack([g.coords[v] for v in names], axis=1)
    assert points.shape == (g.order, len(names)) and (points >= 0).all()
    assert (points < spec.q).all() and not any(c.flags.writeable for c in g.coords.values())
    assert len(np.unique(points, axis=0)) == g.order
    if build is grp.sl2:
        fops = ops(spec)
        a, b, c, d = points.T
        assert (fops.sub(fops.mul(a, d), fops.mul(b, c)) == fops.one_index).all()
        assert points[g.identity].tolist() == [fops.one_index, 0, 0, fops.one_index]


def test_groups_without_a_field_have_no_coordinates():
    assert grp.cyclic_group(6).coords == {}
    assert grp.make_group(grp.cyclic_group(6).table, 0).coords == {}


def test_sl2_order_cap():
    with pytest.raises(OrderCap):
        grp.sl2(make_field(17))


def test_group_law_verification_rejects_nonassociative():
    # (2i + j) mod 5 is a Latin square but has no identity/associativity
    n = 5
    ids = np.arange(n)
    table = (2 * ids[:, None] + ids[None, :]) % n
    with pytest.raises(QrlabError):
        grp.make_group(table, 0)


def associative_by_exhaustion(t: np.ndarray) -> bool:
    """The O(n^3) reference: (a·b)·c = a·(b·c) for all b, c, one a at a time."""
    return all(np.array_equal(t[t[a], :], t[a][t]) for a in range(len(t)))


def is_group_by_reference(t: np.ndarray, e: int) -> bool:
    """Latin square with identity e, associative by exhaustion."""
    ids = list(range(len(t)))
    latin = (all(sorted(r) == ids for r in t.tolist())
             and all(sorted(c) == ids for c in t.T.tolist()))
    return (latin and t[e].tolist() == ids and t[:, e].tolist() == ids
            and associative_by_exhaustion(t))


def swapped_cyclic(n: int) -> np.ndarray:
    """Z/n with the intercalate at rows 1, 1 + n/2 and columns 2, 2 + n/2
    swapped.

    The swapped entries are 3 and 3 + n/2, never the identity 0, so the table
    stays a Latin square with identity and inverses, but is not associative.
    """
    ids = np.arange(n, dtype=np.uint16)
    t = (ids[:, None] + ids[None, :]) % n
    rc = np.ix_([1, 1 + n // 2], [2, 2 + n // 2])
    t[rc] = t[rc][::-1]
    return t


def _differential_tables():
    yield from ((f"loop{i}", np.array(rows, dtype=np.uint16), 0, False)
                for i, rows in enumerate(LOOPS))
    for n in (8, 64, 512, 514):
        yield f"swapped Z/{n}", swapped_cyclic(n), 0, False
    yield "Z/64", grp.cyclic_group(64).table, 0, True
    for name, g in [("SL2(3)", grp.sl2(make_field(3))), ("SL2(5)", grp.sl2(make_field(5))),
                    ("GF(2^7)+", grp.additive_group(make_field(2, 7))),
                    ("F_13^*", grp.multiplicative_group(make_field(13)))]:
        yield name, g.table, g.identity, True


def test_group_laws_match_exhaustive_reference():
    for name, table, e, is_group in _differential_tables():
        assert is_group_by_reference(table, e) == is_group, name
        try:
            grp.make_group(table, e)
            accepted = True
        except NotAGroup:
            accepted = False
        assert accepted == is_group, name


def test_group_laws_proven_above_512():
    # Latin, with identity and inverses, and 4 bad cells out of 4096^2:
    # sampled triples are likely to miss them, a proof of associativity not
    with pytest.raises(NotAGroup, match="associativity"):
        grp.GroupTable(table=swapped_cyclic(4096), identity=0)


def test_conjugacy_classes_sl2_3():
    g = grp.sl2(make_field(3))
    sizes = sorted(len(c) for c in grp.conjugacy_classes(g))
    assert sizes == [1, 1, 4, 4, 4, 4, 6]


def test_conjugacy_classes_abelian_singletons():
    g = grp.cyclic_group(9)
    assert all(len(c) == 1 for c in grp.conjugacy_classes(g))


def test_subgroup_validation():
    g = grp.additive_group(make_field(2, 2))
    mask = np.zeros(4, dtype=bool)
    mask[[0, 2]] = True
    h = grp.Subgroup(parent=g, members=mask)
    assert h.index == 2 and h.normal and h.size == 2
    bad = np.zeros(4, dtype=bool)
    bad[[0, 1, 2]] = True  # size does not divide order
    with pytest.raises(QrlabError):
        grp.Subgroup(parent=g, members=bad)
    open_mask = np.zeros(4, dtype=bool)
    open_mask[[1]] = True  # no identity
    with pytest.raises(QrlabError):
        grp.Subgroup(parent=g, members=open_mask)
    unclosed = np.zeros(6, dtype=bool)
    unclosed[[0, 1, 5]] = True  # has e and inverses, and 3 divides 6
    with pytest.raises(QrlabError, match="not closed under multiplication"):
        grp.Subgroup(parent=grp.cyclic_group(6), members=unclosed)


def test_cosets_partition():
    g = grp.multiplicative_group(make_field(13))
    h = grp.generated_subgroup(g, [np.flatnonzero(g.element_orders == 6)[0]])
    assert h.size == 6
    dec = grp.cosets(h)
    assert len(dec.reps) == 2
    members = [np.flatnonzero(dec.coset_of == i) for i in range(len(dec.reps))]
    seen = np.concatenate(members)
    assert sorted(seen.tolist()) == list(range(g.order))
    # representatives are the smallest member of each coset
    for i, ids in enumerate(members):
        assert dec.reps[i] == ids.min()


def test_cosets_of_non_normal_subgroup():
    g = grp.sl2(make_field(3))
    # a non-normal 2-element subgroup generated by an order-2... center is
    # the only order-2; use an order-3 element instead (non-normal)
    x = int(np.flatnonzero(g.element_orders == 3)[0])
    h = grp.generated_subgroup(g, [x])
    assert not h.normal
    with pytest.raises(NotNormalWhenRequired):
        grp.quotient_group(h)
    dec = grp.cosets(h)  # left cosets still fine
    assert len(dec.reps) == 8


def normal_by_conjugation(h: grp.Subgroup) -> bool:
    """Reference: x·y·x^-1 lies in H for every x in G and y in H."""
    g, elems = h.parent, h.element_ids()
    return bool(h.members[g.table[g.table[:, elems], g.inv[:, None]]].all())


def cosets_by_gather(h: grp.Subgroup):
    """Reference: the left cosets xH as sets, from the n x |H| gather, in
    order of their smallest members; returns (reps, coset_of) as lists."""
    g = h.parent
    blocks = sorted({frozenset(row.tolist()) for row in g.table[:, h.element_ids()]},
                    key=min)
    coset_of = {x: i for i, block in enumerate(blocks) for x in block}
    return [min(b) for b in blocks], [coset_of[x] for x in range(g.order)]


def test_subgroup_normality_and_cosets_match_references():
    rng = np.random.default_rng(0)
    found = normal = 0
    for g in [grp.sl2(make_field(2)), grp.sl2(make_field(3)), grp.sl2(make_field(5)),
              grp.multiplicative_group(make_field(13)), grp.cyclic_group(12),
              grp.additive_group(make_field(2, 3))]:
        gens = [[x] for x in range(g.order)] + rng.integers(0, g.order, (400, 2)).tolist()
        subs = {h.members.tobytes(): h for h in (grp.generated_subgroup(g, xs) for xs in gens)}
        for h in subs.values():
            assert h.normal == normal_by_conjugation(h), (g.label, h.element_ids())
            reps, coset_of = cosets_by_gather(h)
            dec = grp.cosets(h)
            assert dec.reps.tolist() == reps, (g.label, h.element_ids())
            assert dec.coset_of.tolist() == coset_of, (g.label, h.element_ids())
            assert len(reps) == h.index
        found += len(subs)
        normal += sum(h.normal for h in subs.values())
    # 121 subgroups, 37 of them normal: both answers are exercised
    assert found > 100 and 30 < normal < found


def test_enumeration_verifies_one_subgroup_per_result(monkeypatch):
    groups = [grp.sl2(make_field(3)), grp.sl2(make_field(5)), grp.cyclic_group(12)]
    built = []
    verify = grp.Subgroup.__post_init__

    def counting(self):
        built.append(self)
        verify(self)
    monkeypatch.setattr(grp.Subgroup, "__post_init__", counting)
    for g in groups:
        for max_index in (1, 2, 3, g.order // 2, g.order):
            built.clear()
            subs = grp.normal_subgroups_up_to_index(g, max_index)
            assert len(built) == len(subs), (g.label, g.order, max_index)


def test_subgroup_group_and_quotient():
    g = grp.additive_group(make_field(2, 2))
    mask = np.zeros(4, dtype=bool)
    mask[[0, 2]] = True
    h = grp.Subgroup(parent=g, members=mask)
    sg = grp.subgroup_group(h)
    assert sg.order == 2 and sg.identity == 0
    q = grp.quotient_group(h)
    assert q.order == 2


def test_generated_subgroup_full_group():
    g = grp.cyclic_group(12)
    assert grp.generated_subgroup(g, [1]).size == 12
    assert grp.generated_subgroup(g, [4]).size == 3
    assert grp.generated_subgroup(g, []).size == 1


def product_closure_by_squaring(t: np.ndarray, e: int, ids) -> np.ndarray:
    """Reference: square the set {e} ∪ ids under the table t until it stops
    growing."""
    mask = np.zeros(len(t), dtype=bool)
    mask[[e, *ids]] = True
    while True:
        elems = np.flatnonzero(mask)
        grown = mask.copy()
        grown[t[np.ix_(elems, elems)]] = True
        if (grown == mask).all():
            return mask
        mask = grown


def test_closure_grows_closed_sets_to_the_product_closure():
    # groups, and raw loop tables too: the closure never relies on
    # associativity, since the group-law proof calls it on unproven tables
    groups = [grp.sl2(make_field(3)), grp.cyclic_group(12)]
    loops = [np.array(rows, dtype=np.uint16)
             for rows in [LOOP_PHASES, LOOP_CLASSES, LOOP_SIDES]] + [swapped_cyclic(10)]
    for t, e, g in [(g.table, g.identity, g) for g in groups] + [(t, 0, None) for t in loops]:
        trivial = product_closure_by_squaring(t, e, [])
        for x in range(len(t)):
            closed = product_closure_by_squaring(t, e, [x])
            assert np.array_equal(grp._closure(t, trivial, [x]), closed), x
            for s in range(len(t)):
                ref = product_closure_by_squaring(t, e, [x, s])
                assert np.array_equal(grp._closure(t, closed, [s]), ref), (x, s)
                if g is not None:
                    assert np.array_equal(grp.generated_subgroup(g, [x, s]).members, ref)


def test_character_phases_orthogonal():
    for g in [grp.cyclic_group(8), grp.additive_group(make_field(3, 2)),
              grp.additive_group(make_field(2, 3))]:
        L, phases = grp.character_phases(g)
        assert phases.shape == (g.order, g.order)
        vals = np.exp(2j * np.pi * phases / L)
        gram = vals @ vals.conj().T
        assert np.abs(gram - g.order * np.eye(g.order)).max() < 1e-9
        assert (phases[:, g.identity] == 0).all()


def test_character_phases_need_abelian():
    with pytest.raises(NotAbelian):
        grp.character_phases(grp.sl2(make_field(3)))


def prime_powers(top: int):
    for q in range(2, top + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        n = round(math.log(q, p))
        if p ** n == q:
            yield p, n


def test_character_phases_are_the_dual_group():
    groups = [grp.cyclic_group(n) for n in range(1, 65)]
    groups += [grp.multiplicative_group(make_field(p, n)) for p, n in prime_powers(127)]
    groups += [grp.additive_group(make_field(p, n)) for p, n in prime_powers(81)]
    for g in groups:
        L, phases = grp.character_phases(g)
        name = (g.label, g.order)
        assert L == g.exponent and phases.min() >= 0 and phases.max() < L, name
        # every row is a homomorphism G -> Z/L
        assert np.array_equal(phases[:, g.table],
                              (phases[:, :, None] + phases[:, None, :]) % L), name
        assert len(np.unique(phases, axis=0)) == g.order, name
        # rows in lexicographic order, so the trivial character comes first
        assert (np.lexsort(phases.T[::-1]) == np.arange(g.order)).all(), name
        assert (phases[0] == 0).all(), name


def test_normal_subgroups_klein_four():
    g = grp.additive_group(make_field(2, 2))
    subs = grp.normal_subgroups_up_to_index(g, 2)
    assert sorted(s.index for s in subs) == [1, 2, 2, 2]
    members = sorted(tuple(s.element_ids().tolist()) for s in subs if s.index == 2)
    assert members == [(0, 1), (0, 2), (0, 3)]


def test_normal_subgroups_sl2_3():
    g = grp.sl2(make_field(3))
    subs = grp.normal_subgroups_up_to_index(g, 3)
    # the quaternion subgroup of order 8 has index 3
    assert sorted(s.index for s in subs) == [1, 3]
    all_subs = grp.normal_subgroups_up_to_index(g, 24)
    assert sorted(s.size for s in all_subs) == [1, 2, 8, 24]


def test_normal_subgroups_prime_order():
    g = grp.additive_group(make_field(13))
    subs = grp.normal_subgroups_up_to_index(g, 12)
    assert [s.index for s in subs] == [1]
    subs13 = grp.normal_subgroups_up_to_index(g, 13)
    assert sorted(s.index for s in subs13) == [1, 13]


def test_normal_subgroups_max_index_one():
    g = grp.cyclic_group(10)
    subs = grp.normal_subgroups_up_to_index(g, 1)
    assert len(subs) == 1 and subs[0].index == 1


def test_normal_subgroups_elementary_abelian():
    g = grp.additive_group(make_field(2, 4))
    subs = grp.normal_subgroups_up_to_index(g, 2)
    # 15 hyperplanes plus the full group
    assert sorted(s.index for s in subs) == [1] + [2] * 15
    assert all(s.normal for s in subs)


def test_normal_subgroups_closed_under_intersection():
    for g in [grp.sl2(make_field(2)), grp.cyclic_group(12)]:
        subs = grp.normal_subgroups_up_to_index(g, g.order)
        masks = {s.members.tobytes() for s in subs}
        for a in subs:
            for b in subs:
                inter = a.members & b.members
                assert inter.tobytes() in masks


def test_abelian_subgroup_results_are_all_normal():
    g = grp.cyclic_group(24)
    subs = grp.normal_subgroups_up_to_index(g, 6)
    assert sorted(s.index for s in subs) == [1, 2, 3, 4, 6]
    assert all(s.normal for s in subs)


def abelian_groups_to_32():
    """Z/n for n <= 32, and (F_q, +) and F_q^* for q <= 32."""
    groups = [grp.cyclic_group(n) for n in range(1, 33)]
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                 (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3),
                 (29, 1), (31, 1), (2, 5)]:
        spec = make_field(p, n)
        groups += [grp.additive_group(spec), grp.multiplicative_group(spec)]
    return groups


def test_kernel_route_matches_join_walk():
    # In an abelian group every class is a singleton, so the nonabelian
    # route joins cyclic subgroups and reads no characters: an independent
    # enumeration of the whole subgroup lattice.
    for g in abelian_groups_to_32():
        lattice = grp._nonabelian_normal_subgroups(g, g.order)
        for m in range(1, g.order + 1):
            want = sorted(s.members.tobytes() for s in lattice if s.index <= m)
            got = sorted(s.members.tobytes() for s in grp._abelian_normal_subgroups(g, m))
            assert got == want, (g.label, g.order, m)


def test_subgroup_lattice_cap(monkeypatch):
    # GF(2^4)+ has 16 subgroups of index <= 2, SL2(3) has 4 normal subgroups
    monkeypatch.setattr(grp, "SUBGROUP_LATTICE_CAP", 3)
    with pytest.raises(OrderCap):
        grp.normal_subgroups_up_to_index(grp.additive_group(make_field(2, 4)), 2)
    with pytest.raises(OrderCap):
        grp.normal_subgroups_up_to_index(grp.sl2(make_field(3)), 24)
    monkeypatch.setattr(grp, "SUBGROUP_LATTICE_CAP", 4)
    assert len(grp.normal_subgroups_up_to_index(grp.sl2(make_field(3)), 24)) == 4


def test_parse_group_literal():
    assert grp.parse_group_literal("add:3^2").order == 9
    assert grp.parse_group_literal("mul:13").order == 12
    assert grp.parse_group_literal("sl2:5").order == 120
    with pytest.raises(QrlabError):
        grp.parse_group_literal("frob:5")
    with pytest.raises(QrlabError):
        grp.parse_group_literal("add")


# -- per-group data -----------------------------------------------------------

def count_runs(fn, thunk) -> int:
    """How many times the body of the per-group function fn runs in thunk()."""
    code = fn.__wrapped__.__code__
    runs = 0

    def profile(frame, event, arg):
        nonlocal runs
        if event == "call" and frame.f_code is code:
            runs += 1
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return runs


def test_character_phases_runs_once_per_group():
    g = grp.cyclic_group(12)
    rng = np.random.default_rng(3)
    subsets = [rng.random(g.order) < 0.5 for _ in range(25)]
    runs = count_runs(grp.character_phases, lambda: [
        fourier.subset_qr_characters(g, d) for d in subsets])
    assert runs == 1
    assert count_runs(grp.character_phases, lambda: grp.character_phases(g)) == 0


def test_equal_tables_keep_separate_caches():
    g1, g2 = grp.cyclic_group(12), grp.cyclic_group(12)
    _, p1 = grp.character_phases(g1)
    assert g2.derived == {}
    _, p2 = grp.character_phases(g2)
    assert p1 is not p2 and np.array_equal(p1, p2)
    assert grp.character_phases(g1)[1] is p1


def test_per_group_data_is_read_only():
    g = grp.additive_group(make_field(3, 2))
    _, phases = grp.character_phases(g)
    cd = fourier.abelian_characters(g)
    with pytest.raises(ValueError):
        phases[0, 0] = 1
    with pytest.raises(ValueError):
        cd.characters[0, 0] = 0
    with pytest.raises(ValueError):
        cd.phases[1, 1] = 0
    s = grp.sl2(make_field(3))
    with pytest.raises(ValueError):
        grp.conjugacy_classes(s)[0][0] = 1
    dec = grp.cosets(grp.generated_subgroup(s, [1]))
    with pytest.raises(ValueError):
        dec.reps[0] = 1
    with pytest.raises(ValueError):
        dec.coset_of[0] = 1
    degrees, chi = fourier.character_table(s)
    with pytest.raises(ValueError):
        degrees[0] = 2
    with pytest.raises(ValueError):
        chi[0, 0] = 2.0


def test_grp_and_fourier_share_entry_points():
    assert grp.character_phases is fourier.character_phases
    assert grp.conjugacy_classes is fourier.conjugacy_classes


# -- non-group tables raise named errors ----------------------------------------

def test_verify_laws_rejects_non_square_table():
    with pytest.raises(NotAGroup):
        grp.make_group(np.zeros((3, 4), dtype=np.int64), 0)


def test_group_table_proves_itself():
    for rows in LOOPS:
        with pytest.raises(NotAGroup):
            grp.GroupTable(table=rows, identity=0)


def test_non_group_raises_under_optimized_python():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from qrlab import grp\n"
        "from qrlab.errors import NotAGroup\n"
        "assert False, 'asserts must be off under -O'\n"
        + inspect.getsource(swapped_cyclic) +
        f"for rows in {LOOPS!r} + [swapped_cyclic(4096)]:\n"
        "    try:\n"
        "        grp.GroupTable(table=rows, identity=0)\n"
        "    except NotAGroup:\n"
        "        continue\n"
        "    sys.exit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
