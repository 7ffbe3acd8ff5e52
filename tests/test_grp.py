"""Group tables, subgroups, cosets, characters, normal-subgroup enumeration."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrlab import fourier, grp
from qrlab.errors import (CosetMismatch, NotAbelian, NotAGroup,
                          NotNormalWhenRequired, OrderCap, QrlabError)
from qrlab.ffield import make_field

# Latin squares with identity 0 that are not associative, so not groups.
# Each one reaches a different derived-data check.
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


def unchecked_group(rows) -> grp.GroupTable:
    """A GroupTable built straight from a table, bypassing make_group."""
    table = np.array(rows, dtype=np.uint16)
    n = len(table)
    inv = np.empty(n, dtype=np.uint16)
    r, c = np.nonzero(table == 0)
    inv[r] = c
    return grp.GroupTable(order=n, table=table, identity=0, inv=inv)


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


def test_sl2_orders_match_formula():
    for q in (2, 3, 4, 5, 7):
        p, n = (q, 1) if q in (2, 3, 5, 7) else (2, 2)
        g = grp.sl2(make_field(p, n))
        assert g.order == q * (q * q - 1)


def test_sl2_identity_is_identity_matrix():
    g = grp.sl2(make_field(3))
    a, b, c, d = g.sl2_entries[g.identity]
    one = make_field(3).one().index
    assert (a, b, c, d) == (one, 0, 0, one)


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


def test_cosets_partition():
    g = grp.multiplicative_group(make_field(13))
    h = grp.generated_subgroup(g, [np.flatnonzero(g.element_orders == 6)[0]])
    assert h.size == 6
    dec = grp.cosets(h)
    assert dec.index == 2
    seen = np.concatenate([dec.coset_ids(i) for i in range(dec.index)])
    assert sorted(seen.tolist()) == list(range(g.order))
    # representatives are the smallest member of each coset
    for i in range(dec.index):
        assert dec.reps[i] == dec.coset_ids(i).min()


def test_cosets_require_normal_flag():
    g = grp.sl2(make_field(3))
    # a non-normal 2-element subgroup generated by an order-2... center is
    # the only order-2; use an order-3 element instead (non-normal)
    x = int(np.flatnonzero(g.element_orders == 3)[0])
    h = grp.generated_subgroup(g, [x])
    assert not h.normal
    with pytest.raises(NotNormalWhenRequired):
        grp.cosets(h, require_normal=True)
    dec = grp.cosets(h)  # left cosets still fine
    assert dec.index == 8


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
    classes, class_of, mats = fourier._class_constants(s)
    with pytest.raises(ValueError):
        class_of[0] = 1
    with pytest.raises(ValueError):
        mats[0][0, 0] = 2.0


def test_grp_and_fourier_share_entry_points():
    assert grp.character_phases is fourier.character_phases
    assert grp.conjugacy_classes is fourier.conjugacy_classes


# -- non-group tables raise named errors ----------------------------------------

def test_verify_laws_rejects_non_square_table():
    with pytest.raises(NotAGroup):
        grp.make_group(np.zeros((3, 4), dtype=np.int64), 0)


def test_character_phases_reject_non_group():
    with pytest.raises(NotAGroup, match="not divisible"):
        grp.character_phases(unchecked_group(LOOP_PHASES))
    with pytest.raises(NotAGroup, match="overlap"):
        grp.character_phases(unchecked_group(LOOP_OVERLAP))
    with pytest.raises(NotAGroup):
        fourier.abelian_characters(unchecked_group(LOOP_PHASES))
    with pytest.raises(NotAGroup):
        grp.normal_subgroups_up_to_index(unchecked_group(LOOP_PHASES), 7)


def test_class_constants_reject_non_group():
    with pytest.raises(NotAGroup):
        fourier._class_constants(unchecked_group(LOOP_CLASSES))
    with pytest.raises(NotAGroup):
        fourier.irrep_dimensions(unchecked_group(LOOP_SIDES))


def test_cosets_reject_non_group():
    g = unchecked_group(LOOP_CLASSES)
    with pytest.raises(CosetMismatch, match="left cosets"):
        grp.cosets(grp.generated_subgroup(g, [3]))
    g = unchecked_group(LOOP_SIDES)
    h = grp.generated_subgroup(g, [4])
    assert h.normal
    with pytest.raises(CosetMismatch, match="left and right"):
        grp.cosets(h)


def test_normal_subgroup_enumeration_rejects_non_group():
    with pytest.raises(NotAGroup):
        grp.normal_subgroups_up_to_index(unchecked_group(LOOP_NORMAL), 6)


def test_non_group_raises_under_optimized_python():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from qrlab import grp\n"
        "from qrlab.errors import NotAGroup\n"
        f"t = np.array({LOOP_PHASES!r}, dtype=np.uint16)\n"
        "inv = np.array([int(np.flatnonzero(r == 0)[0]) for r in t], dtype=np.uint16)\n"
        "g = grp.GroupTable(order=len(t), table=t, identity=0, inv=inv)\n"
        "assert False, 'asserts must be off under -O'\n"
        "try:\n"
        "    grp.character_phases(g)\n"
        "except NotAGroup:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
