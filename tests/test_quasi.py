"""Graph quasirandomness metrics against independent brute-force oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qrlab import grp, quasi
from qrlab.errors import CosetMismatch, ShapeMismatch, SideTooLarge
from qrlab.ffield import make_field


def paley_graph(q=13):
    spec = make_field(q)
    g = grp.additive_group(spec)
    d = np.zeros(q, dtype=bool)
    for x in range(1, q):
        d[(x * x) % q] = True
    return g, d, quasi.cayley_bipartite(g, d)


def random_graph(rng, vmax=7, wmax=7):
    v = int(rng.integers(1, vmax + 1))
    w = int(rng.integers(1, wmax + 1))
    adj = rng.random((w, v)) < rng.random()
    return quasi.BipartiteGraph(v, w, adj)


def c4_quadruple_loop(adj):
    w_size, v_size = adj.shape
    total = 0
    for v in range(v_size):
        for v2 in range(v_size):
            for w in range(w_size):
                for w2 in range(w_size):
                    if adj[w, v] and adj[w2, v] and adj[w, v2] and adj[w2, v2]:
                        total += 1
    return total


def eps2_full_enumeration(adj):
    w_size, v_size = adj.shape
    e = int(adj.sum())
    best = Fraction(0)
    for amask in range(1, 1 << v_size):
        aids = [i for i in range(v_size) if amask >> i & 1]
        for bmask in range(1, 1 << w_size):
            bids = [i for i in range(w_size) if bmask >> i & 1]
            cnt = int(adj[np.ix_(bids, aids)].sum())
            disc = abs(Fraction(cnt) - Fraction(e * len(aids) * len(bids),
                                                v_size * w_size))
            best = max(best, disc / (v_size * w_size))
    return best


def test_cayley_bipartite_paley():
    g, d, bg = paley_graph(13)
    assert bg.edges == 78
    assert bg.v_size == bg.w_size == 13
    # adjacency matches the defining rule on random entries
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = int(rng.integers(13))
        w = int(rng.integers(13))
        assert bg.adj[w, v] == d[g.table[v, g.inv[w]]]


def test_cayley_bipartite_extremes():
    g = grp.cyclic_group(6)
    full = quasi.cayley_bipartite(g, np.ones(6, dtype=bool))
    assert full.edges == 36
    empty = quasi.cayley_bipartite(g, np.zeros(6, dtype=bool))
    assert empty.edges == 0


def test_cayley_bipartite_coset_mismatch():
    g = grp.cyclic_group(12)
    with pytest.raises(CosetMismatch):
        quasi.cayley_bipartite(g, np.ones(12, dtype=bool),
                               v=[0, 1, 2], w=[0, 1, 2, 3])
    with pytest.raises(CosetMismatch):
        # {0,1,3} is not a coset of any subgroup of Z/12
        quasi.cayley_bipartite(g, np.ones(12, dtype=bool),
                               v=[0, 1, 3], w=[0, 1, 3])
    # genuine cosets work
    bg = quasi.cayley_bipartite(g, np.ones(12, dtype=bool),
                                v=[1, 4, 7, 10], w=[2, 5, 8, 11])
    assert bg.v_size == 4


def is_coset_reference(g, ids):
    """ids = x·H for a subgroup H, by the pairwise closure loop."""
    ids = sorted(int(i) for i in ids)
    h = {int(g.table[g.inv[ids[0]], i]) for i in ids}
    return g.identity in h and all(int(g.table[a, b]) in h for a in h for b in h)


def test_is_coset_matches_reference():
    rng = np.random.default_rng(4)
    for g in [grp.cyclic_group(12), grp.sl2(make_field(3)),
              grp.multiplicative_group(make_field(13))]:
        candidates = [np.flatnonzero(rng.random(g.order) < p)
                      for p in (0.1, 0.3, 0.5) for _ in range(20)]
        for x in range(g.order):
            dec = grp.cosets(grp.generated_subgroup(g, [x]))
            for i in range(min(2, dec.index)):
                ids = dec.coset_ids(i)
                candidates += [ids, np.union1d(ids, [(ids[0] + 1) % g.order])]
        verdicts = set()
        for ids in candidates:
            if len(ids):
                got = quasi._is_coset(g, ids) is not None
                assert got == is_coset_reference(g, ids)
                verdicts.add(got)
        assert verdicts == {True, False}


def test_bipartite_graph_shape_checked():
    with pytest.raises(ShapeMismatch):
        quasi.BipartiteGraph(2, 3, np.zeros((2, 2), dtype=bool))


def test_eps1_complete_bipartite_zero():
    bg = quasi.BipartiteGraph(5, 7, np.ones((7, 5), dtype=bool))
    assert quasi.eps1_quasirandomness(bg) == 0


def test_eps1_matches_quadruple_loop():
    rng = np.random.default_rng(2)
    for _ in range(50):
        bg = random_graph(rng)
        c4 = c4_quadruple_loop(bg.adj)
        expected = max(Fraction(0),
                       Fraction(c4, (bg.v_size * bg.w_size) ** 2)
                       - bg.delta ** 4)
        assert quasi.eps1_quasirandomness(bg) == expected


def test_eps1_paley_range():
    _, _, bg = paley_graph(13)
    e1 = quasi.eps1_quasirandomness(bg)
    q = 13
    assert e1 == Fraction((q - 1) * (q * q + 6 * q + 1), 16 * q ** 4)
    assert Fraction(0) < e1 <= Fraction(2, 13)


def test_eps1_artin_schreier_blocks_zero():
    g = grp.additive_group(make_field(2, 2))
    d = np.zeros(4, dtype=bool)
    d[[0, 2]] = True  # the image subgroup itself
    h = grp.Subgroup(parent=g, members=d)
    dec = grp.cosets(h)
    for i in range(2):
        for j in range(2):
            bg = quasi.cayley_bipartite(g, d, v=dec.coset_ids(i),
                                        w=dec.coset_ids(j))
            assert quasi.eps1_quasirandomness(bg) == 0


def test_eps2_single_edge():
    bg = quasi.BipartiteGraph(2, 2, np.array([[1, 0], [0, 0]], dtype=bool))
    assert quasi.eps2_exact(bg) == Fraction(3, 16)


def test_eps2_matches_full_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        bg = random_graph(rng, 6, 6)
        assert quasi.eps2_exact(bg) == eps2_full_enumeration(bg.adj)


def test_eps2_complete_zero_and_side_cap():
    bg = quasi.BipartiteGraph(3, 9, np.ones((9, 3), dtype=bool))
    assert quasi.eps2_exact(bg) == 0
    big = quasi.BipartiteGraph(30, 30, np.zeros((30, 30), dtype=bool))
    with pytest.raises(SideTooLarge):
        quasi.eps2_exact(big)


def test_eps3_paley_closed_form():
    _, _, bg = paley_graph(13)
    e3, err = quasi.eps3_spectral(bg)
    assert abs(e3 - (np.sqrt(13) + 1) / 26) < 1e-9
    assert err <= 1e-9


def test_eps3_extremes():
    full = quasi.BipartiteGraph(4, 6, np.ones((6, 4), dtype=bool))
    assert quasi.eps3_spectral(full)[0] < 1e-12
    empty = quasi.BipartiteGraph(4, 6, np.zeros((6, 4), dtype=bool))
    assert quasi.eps3_spectral(empty)[0] == 0.0
    single = quasi.BipartiteGraph(1, 5, np.ones((5, 1), dtype=bool))
    assert quasi.eps3_spectral(single)[0] == 0.0


def test_eps3_matches_dense_svd():
    rng = np.random.default_rng(4)
    for _ in range(40):
        bg = random_graph(rng, 20, 20)
        m = bg.adj.astype(float)
        mc = m - m.mean(axis=1, keepdims=True)
        ref = np.linalg.svd(mc, compute_uv=False)[0] / np.sqrt(
            bg.v_size * bg.w_size)
        e3, err = quasi.eps3_spectral(bg)
        assert abs(e3 - ref) <= 1e-10 + err


def test_is_eps_regular():
    full = quasi.BipartiteGraph(4, 4, np.ones((4, 4), dtype=bool))
    assert quasi.is_eps_regular(full, Fraction(1, 10))[0]
    single = quasi.BipartiteGraph(2, 2, np.array([[1, 0], [0, 0]], dtype=bool))
    ok, witness = quasi.is_eps_regular(single, Fraction(1, 10))
    assert not ok
    a_ids, b_ids = witness
    # the witness actually violates the bound
    cnt = int(single.adj[np.ix_(b_ids, a_ids)].sum())
    disc = abs(Fraction(cnt) - single.delta * len(a_ids) * len(b_ids))
    assert disc > Fraction(1, 10) * len(a_ids) * len(b_ids)


def test_weak_regularity_implies_cuberoot_regularity():
    rng = np.random.default_rng(5)
    for _ in range(15):
        bg = random_graph(rng, 6, 6)
        e2 = quasi.eps2_exact(bg)
        if e2 == 0:
            continue
        eps = Fraction(float(e2) ** (1 / 3)).limit_denominator(10 ** 6)
        # widen a hair to absorb the rational rounding
        ok, _ = quasi.is_eps_regular(bg, eps + Fraction(1, 10 ** 6))
        assert ok


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(6)
    for _ in range(10):
        bg = random_graph(rng, 8, 8)
        pv = rng.permutation(bg.v_size)
        pw = rng.permutation(bg.w_size)
        bg2 = quasi.BipartiteGraph(bg.v_size, bg.w_size,
                                   bg.adj[np.ix_(pw, pv)])
        assert quasi.eps1_quasirandomness(bg) == quasi.eps1_quasirandomness(bg2)
        assert quasi.eps2_exact(bg) == quasi.eps2_exact(bg2)
        a, ea = quasi.eps3_spectral(bg)
        b, eb = quasi.eps3_spectral(bg2)
        assert abs(a - b) <= ea + eb + 1e-12


def test_gowers_relations_on_circulants():
    rng = np.random.default_rng(7)
    ids_cache = {}
    for _ in range(50):
        n = int(rng.integers(2, 11))
        d = rng.random(n) < rng.random()
        ids = ids_cache.setdefault(n, np.arange(n))
        adj = d[(ids[None, :] - ids[:, None]) % n]
        rep = quasi.verify_gowers_relations(quasi.BipartiteGraph(n, n, adj))
        assert rep.all_relations_hold()
        assert "eps1_le_delta_eps3_sq" in rep.relations


def test_spectral_converse_fails_off_biregular():
    # rows alternately full and empty: eps3 = 0 but eps1 > 0, so the
    # delta*eps3^2 converse cannot hold outside the biregular domain and is
    # reported as a finding there
    adj = np.zeros((4, 4), dtype=bool)
    adj[:2, :] = True
    rep = quasi.verify_gowers_relations(quasi.BipartiteGraph(4, 4, adj))
    assert "eps1_le_delta_eps3_sq" not in rep.relations
    assert rep.findings["eps1_le_delta_eps3_sq_irregular"] is False
    assert rep.eps3 < 1e-9 and rep.eps1 > 0
    # forward relations still hold
    assert rep.relations["eps2_le_eps1_quarter"]
    assert rep.relations["eps3_le_eps1_quarter"]


def test_forward_relations_hold_on_irregular_graphs():
    rng = np.random.default_rng(8)
    for _ in range(60):
        bg = random_graph(rng, 9, 9)
        rep = quasi.verify_gowers_relations(bg)
        assert rep.relations["eps2_le_eps1_quarter"]
        assert rep.relations["eps3_le_eps1_quarter"]


def test_quasi_report_json():
    _, _, bg = paley_graph(5)
    rep = quasi.verify_gowers_relations(bg)
    doc = rep.to_json_dict()
    assert doc["schema"] == 1
    assert doc["delta"] == {"num": 2, "den": 5}
    assert set(doc["eps3"]) == {"value", "error"}
    assert isinstance(doc["relations"], dict)
