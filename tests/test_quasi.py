"""Graph quasirandomness metrics against independent brute-force oracles."""

from __future__ import annotations

import weakref
from fractions import Fraction

import numpy as np
import pytest

from qrlab import grp, quasi, reglab
from qrlab.errors import (QrlabError, RoundingNotCertified, ShapeMismatch,
                          SideTooLarge)
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


def c4_python_ints(adj):
    """C4 = sum over v, v' of |N_v ∩ N_v'|^2, with each neighbourhood a
    Python int bitmask, so no numpy arithmetic is involved."""
    cols = [int("".join("1" if x else "0" for x in col), 2) for col in adj.T]
    return sum(bin(a & b).count("1") ** 2 for a in cols for b in cols)


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


def test_cayley_bipartite_coset_block():
    # column a is H's a-th member, row b is t times it: adj[b, a] = D(a·(t·b)^-1)
    g = grp.sl2(make_field(3))
    h = next(s for s in grp.normal_subgroups_up_to_index(g, 3) if s.index == 3)
    d = np.random.default_rng(1).random(g.order) < 0.4
    elems = h.element_ids()
    for t in range(g.order):
        bg = quasi.cayley_bipartite(g, d, h, t)
        assert bg.v_size == bg.w_size == 8
        for b, a in [(0, 0), (3, 5), (7, 2)]:
            w = g.table[t, elems[b]]
            assert bg.adj[b, a] == d[g.table[elems[a], g.inv[w]]]
    with pytest.raises(QrlabError):
        quasi.cayley_bipartite(grp.sl2(make_field(3)), d, h, 0)


def test_bipartite_graph_shape_checked():
    with pytest.raises(ShapeMismatch):
        quasi.BipartiteGraph(2, 3, np.zeros((2, 2), dtype=bool))


def test_eps1_complete_bipartite_zero():
    bg = quasi.BipartiteGraph(5, 7, np.ones((7, 5), dtype=bool))
    assert quasi.eps1_quasirandomness(bg) == 0


def test_eps1_matches_quadruple_loop():
    rng = np.random.default_rng(2)
    graphs = []
    for _ in range(50):
        bg = random_graph(rng)
        c4 = c4_quadruple_loop(bg.adj)
        assert c4_python_ints(bg.adj) == c4
        graphs.append((bg, c4))
    # rectangular graphs, one with |W| >= 2048
    for v, w in [(3, 40), (40, 3), (17, 300), (6, 2100), (23, 2048)]:
        adj = rng.random((w, v)) < rng.random()
        bg = quasi.BipartiteGraph(v, w, adj)
        graphs.append((bg, c4_python_ints(adj)))
    for bg, c4 in graphs:
        expected = max(Fraction(0),
                       Fraction(c4, (bg.v_size * bg.w_size) ** 2)
                       - bg.delta ** 4)
        assert quasi.eps1_quasirandomness(bg) == expected


def test_eps1_paley_range():
    for q in (13, 101, 557):
        _, _, bg = paley_graph(q)
        e1 = quasi.eps1_quasirandomness(bg)
        assert e1 == Fraction((q - 1) * (q * q + 6 * q + 1), 16 * q ** 4)
        assert Fraction(0) < e1 <= Fraction(2, q)


def test_eps1_artin_schreier_blocks_zero():
    g = grp.additive_group(make_field(2, 2))
    d = np.zeros(4, dtype=bool)
    d[[0, 2]] = True  # the image subgroup itself
    h = grp.Subgroup(parent=g, members=d)
    for t in grp.cosets(h).reps:
        bg = quasi.cayley_bipartite(g, d, h, t)
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
    graphs = [random_graph(rng, 20, 20) for _ in range(40)]
    # Paley graphs with a degenerate top eigenspace
    graphs += [paley_graph(q)[2] for q in (101, 103)]
    fams = reglab.builtin_families()
    g, d, _ = fams["sl2_trace_square"].instantiate(5)
    graphs.append(quasi.cayley_bipartite(g, d))
    # coset blocks of GF(27)+ over the Artin-Schreier subgroup, random D
    g, h_mask, _ = fams["artin_schreier"].instantiate(27)
    h = grp.Subgroup(parent=g, members=h_mask)
    d = rng.random(g.order) < 0.4
    graphs += [quasi.cayley_bipartite(g, d, h, t) for t in grp.cosets(h).reps]
    # rectangular and irregular, both orientations
    adj = rng.random((7, 23)) < 0.3
    graphs += [quasi.BipartiteGraph(23, 7, adj), quasi.BipartiteGraph(7, 23, adj.T)]
    for bg in graphs:
        m = bg.adj.astype(float)
        mc = m - m.mean(axis=1, keepdims=True)
        ref = np.linalg.svd(mc, compute_uv=False)[0] / np.sqrt(
            bg.v_size * bg.w_size)
        e3, err = quasi.eps3_spectral(bg)
        assert err <= 1e-9
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


# -- the FFT block route against the dense kernels ------------------------------

def assert_fft_route_matches_dense(g, d, blocks, name):
    """block_stats on a group with a digit layout against cayley_bipartite +
    eps1_quasirandomness + eps3_spectral on the same blocks: eps1 equal,
    eps3 within the sum of the two certified errors."""
    assert g.radix, name
    stats = quasi.block_stats(g, d, blocks)
    assert len(stats) == len(blocks), name
    for (h, t), st in zip(blocks, stats):
        bg = quasi.cayley_bipartite(g, d, h, t)
        e3, err = quasi.eps3_spectral(bg)
        assert st.eps1 == quasi.eps1_quasirandomness(bg), (name, t)
        assert abs(st.eps3 - e3) <= st.eps3_err + err, (name, t, st.eps3, e3)


def dense_twin(g):
    """g's table without its digit layout, so every kernel runs densely."""
    return grp.make_group(g.table, g.identity, label=g.label, field_spec=g.field)


def candidate_blocks(g, max_index):
    return [(h, int(t)) for h in grp.normal_subgroups_up_to_index(g, max_index)
            for t in grp.cosets(h).reps]


def test_fft_route_matches_dense_on_small_groups():
    # the groups of the lemma24 suite: Z/n for n <= 32, (F_q, +) for q <= 64
    rng = np.random.default_rng(24)
    groups = [grp.cyclic_group(n) for n in range(2, 33)]
    for q in range(2, 65):
        try:
            p, n = reglab.factor_prime_power(q)
        except QrlabError:
            continue
        groups.append(grp.additive_group(make_field(p, n)))
    for g in groups:
        for _ in range(2):
            d = rng.random(g.order) < rng.random()
            t = int(rng.integers(g.order))
            blocks = [(None, None), (None, t)] + candidate_blocks(g, 3)
            assert_fft_route_matches_dense(g, d, blocks, str(g))


@pytest.mark.parametrize("p, n, max_index", [(2, 7, 2), (3, 4, 3), (5, 3, 5)])
def test_fft_route_matches_dense_on_every_candidate_block(p, n, max_index):
    g, family_d, _ = reglab.builtin_families()["artin_schreier"].instantiate(p ** n)
    rng = np.random.default_rng(p ** n)
    twin = dense_twin(g)
    for d in (family_d, rng.random(g.order) < 0.4):
        assert_fft_route_matches_dense(g, d, candidate_blocks(g, max_index), (p, n))
        fast = reglab.subgroup_search(g, d, max_index)
        dense = reglab.subgroup_search(twin, d, max_index)
        assert np.array_equal(fast.subgroup.members, dense.subgroup.members)
        assert (fast.index, fast.max_coset_eps1) == (dense.index, dense.max_coset_eps1)
        assert [st.eps1 for st in fast.per_coset] == [st.eps1 for st in dense.per_coset]
        assert fast.full.eps1 == dense.full.eps1


@pytest.mark.parametrize("q", [13, 521, 557])
def test_fft_route_matches_dense_on_paley(q):
    g, d, _ = reglab.builtin_families()["paley"].instantiate(q)
    fast, dense = reglab.analyse(g, d, 1), reglab.analyse(dense_twin(g), d, 1)
    for key in ("delta", "eps1", "h_index", "max_coset_eps1"):
        assert fast[key] == dense[key], key
    assert abs(fast["eps3"] - dense["eps3"]) <= fast["eps3_err"] + dense["eps3_err"]
    assert fast["fourier_eps"] == fast["eps3"]


def test_fft_route_batches_agree(monkeypatch):
    g, d, _ = reglab.builtin_families()["artin_schreier"].instantiate(81)
    d = d ^ (np.arange(81) % 7 == 0)
    blocks = candidate_blocks(g, 3)
    whole = quasi.block_stats(g, d, blocks)
    monkeypatch.setattr(quasi, "FFT_BATCH_CELLS", 5 * 81)
    assert quasi.block_stats(g, d, blocks) == whole


def test_fft_route_refuses_an_uncertified_rounding(monkeypatch):
    g, d, _ = paley_graph(13)
    assert quasi.block_stats(g, d, [(None, None)])[0].eps1
    # a rounding unit large enough that the bound on the autocorrelation
    # reaches 1/2: the rounded integers are no longer proven, which the
    # first eps1 read finds
    monkeypatch.setattr(quasi, "FFT_ROUNDING", 1e-3)
    st, = quasi.block_stats(g, d, [(None, None)])
    with pytest.raises(RoundingNotCertified):
        st.eps1
    with pytest.raises(RoundingNotCertified):
        st.eps1


def test_fft_route_rejects_a_foreign_subgroup():
    g, d, _ = paley_graph(13)
    other = grp.additive_group(make_field(13))
    h = grp.Subgroup(parent=other, members=np.ones(13, dtype=bool))
    with pytest.raises(QrlabError, match="not a subgroup"):
        quasi.block_stats(g, d, [(h, 0)])


def test_dense_block_stats_run_each_kernel_once_on_first_read(monkeypatch):
    g = grp.sl2(make_field(3))
    d = np.random.default_rng(21).random(g.order) < 0.5
    bg = quasi.cayley_bipartite(g, d)
    eps1, eps3 = quasi.eps1_quasirandomness(bg), quasi.eps3_spectral(bg)
    calls = []
    for name in ("eps1_quasirandomness", "eps3_spectral"):
        def counted(graph, _fn=getattr(quasi, name), _name=name):
            calls.append(_name)
            return _fn(graph)
        monkeypatch.setattr(quasi, name, counted)
    graphs, build = [], quasi.cayley_bipartite

    def recorded(*args):
        bg = build(*args)
        graphs.append(weakref.ref(bg))
        return bg
    monkeypatch.setattr(quasi, "cayley_bipartite", recorded)
    st, = quasi.block_stats(g, d, [(None, None)])
    assert calls == [] and len(graphs) == 1
    assert (st.eps3, st.eps3_err) == eps3
    assert graphs[0]() is not None  # eps1 still unread
    assert st.eps1 == eps1
    assert graphs[0]() is None  # released once both kernels have run
    assert (st.eps1, st.eps3, st.eps3_err) == (eps1, *eps3)
    assert calls == ["eps3_spectral", "eps1_quasirandomness"]


def eps2_search_groups():
    yield from (grp.cyclic_group(n) for n in range(2, 23))
    for q in range(2, 24):
        try:
            p, n = reglab.factor_prime_power(q)
        except QrlabError:
            continue
        yield grp.additive_group(make_field(p, n))
        yield grp.multiplicative_group(make_field(p, n))
    yield grp.sl2(make_field(2))


def test_block_eps2_matches_the_dense_block(monkeypatch):
    # every block of a search over every normal subgroup, on both routes:
    # eps2 is eps2_exact of the block's dense graph up to EPS2_SIDE_CAP and
    # None above it.  eps2_exact is recorded, not rerun: the graph it was
    # given must be the dense block and its value the block's eps2.
    rng = np.random.default_rng(23)
    seen, eps2_exact = [], quasi.eps2_exact

    def recorded(bg):
        seen.append((bg.adj.copy(), eps2_exact(bg)))
        return seen[-1][1]
    monkeypatch.setattr(quasi, "eps2_exact", recorded)
    sides = set()
    for g in eps2_search_groups():
        d = rng.random(g.order) < rng.random()
        blocks = [(h, int(t)) for h in grp.normal_subgroups_up_to_index(g, g.order)
                  for t in reglab._coset_translates(h)]
        for (h, t), st in zip(blocks, quasi.block_stats(g, d, blocks)):
            sides.add(h.size)
            seen.clear()
            eps2 = st.eps2
            if h.size > quasi.EPS2_SIDE_CAP:
                assert eps2 is None and seen == [], (str(g), t)
                continue
            elems = h.element_ids()
            dense = d[g.table[elems[None, :], g.inv[g.table[t, elems]][:, None]]]
            (adj, want), = seen
            assert np.array_equal(adj, dense) and eps2 == want, (str(g), h.size, t)
            assert st.eps2 == want and len(seen) == 1, (str(g), h.size, t)
    # both sides of the cap are reached
    assert {quasi.EPS2_SIDE_CAP, quasi.EPS2_SIDE_CAP + 1} <= sides
