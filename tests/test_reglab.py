"""Families, subgroup search, sweeps, and counting estimators."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qrlab import defform, fourier, grp, quasi, reglab
from qrlab.errors import InadmissibleQ, NotSubset, QrlabError, UnboundVariable
from qrlab.ffield import make_field, ops

ODD_PRIME_POWERS = [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41,
                    43, 47, 49, 53, 59, 61]


def test_factor_prime_power():
    assert reglab.factor_prime_power(7) == (7, 1)
    assert reglab.factor_prime_power(27) == (3, 3)
    assert reglab.factor_prime_power(64) == (2, 6)
    for bad in (1, 6, 12, 100):
        with pytest.raises(InadmissibleQ):
            reglab.factor_prime_power(bad)


def test_builtin_families_present():
    fams = reglab.builtin_families()
    assert {"paley", "artin_schreier", "sl2_trace_square",
            "mult_cubes"} <= set(fams)


def test_paley_family():
    fam = reglab.builtin_families()["paley"]
    g, d, f = fam.instantiate(13)
    assert g.order == 13 and int(d.sum()) == 6
    with pytest.raises(InadmissibleQ):
        fam.instantiate(8)  # squaring is bijective in characteristic 2


def test_artin_schreier_family():
    fam = reglab.builtin_families()["artin_schreier"]
    g, d, f = fam.instantiate(4)
    assert np.flatnonzero(d).tolist() == [0, 2]
    assert int(d.sum()) * 2 == g.order  # index-2 subgroup
    g9, d9, f9 = fam.instantiate(9)
    assert int(d9.sum()) * 3 == g9.order  # index-p subgroup
    with pytest.raises(InadmissibleQ):
        fam.instantiate(7)  # needs a proper extension


def test_mult_cubes_family():
    fam = reglab.builtin_families()["mult_cubes"]
    g, d, f = fam.instantiate(13)
    assert g.order == 12 and int(d.sum()) == 4
    with pytest.raises(InadmissibleQ):
        fam.instantiate(11)


def test_sl2_trace_square_family():
    fam = reglab.builtin_families()["sl2_trace_square"]
    g, d, f = fam.instantiate(3)
    assert g.order == 24 and set(f.free_vars) == {"a", "d"}
    # sanity: membership depends only on the trace
    fops = ops(g.field)
    trace = fops.add(g.coords["a"], g.coords["d"])
    for t in range(3):
        vals = d[trace == t]
        assert vals.all() or not vals.any()


SQUARE = defform.parse("exists y. x = y*y & !(x = 0)")


def connection_by_field_map(g, f):
    """Reference: the one-field-map rule D = φ⁻¹(S), S the set of a
    formula in x, φ the element on (F_q, ±) and the trace on SL2, read off
    the coordinates.  On SL2, S is the square formula the trace family used
    when the trace was its one field map."""
    if g.label == "sl2":
        fops = ops(g.field)
        return defform.evaluate(SQUARE, g.field).membership[
            fops.add(g.coords["a"], g.coords["d"])]  # the trace
    mask = defform.evaluate(f, g.field).membership
    if g.label == "additive":
        return mask
    return mask[1:]  # group id e is field index e + 1


def test_connection_set_matches_per_group_rules():
    kinds = set()
    for fam in reglab.builtin_families().values():
        for q in range(2, 14):
            try:
                g, d, f = fam.instantiate(q)
            except InadmissibleQ:
                continue
            want = connection_by_field_map(g, f)
            assert d.dtype == bool and d.shape == (g.order,), (fam.name, q)
            assert np.array_equal(d, want), (fam.name, q)
            kinds.add(g.label)
    assert kinds == {"additive", "multiplicative", "sl2"}


def test_connection_set_of_a_sentence_is_all_or_nothing():
    for g in (grp.additive_group(make_field(5)), grp.multiplicative_group(make_field(7)),
              grp.sl2(make_field(3))):
        assert reglab.connection_set(g, defform.parse("0 = 0")).tolist() == [True] * g.order
        assert reglab.connection_set(g, defform.parse("0 = 1")).tolist() == [False] * g.order


def test_connection_set_reads_the_first_free_variable_most_significant():
    # over F_3, "b = c + 1" and "c = b + 1" define different sets
    g = grp.sl2(make_field(3))
    b, c = g.coords["b"], g.coords["c"]
    for text, want in (("b = c + 1", b == (c + 1) % 3), ("c = b + 1", c == (b + 1) % 3),
                       ("d = 0 & b = 1", (g.coords["d"] == 0) & (b == 1))):
        assert np.array_equal(reglab.connection_set(g, defform.parse(text)), want), text


def test_connection_set_unbound_variables():
    sl2_3 = grp.sl2(make_field(3))
    with pytest.raises(UnboundVariable, match=r"\['x'\] are not coordinates"):
        reglab.connection_set(sl2_3, SQUARE)
    with pytest.raises(UnboundVariable, match="not coordinates"):
        reglab.connection_set(grp.additive_group(make_field(13)), defform.parse("x = y"))
    for f in (SQUARE, defform.parse("0 = 0")):
        with pytest.raises(UnboundVariable, match="no field"):
            reglab.connection_set(grp.cyclic_group(5), f)


def test_subgroup_group_keeps_its_coordinates():
    # the index-3 Artin-Schreier image in GF(3^4), then SL2(3)'s normal Q8
    g = grp.additive_group(make_field(3, 4))
    h = grp.Subgroup(parent=g, members=reglab.connection_set(
        g, defform.parse("exists y. x = y*y*y - y")))
    s = grp.sl2(make_field(3))
    q8 = next(n for n in grp.normal_subgroups_up_to_index(s, 3) if n.index == 3)
    for h, f in ((h, SQUARE), (q8, defform.parse("b = 0"))):
        assert h.index == 3
        assert np.array_equal(reglab.connection_set(grp.subgroup_group(h), f),
                              reglab.connection_set(h.parent, f)[h.element_ids()])
        # a coset has no single point
        with pytest.raises(UnboundVariable):
            reglab.connection_set(grp.quotient_group(h), f)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_sl2_upper_triangular_count(q):
    # b = 0: a is any unit and fixes d = 1/a, c is free
    g = grp.sl2(make_field(q))
    d = reglab.connection_set(g, defform.parse("b = 0"))
    assert int(d.sum()) == q * (q - 1)


def test_subgroup_search_artin_schreier():
    fam = reglab.builtin_families()["artin_schreier"]
    # GF(p^n) at index p: D, the image of y^p - y, is the best subgroup
    for q, p in ((4, 2), (256, 2), (125, 5)):
        g, d, _ = fam.instantiate(q)
        out = reglab.subgroup_search(g, d, p)
        assert out.index == p
        assert out.max_coset_eps1 == 0
        assert np.array_equal(out.subgroup.members, d)
    g, d, _ = fam.instantiate(4)
    # with only the trivial subgroup allowed, the defect is at least 1/16
    out1 = reglab.subgroup_search(g, d, 1)
    assert out1.index == 1 and out1.max_coset_eps1 >= Fraction(1, 16)


def test_subgroup_search_full_connection_set():
    fam = reglab.builtin_families()["paley"]
    g, _, _ = fam.instantiate(5)
    out = reglab.subgroup_search(g, np.ones(5, dtype=bool), 5)
    assert out.max_coset_eps1 == 0 and out.index == 1


def test_subgroup_search_prime_order():
    fam = reglab.builtin_families()["paley"]
    g, d, _ = fam.instantiate(13)
    out = reglab.subgroup_search(g, d, 3)
    assert out.index == 1


def test_subgroup_search_rejects_max_index_below_one():
    g, d, _ = reglab.builtin_families()["paley"].instantiate(13)
    for bad in (0, -2):
        with pytest.raises(QrlabError, match="below 1"):
            reglab.subgroup_search(g, d, bad)


def counted(monkeypatch, module, names):
    """Wraps module.<name> for each name to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def wrapper(*a, _name=name, _fn=fn, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_block_per_coset(monkeypatch):
    # (Z/3)^4 has 40 subgroups of index 3 besides G itself: 1 + 40·3 blocks
    # (one per coset), not 1 + 40·9 (one per coset pair), in one call that
    # builds no graph on a group with a digit layout
    fam = reglab.builtin_families()["artin_schreier"]
    g, d, _ = fam.instantiate(81)
    batches = []
    block_stats = quasi.block_stats

    def recorded(g, d, blocks):
        batches.append(len(blocks))
        return block_stats(g, d, blocks)
    monkeypatch.setattr(quasi, "block_stats", recorded)
    calls = counted(monkeypatch, quasi, ["cayley_bipartite", "eps1_quasirandomness",
                                         "eps3_spectral"])
    reglab.subgroup_search(g, d, 3)
    assert batches == [121]
    assert calls == {"cayley_bipartite": 0, "eps1_quasirandomness": 0, "eps3_spectral": 0}
    # GF(27): 1 + 13·3 blocks in the search, then 3 graphs for the winner's eps2
    batches.clear()
    calls = counted(monkeypatch, quasi, ["cayley_bipartite"])
    reglab.weak_regularity_audit(fam, 27, 3)
    assert batches == [40] and calls == {"cayley_bipartite": 3}
    # F_13^* has no digit layout: each of its 1 + 2 + 3 + 4 blocks is built
    # and goes through the dense eps1; eps3 runs only on what analyse reads,
    # (G, e) and the 3 blocks of the index-3 winner
    batches.clear()
    g, d, _ = reglab.builtin_families()["mult_cubes"].instantiate(13)
    calls = counted(monkeypatch, quasi, ["cayley_bipartite", "eps1_quasirandomness",
                                         "eps3_spectral"])
    assert reglab.analyse(g, d, 4)["h_index"] == 3
    assert batches == [10]
    assert calls == {"cayley_bipartite": 10, "eps1_quasirandomness": 10, "eps3_spectral": 4}


def test_subgroup_search_monotone_in_max_index():
    fam = reglab.builtin_families()["artin_schreier"]
    g, d, _ = fam.instantiate(8)
    prev = None
    for k in (1, 2, 4):
        out = reglab.subgroup_search(g, d, k)
        if prev is not None:
            assert out.max_coset_eps1 <= prev
        prev = out.max_coset_eps1


def test_sweep_paley():
    fam = reglab.builtin_families()["paley"]
    res = reglab.sweep(fam, [5, 13, 17, 29], max_index=1, seed=0)
    assert [r["q"] for r in res.rows] == [5, 13, 17, 29]
    assert res.slope_eps1 is not None and res.slope_eps1 <= -0.8
    for r in res.rows:
        q = r["q"]
        assert abs(r["eps3"] - (np.sqrt(q) + 1) / (2 * q)) < 1e-6
        assert r["h_index"] == 1


def test_sweep_rows_hold_no_outcome():
    # the outcome holds the group through its subgroup; a row keeps scalars
    for name, qs, max_index in (("paley", [5, 7], 1), ("artin_schreier", [4, 9], 3),
                                ("sl2_trace_square", [3], 3), ("mult_cubes", [7], 6)):
        res = reglab.sweep(reglab.builtin_families()[name], qs, max_index=max_index)
        assert all("outcome" not in r for r in res.rows), name


def test_sweep_single_q_has_no_slope():
    fam = reglab.builtin_families()["paley"]
    res = reglab.sweep(fam, [13], max_index=1, seed=0)
    assert len(res.rows) == 1 and res.slope_eps1 is None


def test_sweep_artin_schreier_zero_rows():
    fam = reglab.builtin_families()["artin_schreier"]
    res = reglab.sweep(fam, [4, 8, 16], max_index=2, seed=0)
    for r in res.rows:
        assert r["h_index"] == 2
        assert r["max_coset_eps1"] == 0
        assert r["fourier_eps"] < 1e-12  # translates of D meet H in all/nothing
    assert res.zero_rows == [4, 8, 16]
    assert res.slope_eps1 is None


def test_sweep_serialization():
    fam = reglab.builtin_families()["paley"]
    res = reglab.sweep(fam, [5, 13], max_index=1, seed=0)
    doc = res.to_json_dict()
    assert doc["schema"] == 1 and doc["seed"] == 0
    assert doc["rows"][0]["delta"] == {"num": 2, "den": 5}
    assert doc["rows"][0]["order_hash"]
    csv_rows = res.to_csv_rows()
    assert csv_rows[0] == ["q", "delta_num", "delta_den", "eps1_num",
                           "eps1_den", "eps3", "fourier_eps", "h_index",
                           "max_coset_eps1_num", "max_coset_eps1_den"]
    assert len(csv_rows) == 3


def test_estimate_dim_measure_quadratic_residues():
    f = defform.parse("exists y. x = y*y & !(x = 0)")
    dm = reglab.estimate_dim_measure(f, ODD_PRIME_POWERS)
    assert dm.d == 1
    assert dm.r == Fraction(1, 2)
    assert dm.residual <= 1


def test_estimate_dim_measure_singleton():
    dm = reglab.estimate_dim_measure(defform.parse("x = 0"), [5, 7, 9, 11, 13])
    assert dm.d == 0 and dm.r == 1 and dm.residual == 0


def test_estimate_dim_measure_empty():
    dm = reglab.estimate_dim_measure(defform.parse("x = x & !(x = x)"),
                                     [5, 7, 11])
    assert dm.empty and dm.d is None


def test_check_ratio_stability_quadratic_residues():
    a = defform.parse("exists y. x = y*y & !(x = 0)")
    b = defform.parse("x = x")
    rec = reglab.check_ratio_stability(a, b, ODD_PRIME_POWERS)
    assert rec.q_star == Fraction(1, 2)
    assert rec.c_empirical <= 1


def test_check_ratio_stability_edge_cases():
    a = defform.parse("exists y. x = y*y & !(x = 0)")
    same = reglab.check_ratio_stability(a, a, [5, 7, 9])
    assert same.q_star == 1 and same.c_empirical == 0
    empty = reglab.check_ratio_stability(defform.parse("x = x & !(x = x)"),
                                         a, [5, 7, 9])
    assert empty.q_star == 0 and empty.c_empirical == 0
    with pytest.raises(NotSubset):
        reglab.check_ratio_stability(defform.parse("x = x"), a, [5])


def test_weak_regularity_audit():
    fams = reglab.builtin_families()
    rec = reglab.weak_regularity_audit(fams["artin_schreier"], 4, max_index=2)
    assert rec["max_defect"] == 0
    rec13 = reglab.weak_regularity_audit(fams["paley"], 13, max_index=1)
    e1 = float(quasi.eps1_quasirandomness(
        quasi.cayley_bipartite(*fams["paley"].instantiate(13)[:2])))
    assert rec13["max_defect"] <= e1 ** 0.25
    assert rec13["per_coset"][0]["exact"]


def test_verify_suites_pass():
    for name in ("cor25",):
        result = reglab.run_verify_suite(name, seed=0)
        assert result.passed, result.lines
    with pytest.raises(KeyError):
        reglab.run_verify_suite("nope")


def test_sl2_suite_takes_one_block_stats_call_per_subset(monkeypatch):
    calls = {"block_stats": 0, "cayley_bipartite": 0}
    for name in calls:
        def counted(*args, _fn=getattr(quasi, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quasi, name, counted)
    assert reglab.run_verify_suite("sl2", seed=0).passed
    # 100 subsets each of SL2(3) and SL2(5), one graph apiece
    assert calls == {"block_stats": 200, "cayley_bipartite": 200}


# -- translate invariance of the coset Fourier parameter -------------------------

def translate_eps(g, d, h, t):
    """Subset parameter of Dt ∩ H inside H, by the spectral route, with its
    certified error."""
    dt = np.zeros(g.order, dtype=bool)
    dt[g.table[np.flatnonzero(d), t]] = True
    sq = fourier.subset_qr_spectral(grp.subgroup_group(h), dt[h.element_ids()])
    return sq.eps, sq.err


def translate_cases():
    rng = np.random.default_rng(7)
    fams = reglab.builtin_families()
    for q in (3, 5):
        g, d, _ = fams["sl2_trace_square"].instantiate(q)
        centre = grp.generated_subgroup(g, [int(np.flatnonzero(g.element_orders == 2)[0])])
        subs = [centre]
        if q == 3:
            subs.append(next(s for s in grp.normal_subgroups_up_to_index(g, 3)
                             if s.index == 3))  # Q8
            subs.append(grp.generated_subgroup(  # order 3, not normal
                g, [int(np.flatnonzero(g.element_orders == 3)[0])]))
        for h in subs:
            yield f"SL2({q}) |H|={h.size}", g, d, h
            yield f"SL2({q}) |H|={h.size} random D", g, rng.random(g.order) < 0.4, h
    g, d, _ = fams["artin_schreier"].instantiate(27)
    h = grp.Subgroup(parent=g, members=d)
    yield "GF(27)+ Artin-Schreier", g, d, h
    yield "GF(27)+ Artin-Schreier random D", g, rng.random(g.order) < 0.4, h
    g, d, _ = fams["mult_cubes"].instantiate(13)
    for h in grp.normal_subgroups_up_to_index(g, 4):
        yield f"F_13^* index {h.index}", g, d, h
        yield f"F_13^* index {h.index} random D", g, rng.random(g.order) < 0.4, h


def block_law_cases():
    fams = reglab.builtin_families()
    for q in (27, 81):
        g, d, _ = fams["artin_schreier"].instantiate(q)
        yield f"GF({q})+", g, d, grp.Subgroup(parent=g, members=d)
    g, d, _ = fams["mult_cubes"].instantiate(13)
    for h in grp.normal_subgroups_up_to_index(g, 4):
        yield f"F_13^* index {h.index}", g, d, h
    g, d, _ = fams["sl2_trace_square"].instantiate(3)
    for h in grp.normal_subgroups_up_to_index(g, 12):
        if h.index in (3, 12):  # Q8 and the centre
            yield f"SL2(3) index {h.index}", g, d, h


def test_coset_blocks_follow_the_block_law():
    # the (i, j) block, built densely over x_iH x x_jH, has the statistics of
    # block coset_of[x_j·x_i^-1]; block k is the Cayley graph on H of Dx_k ∩ H
    rng = np.random.default_rng(11)
    cases = list(block_law_cases())
    cases += [(name + " random D", g, rng.random(g.order) < 0.4, h)
              for name, g, _, h in cases]
    for name, g, d, h in cases:
        dec = grp.cosets(h)
        blocks = [quasi.cayley_bipartite(g, d, h, int(t)) for t in reglab._coset_translates(h)]
        assert len(blocks) == len(dec.reps), name
        e1 = [quasi.eps1_quasirandomness(bg) for bg in blocks]
        small = h.size <= quasi.EPS2_SIDE_CAP
        e2 = [quasi.eps2_exact(bg) for bg in blocks] if small else None
        hg, elems = grp.subgroup_group(h), h.element_ids()
        for k, x in enumerate(reglab._coset_translates(h)):
            assert dec.coset_of[x] == k, (name, k)
            dx = np.zeros(g.order, dtype=bool)
            dx[g.table[np.flatnonzero(d), x]] = True
            ref = quasi.cayley_bipartite(hg, dx[elems])
            assert np.array_equal(blocks[k].adj, ref.adj), (name, k)
        for i, xi in enumerate(dec.reps):
            vi = np.flatnonzero(dec.coset_of == i)
            for j, xj in enumerate(dec.reps):
                wj = np.flatnonzero(dec.coset_of == j)
                dense = quasi.BipartiteGraph(
                    len(vi), len(wj), d[g.table[vi[None, :], g.inv[wj][:, None]]])
                k = int(dec.coset_of[g.table[xj, g.inv[xi]]])
                assert quasi.eps1_quasirandomness(dense) == e1[k], (name, i, j)
                if small:
                    assert quasi.eps2_exact(dense) == e2[k], (name, i, j)
        out = reglab.subgroup_search(g, d, h.index)
        if out.subgroup == h:
            assert tuple(st.eps1 for st in out.per_coset) == tuple(e1), name


def test_translate_fourier_eps_needs_one_translate_per_coset():
    # Dxh ∩ H = (Dx ∩ H)·h, and right translation inside H leaves every
    # Fourier operator norm unchanged, normal H or not
    seen = set()
    for name, g, d, h in translate_cases():
        seen.add(h.normal)
        dec = grp.cosets(h)
        for x in dec.reps:
            base, _ = translate_eps(g, d, h, x)
            for y in h.element_ids():
                eps, _ = translate_eps(g, d, h, g.table[x, y])
                assert abs(eps - base) <= 1e-12, (name, int(x), int(y))
        ts = [int(t) for t in reglab._coset_translates(h)]
        per_coset = [translate_eps(g, d, h, t) for t in ts]
        stats = quasi.block_stats(g, d, [(h, t) for t in ts])
        got, want = reglab._translate_fourier_eps(stats), max(eps for eps, _ in per_coset)
        if g.radix:
            # the transform route: equal within both certified errors
            err = max(st.eps3_err for st in stats) + max(e for _, e in per_coset)
            assert abs(got - want) <= err, name
        else:
            # the dense route runs eps3_spectral on the same graphs
            assert got == want, name
    assert seen == {True, False}
