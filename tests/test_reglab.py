"""Families, subgroup search, sweeps, and counting estimators."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qrlab import defform, fourier, grp, quasi, reglab
from qrlab.errors import InadmissibleQ, NotSubset, ShapeMismatch

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
    assert g.order == 24
    # sanity: membership depends only on the trace
    from qrlab.ffield import make_field, ops
    fops = ops(make_field(3))
    trace = fops.add(g.sl2_entries[:, 0], g.sl2_entries[:, 3])
    for t in range(3):
        vals = d[trace == t]
        assert vals.all() or not vals.any()


def test_instantiate_rejects_wrong_mask_shape():
    paley = reglab.builtin_families()["paley"]
    fam = reglab.Family(name="short", group_builder=paley.group_builder,
                        formula_of=paley.formula_of,
                        admissible=paley.admissible,
                        connection_set=lambda g, spec, f: np.zeros(g.order - 1))
    with pytest.raises(ShapeMismatch):
        fam.instantiate(5)


def test_subgroup_search_artin_schreier():
    fam = reglab.builtin_families()["artin_schreier"]
    g, d, _ = fam.instantiate(4)
    out = reglab.subgroup_search(g, d, 2)
    assert out.index == 2
    assert out.max_coset_eps1 == 0
    assert np.array_equal(out.subgroup.members, d)
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
    assert rec13["pairs"][(0, 0)]["exact"]


def test_verify_suites_pass():
    for name in ("cor25",):
        result = reglab.run_verify_suite(name, seed=0)
        assert result.passed, result.lines
    with pytest.raises(KeyError):
        reglab.run_verify_suite("nope")


# -- translate invariance of the coset Fourier parameter -------------------------

def translate_eps(g, d, h, t) -> float:
    """Subset parameter of Dt ∩ H inside H, by the spectral route."""
    dt = np.zeros(g.order, dtype=bool)
    dt[g.table[np.flatnonzero(d), t]] = True
    return fourier.subset_qr_spectral(grp.subgroup_group(h), dt[h.element_ids()]).eps


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


def test_translate_fourier_eps_needs_one_translate_per_coset():
    # Dxh ∩ H = (Dx ∩ H)·h, and right translation inside H leaves every
    # Fourier operator norm unchanged, normal H or not
    seen = set()
    for name, g, d, h in translate_cases():
        seen.add(h.normal)
        dec = grp.cosets(h)
        per_rep = []
        for x in dec.reps:
            base = translate_eps(g, d, h, x)
            for y in h.element_ids():
                eps = translate_eps(g, d, h, g.table[x, y])
                assert abs(eps - base) <= 1e-12, (name, int(x), int(y))
            per_rep.append(base)
        assert reglab._translate_fourier_eps(g, d, h) == max(per_rep), name
    assert seen == {True, False}
