"""Command-line interface behavior and exit codes."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from qrlab import cli, defform, fourier, grp, quasi, reglab
from qrlab.grp import parse_group_literal

SQUARE = "exists y. x = y*y & !(x = 0)"
TRACE_SQUARE = "exists y. a + d = y*y & !(a + d = 0)"


def run(*args):
    return CliRunner().invoke(cli.cli, list(args))


def test_eval_quadratic_residues():
    res = run("eval", "--field", "13", "--formula",
              "exists y. x = y*y & !(x = 0)")
    assert res.exit_code == 0
    assert "size: 6 of 13" in res.output
    assert "1,3,4,9,10,12" in res.output
    assert "complexity 14" in res.output


def test_eval_json():
    res = run("eval", "--field", "13", "--formula", "x = 0", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["size"] == 1 and doc["q"] == 13 and doc["complexity"] == 3


def test_eval_with_params():
    res = run("eval", "--field", "13", "--formula", "x = a*a",
              "--param", "a=5", "--json")
    doc = json.loads(res.output)
    assert doc["size"] == 1


def test_report_artin_schreier(tmp_path):
    out = tmp_path / "report.json"
    res = run("report", "--group", "add:2^2", "--set-formula",
              "exists y. x = y*y - y", "--subgroup-max-index", "2",
              "--out", str(out))
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["eps1"] == {"num": 1, "den": 16}
    assert doc["h_index"] == 2
    assert doc["h_members"] == [0, 2]
    assert doc["max_coset_eps1"] == {"num": 0, "den": 1}
    assert doc["fourier_eps"]["value"] < 1e-12
    assert doc["modulus"] == [1, 1, 1]
    assert "seed" not in doc and doc["order_hash"]


def _report_reference(group_text, formula_text, max_index):
    """The report built the way it was before reglab.analyse: the relations
    on the full graph, the subgroup search and the translate Fourier eps,
    each computed on its own.  The Fourier eps is the subset parameter of
    Dt ∩ H inside H as a group of its own, for one t per coset."""
    g = parse_group_literal(group_text)
    f = defform.parse(formula_text)
    d = reglab.connection_set(g, f)
    rep = quasi.verify_gowers_relations(quasi.cayley_bipartite(g, d))
    outcome = reglab.subgroup_search(g, d, max_index)
    h = outcome.subgroup
    hg, fe, fe_err = grp.subgroup_group(h), 0.0, 0.0
    for t in grp.cosets(h).reps:
        dt = np.zeros(g.order, dtype=bool)
        dt[g.table[np.flatnonzero(d), t]] = True
        sq = fourier.subset_qr_spectral(hg, dt[h.element_ids()])
        fe, fe_err = max(fe, sq.eps), max(fe_err, sq.err)
    doc = rep.to_json_dict()
    doc.update({
        "group": group_text,
        "set_formula": f.serialize(),
        "set_complexity": f.complexity,
        "modulus": list(g.field.modulus),
        "order_hash": g.field.order_hash,
        "h_index": outcome.index,
        "h_members": [int(x) for x in outcome.subgroup.element_ids()],
        "max_coset_eps1": {"num": outcome.max_coset_eps1.numerator,
                           "den": outcome.max_coset_eps1.denominator},
        "fourier_eps": {"value": fe, "method": "spectral"},
    })
    return doc, fe_err


@pytest.mark.parametrize("group_text, formula_text, max_index, exact", [
    # (F_q, +) has a digit layout: its eps3 and Fourier eps come from the
    # batched transform, equal to the dense reference within the sum of
    # the two certified errors
    ("add:13", SQUARE, 1, False),
    ("add:3^4", "exists y. x = y*y*y - y", 3, False),
    ("mul:13", SQUARE, 4, True),
    ("sl2:3", TRACE_SQUARE, 3, True),
    # The reference's one translate is D·t for t the smallest id, which on
    # SL2 is not the identity: a relabelling of D whose eps3 agrees with
    # D's up to the certified error, not to the last bit.
    ("sl2:5", TRACE_SQUARE, 1, False),
])
def test_report_matches_reference(group_text, formula_text, max_index, exact):
    res = run("report", "--group", group_text, "--set-formula", formula_text,
              "--subgroup-max-index", str(max_index))
    assert res.exit_code == 0
    ref, ref_fe_err = _report_reference(group_text, formula_text, max_index)
    if exact:
        assert res.output == json.dumps(ref, indent=2) + "\n"
        return
    doc = json.loads(res.output)
    g = parse_group_literal(group_text)
    d = reglab.connection_set(g, defform.parse(formula_text))
    if g.radix:
        got, want = doc.pop("eps3"), ref.pop("eps3")
        assert abs(got["value"] - want["value"]) <= got["error"] + want["error"]
        per_coset = reglab.analyse(g, d, max_index)["outcome"].per_coset
        tol = max(st.eps3_err for st in per_coset) + ref_fe_err
    else:
        tol = doc["eps3"]["error"]
    got, want = doc.pop("fourier_eps"), ref.pop("fourier_eps")
    assert got["method"] == want["method"]
    assert abs(got["value"] - want["value"]) <= tol
    assert doc == ref


@pytest.mark.parametrize("args", [
    ("report", "--group", "add:13", "--set-formula", SQUARE),
    ("sweep", "--family", "paley", "--qs", "13"),
])
def test_index_one_computes_eps1_and_eps3_once(monkeypatch, args):
    # one quasi.block_stats call gives both, by the transform route on
    # (F_13, +), so no dense kernel runs
    calls = {"blocks": 0, "eps1": 0, "eps3": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(quasi, "block_stats", counted("blocks", quasi.block_stats))
    eps1 = counted("eps1", quasi.eps1_quasirandomness)
    eps3 = counted("eps3", quasi.eps3_spectral)
    for module in (quasi, fourier):
        monkeypatch.setattr(module, "eps1_quasirandomness", eps1)
        monkeypatch.setattr(module, "eps3_spectral", eps3)
    assert run(*args).exit_code == 0
    assert calls == {"blocks": 1, "eps1": 0, "eps3": 0}


@pytest.mark.parametrize("group_text, formula_text, max_index, graphs", [
    ("add:3^4", "exists y. x = y*y*y - y", 3, 0),
    ("add:13", SQUARE, 1, 1),
])
def test_report_builds_a_graph_only_for_eps2(monkeypatch, group_text, formula_text,
                                             max_index, graphs):
    # the transform gives every block's eps1 and eps3; the full graph is
    # built only for eps2, which a side of 81 is above EPS2_SIDE_CAP for
    built, build = [], quasi.cayley_bipartite

    def recorded(*args):
        built.append(args)
        return build(*args)
    monkeypatch.setattr(quasi, "cayley_bipartite", recorded)
    res = run("report", "--group", group_text, "--set-formula", formula_text,
              "--subgroup-max-index", str(max_index))
    assert res.exit_code == 0
    assert len(built) == graphs
    assert (json.loads(res.output)["eps2"] is not None) == bool(graphs)


def test_sweep_csv(tmp_path):
    out = tmp_path / "paley.csv"
    res = run("sweep", "--family", "paley", "--qs", "5,13,17,29",
              "--out", str(out))
    assert res.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["q"] for r in rows] == ["5", "13", "17", "29"]
    assert rows[0]["delta_num"] == "2" and rows[0]["delta_den"] == "5"
    assert set(rows[0]) == {"q", "delta_num", "delta_den", "eps1_num",
                            "eps1_den", "eps3", "fourier_eps", "h_index",
                            "max_coset_eps1_num", "max_coset_eps1_den"}
    assert "slope(log eps1 vs log q)" in res.output


def test_sweep_json(tmp_path):
    out = tmp_path / "paley.json"
    res = run("sweep", "--family", "paley", "--qs", "5,13",
              "--json-out", str(out))
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1 and len(doc["rows"]) == 2


def test_verify_suite_cor25():
    res = run("verify", "--suite", "cor25")
    assert res.exit_code == 0
    assert "PASS" in res.output


def test_usage_error_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["qr", "eval", "--field", "junk",
                                     "--formula", "x = 0"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1


@pytest.mark.parametrize("bad", [("--modulus", "x"), ("--param", "a=z")])
def test_bad_modulus_or_param_exit_code(monkeypatch, capsys, bad):
    monkeypatch.setattr("sys.argv", ["qr", "eval", "--field", "5",
                                     "--formula", "x = 0", *bad])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_missing_option_exit_code(monkeypatch):
    monkeypatch.setattr("sys.argv", ["qr", "eval", "--field", "13"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1


def test_bad_qs_exit_code(monkeypatch):
    monkeypatch.setattr("sys.argv", ["qr", "sweep", "--family", "paley",
                                     "--qs", "5,banana"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1


@pytest.mark.parametrize("qs", [",", ""])
def test_empty_qs_exit_code(monkeypatch, capsys, qs):
    monkeypatch.setattr("sys.argv", ["qr", "sweep", "--family", "paley", "--qs", qs])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage error: no field sizes in --qs")


def test_field_above_the_cell_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["qr", "eval", "--field", "4294967311",
                                     "--param", "a=-1", "--formula", "a*a = 1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: field order 4294967311 exceeds")


def test_inadmissible_q_exit_code(monkeypatch):
    monkeypatch.setattr("sys.argv", ["qr", "sweep", "--family", "paley",
                                     "--qs", "8"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("report", "--group", "add:13", "--set-formula", SQUARE,
     "--subgroup-max-index", "0"),
    ("sweep", "--family", "paley", "--qs", "13", "--max-index", "-2"),
])
def test_max_index_below_one_exit_code(monkeypatch, capsys, argv):
    monkeypatch.setattr("sys.argv", ["qr", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: max index")


@pytest.mark.parametrize("group_text, formula_text", [
    ("sl2:5", SQUARE),  # sl2's coordinates are a, b, c, d
    ("add:13", "x = y"),
])
def test_report_formula_off_the_coordinates_exit_code(monkeypatch, capsys,
                                                       group_text, formula_text):
    monkeypatch.setattr("sys.argv", ["qr", "report", "--group", group_text,
                                     "--set-formula", formula_text])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_help_exits_zero():
    res = run("--help")
    assert res.exit_code == 0
    assert "Commands:" in res.output
