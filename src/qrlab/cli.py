"""Command-line interface.

Commands: eval (formula over one field), report (the reglab.analyse
statistics of one group and connection set, plus eps2 and the relation
checks), sweep (reglab.analyse across a family's field sizes, CSV/JSON out),
verify (relation suites).  Exit codes: 0 all good, 2 on any relation
violation, 1 on usage errors.
"""

from __future__ import annotations

import csv
import json
import sys

import click
import numpy as np

from . import defform, fourier, quasi, reglab
from .errors import QrlabError
from .ffield import parse_field_literal
from .grp import parse_group_literal


def _parse_modulus(text):
    if not text:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad --modulus {text!r}; expected comma-separated ints")


def _parse_params(pairs):
    out = {}
    for p in pairs:
        name, _, val = p.partition("=")
        try:
            out[name.strip()] = int(val)
        except ValueError:
            raise click.UsageError(f"bad --param {p!r}; expected name=int")
    return out


@click.group()
def cli():
    """Quasirandomness statistics for definable subsets of finite groups."""


@cli.command("eval")
@click.option("--field", "field_text", required=True,
              help="Field literal, e.g. 13 or 3^2.")
@click.option("--modulus", default=None,
              help="Comma-separated modulus coefficients (constant first).")
@click.option("--formula", "formula_text", required=True)
@click.option("--param", "params", multiple=True,
              help="Parameter assignment name=int, repeatable.")
@click.option("--json", "as_json", is_flag=True, help="Emit the RLE JSON form.")
def eval_cmd(field_text, modulus, formula_text, params, as_json):
    """Evaluates a formula over one finite field and prints the solution set."""
    param_map = _parse_params(params)
    spec = parse_field_literal(field_text, modulus=_parse_modulus(modulus))
    f = defform.parse(formula_text, param_vars=tuple(param_map))
    ds = defform.evaluate(f, spec, params=param_map)
    if as_json:
        out = ds.to_rle()
        out["size"] = ds.size
        out["complexity"] = f.complexity
        out["formula"] = f.serialize()
        click.echo(json.dumps(out))
        return
    click.echo(f"field: {spec} (modulus {spec.modulus}, hash {spec.order_hash})")
    click.echo(f"formula: {f.serialize()} (complexity {f.complexity}, "
               f"arity {ds.arity})")
    click.echo(f"size: {ds.size} of {spec.q ** ds.arity}")
    if ds.membership.size <= 4096:
        click.echo("members: " + ",".join(map(str, np.flatnonzero(ds.membership))))


@cli.command("report")
@click.option("--group", "group_text", required=True,
              help="Group literal: add:Q, mul:Q, or sl2:Q.")
@click.option("--set-formula", "formula_text", required=True,
              help="Formula selecting the connection set, in the group's "
                   "coordinates: x for add and mul, a, b, c, d for sl2.")
@click.option("--subgroup-max-index", default=1, show_default=True)
@click.option("--out", "out_path", default=None, help="Write JSON to a file.")
def report_cmd(group_text, formula_text, subgroup_max_index, out_path):
    """Full quasirandomness report for one group and definable connection set."""
    g = parse_group_literal(group_text)
    spec = g.field
    f = defform.parse(formula_text)
    d = reglab.connection_set(g, f)
    rec = reglab.analyse(g, d, subgroup_max_index)
    # the full graph (G, e): every Cayley graph is biregular, with |G|·|D| edges
    rep = quasi.gowers_report(rec["outcome"].full, g.order, g.order,
                              g.order * int(d.sum()), True)
    doc = rep.to_json_dict()
    doc.update({
        "group": group_text,
        "set_formula": f.serialize(),
        "set_complexity": f.complexity,
        "modulus": list(spec.modulus),
        "order_hash": spec.order_hash,
        "h_index": rec["h_index"],
        "h_members": [int(x) for x in rec["outcome"].subgroup.element_ids()],
        "max_coset_eps1": quasi.frac(rec["max_coset_eps1"]),
        "fourier_eps": {"value": rec["fourier_eps"], "method": "spectral"},
    })
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)
    if not rep.all_relations_hold():
        sys.exit(2)


@cli.command("sweep")
@click.option("--family", "family_name", required=True,
              type=click.Choice(sorted(reglab.builtin_families())))
@click.option("--qs", required=True, help="Comma-separated field sizes.")
@click.option("--max-index", default=1, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "csv_path", default=None, help="CSV output path.")
@click.option("--json-out", "json_path", default=None, help="JSON output path.")
def sweep_cmd(family_name, qs, max_index, seed, csv_path, json_path):
    """Sweeps a built-in family over field sizes and fits decay exponents."""
    try:
        q_list = [int(x) for x in qs.split(",") if x.strip()]
    except ValueError:
        raise click.UsageError(f"bad --qs {qs!r}; expected comma-separated ints")
    if not q_list:
        raise click.UsageError(f"no field sizes in --qs {qs!r}")
    fam = reglab.builtin_families()[family_name]
    result = reglab.sweep(fam, q_list, max_index=max_index, seed=seed)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(result.to_csv_rows())
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2)
            fh.write("\n")
    for r in result.rows:
        click.echo(f"q={r['q']}: delta={r['delta']} eps1={r['eps1']} "
                   f"eps3={r['eps3']:.6g} fourier_eps={r['fourier_eps']:.6g} "
                   f"h_index={r['h_index']} max_coset_eps1={r['max_coset_eps1']}")
    if result.slope_eps1 is not None:
        click.echo(f"slope(log eps1 vs log q) = {result.slope_eps1:.4f}")
    if result.slope_fourier is not None:
        click.echo(f"slope(log fourier_eps vs log q) = {result.slope_fourier:.4f}")
    if result.zero_rows:
        click.echo(f"exact-zero rows (excluded from fit): q in {result.zero_rows}")


@cli.command("verify")
@click.option("--suite", required=True,
              type=click.Choice(sorted(reglab.VERIFY_SUITES)))
@click.option("--seed", default=0, show_default=True)
def verify_cmd(suite, seed):
    """Runs a relation-verification suite; exits 2 on any violation."""
    result = reglab.run_verify_suite(suite, seed=seed)
    for line in result.lines:
        click.echo(line)
    for finding in result.findings:
        click.echo(f"finding: {finding}")
    click.echo(f"suite {result.name}: {'PASS' if result.passed else 'FAIL'}")
    if not result.passed:
        sys.exit(2)


def main():
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Exit as e:  # --help and friends
        sys.exit(e.exit_code)
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as e:
        e.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except QrlabError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
