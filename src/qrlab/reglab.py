"""Experiment harness: definable families over growing finite fields,
subgroup search for the coset-regularity decomposition, field-size sweeps
with decay-exponent fits, and counting-based dimension/measure estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import defform, fourier, quasi
from .errors import InadmissibleQ, NotSubset, UnboundVariable
from .ffield import FieldSpec, is_prime, make_field
from .grp import (GroupTable, Subgroup, additive_group, cosets, cyclic_group,
                  multiplicative_group, normal_subgroups_up_to_index, sl2)
from .grp import subgroup_group  # unused here; perfbench/spans.py patches it on reglab

RATIO_MAX_DEN = 64


def factor_prime_power(q: int):
    """Returns (p, n) with q = p^n, or raises InadmissibleQ."""
    if q < 2:
        raise InadmissibleQ(f"{q} is not a prime power")
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise InadmissibleQ(f"{q} is not a prime power")
            return p, n
    return q, 1


# -- families -----------------------------------------------------------------

@dataclass
class Family:
    """A uniformly definable (group, connection set) construction.

    formula_text may depend on the characteristic, so it is produced by a
    callable of the field; the connection set is connection_set(g, formula).
    """

    name: str
    group_builder: Callable[[FieldSpec], GroupTable]
    formula_of: Callable[[FieldSpec], defform.Formula]
    admissible: Callable[[int, int, int], bool]  # (q, p, n) -> bool

    def check_admissible(self, q: int):
        p, n = factor_prime_power(q)
        if not self.admissible(q, p, n):
            raise InadmissibleQ(f"q={q} is not admissible for family {self.name}")
        return p, n

    def instantiate(self, q: int):
        """Builds (group, connection mask, formula) at field size q."""
        spec = make_field(*self.check_admissible(q))
        g = self.group_builder(spec)
        f = self.formula_of(spec)
        return g, connection_set(g, f), f


def connection_set(g: GroupTable, f: defform.Formula) -> np.ndarray:
    """Mask of the ids whose point lies in the set f defines over g.field,
    read through the coordinates of g that f's free variables name, the
    first most significant."""
    if g.field is None:
        raise UnboundVariable(f"{g} has no field to evaluate {f} over")
    missing = [v for v in f.free_vars if v not in g.coords]
    if missing:
        raise UnboundVariable(f"{missing} are not coordinates of {g}: {sorted(g.coords)}")
    cell = np.zeros(g.order, dtype=np.int64)
    for v in f.free_vars:
        cell = cell * g.field.q + g.coords[v]
    return defform.evaluate(f, g.field).membership[cell]


def _artin_schreier_formula(spec: FieldSpec) -> defform.Formula:
    ypow = " * ".join(["y"] * spec.p)
    return defform.parse(f"exists y. x = {ypow} - y")


def builtin_families() -> dict:
    """The four built-in sweep families, keyed by name."""
    square = lambda spec: defform.parse("exists y. x = y*y & !(x = 0)")
    trace_square = lambda spec: defform.parse("exists y. a + d = y*y & !(a + d = 0)")
    cube = lambda spec: defform.parse("exists y. x = y*y*y & !(x = 0)")
    fams = [
        Family(name="paley",
               group_builder=additive_group,
               formula_of=square,
               admissible=lambda q, p, n: p != 2),
        Family(name="artin_schreier",
               group_builder=additive_group,
               formula_of=_artin_schreier_formula,
               admissible=lambda q, p, n: n >= 2),
        Family(name="sl2_trace_square",
               group_builder=sl2,
               formula_of=trace_square,
               admissible=lambda q, p, n: p != 2),
        Family(name="mult_cubes",
               group_builder=multiplicative_group,
               formula_of=cube,
               admissible=lambda q, p, n: q % 3 == 1),
    ]
    return {f.name: f for f in fams}


# -- subgroup search ----------------------------------------------------------

@dataclass
class SubgroupSearchOutcome:
    """The winning subgroup H, the statistics of its coset blocks, and those
    of the full graph.

    per_coset[k] is the quasi.BlockStats of the block (H, x_k H) for x_k =
    _coset_translates(H)[k], a member of coset k.  Right multiplication by
    x_i^{-1} maps the block between cosets x_i H and x_j H onto (H, x_j
    x_i^{-1} H), so that block has eps1 per_coset[coset_of[x_j·x_i^{-1}]].
    full is the BlockStats of (G, e), the one block of the index-1
    candidate, which every search has.
    """

    subgroup: Subgroup
    max_coset_eps1: Fraction
    index: int
    per_coset: tuple
    full: quasi.BlockStats


def _coset_translates(h: Subgroup) -> np.ndarray:
    """One member of each coset of h, in coset order: the smallest id,
    except e for H itself, so that G's one block is the full graph."""
    dec = cosets(h)
    ts = dec.reps.copy()
    ts[dec.coset_of[h.parent.identity]] = h.parent.identity
    return ts


def subgroup_search(g: GroupTable, d: np.ndarray, max_index: int) -> SubgroupSearchOutcome:
    """Normal subgroup of index <= max_index minimizing the worst coset-pair
    4-cycle defect; ties break toward smaller index, then lexicographically
    smaller member set.  The blocks of every candidate go through one
    quasi.block_stats call."""
    d = np.asarray(d, dtype=bool)
    subs = normal_subgroups_up_to_index(g, max_index)
    stats = quasi.block_stats(g, d, [(h, int(t)) for h in subs
                                     for t in _coset_translates(h)])
    best, start = None, 0
    for h in subs:
        per_coset = tuple(stats[start:start + h.index])
        start += h.index
        worst = max(st.eps1 for st in per_coset)
        # candidates arrive sorted by (index, members), so strict improvement
        # only; the first is G
        if best is None or worst < best.max_coset_eps1:
            best = SubgroupSearchOutcome(subgroup=h, max_coset_eps1=worst,
                                         index=h.index, per_coset=per_coset,
                                         full=stats[0])
    return best


# -- sweeps -------------------------------------------------------------------

def _ols_slope(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm, ym = xs.mean(), ys.mean()
    denom = ((xs - xm) ** 2).sum()
    if denom == 0:
        return 0.0, ym
    slope = float(((xs - xm) * (ys - ym)).sum() / denom)
    return slope, float(ym - slope * xm)


def _translate_fourier_eps(per_coset: tuple) -> float:
    """max over translate classes of the subset parameter of Dt ∩ H inside
    H, from the BlockStats of H's coset blocks.

    The coset block (H, tH) is the Cayley graph on H of Dt ∩ H, so its eps3
    is that subset parameter.  One representative t per coset suffices: for
    h in H, Dth ∩ H = (Dt ∩ H)·h is a right translate inside H, and right
    translation multiplies every Fourier coefficient by the unitary rho(h),
    leaving its operator norm unchanged.  No normality is needed.
    """
    return max(st.eps3 for st in per_coset)


@dataclass
class SweepResult:
    family: str
    rows: list
    slope_eps1: Optional[float]
    const_eps1: Optional[float]
    slope_fourier: Optional[float]
    const_fourier: Optional[float]
    zero_rows: list
    seed: int

    def to_json_dict(self) -> dict:
        rows = []
        for r in self.rows:
            rows.append({
                "q": r["q"],
                "delta": quasi.frac(r["delta"]),
                "eps1": quasi.frac(r["eps1"]),
                "eps3": r["eps3"],
                "fourier_eps": r["fourier_eps"],
                "h_index": r["h_index"],
                "max_coset_eps1": quasi.frac(r["max_coset_eps1"]),
                "modulus": list(r["modulus"]),
                "order_hash": r["order_hash"],
            })
        return {"schema": 1, "family": self.family, "seed": self.seed,
                "rows": rows, "slope_eps1": self.slope_eps1,
                "const_eps1": self.const_eps1,
                "slope_fourier": self.slope_fourier,
                "const_fourier": self.const_fourier,
                "zero_rows": self.zero_rows}

    def to_csv_rows(self):
        header = ["q", "delta_num", "delta_den", "eps1_num", "eps1_den",
                  "eps3", "fourier_eps", "h_index", "max_coset_eps1_num",
                  "max_coset_eps1_den"]
        out = [header]
        for r in self.rows:
            out.append([r["q"], r["delta"].numerator, r["delta"].denominator,
                        r["eps1"].numerator, r["eps1"].denominator,
                        repr(r["eps3"]), repr(r["fourier_eps"]), r["h_index"],
                        r["max_coset_eps1"].numerator,
                        r["max_coset_eps1"].denominator])
        return out


def analyse(g: GroupTable, d: np.ndarray, max_index: int) -> dict:
    """The statistics of (G, D), all from one subgroup search ("outcome",
    "h_index", "max_coset_eps1"): the full graph's "delta", "eps1", "eps3"
    and "eps3_err", read from the index-1 candidate, and the translate
    Fourier eps ("fourier_eps") of the winner's blocks."""
    d = np.asarray(d, dtype=bool)
    outcome = subgroup_search(g, d, max_index)
    full = outcome.full
    # H = G: the one translate class is D itself, whose subset parameter is
    # the full graph's eps3
    fe = full.eps3 if outcome.index == 1 else _translate_fourier_eps(outcome.per_coset)
    return {"delta": Fraction(int(d.sum()), g.order), "eps1": full.eps1,
            "eps3": full.eps3, "eps3_err": full.eps3_err, "fourier_eps": fe,
            "h_index": outcome.index, "max_coset_eps1": outcome.max_coset_eps1,
            "outcome": outcome}


def sweep(family: Family, qs, max_index: int = 1, seed: int = 0) -> SweepResult:
    """Runs the family at each q, searching for the best subgroup and fitting
    log-log decay of the worst coset eps1 and the translate Fourier eps.
    Each row is the analyse record less "outcome", plus "q", "modulus" and
    "order_hash".  Every row is deterministic; ``seed`` is only recorded."""
    rows = []
    for q in sorted(qs):
        g, d, f = family.instantiate(q)
        spec = g.field
        rec = analyse(g, d, max_index)
        del rec["outcome"]  # it holds g; a row keeps only scalars
        rows.append({"q": q, **rec,
                     "modulus": spec.modulus if spec else (),
                     "order_hash": spec.order_hash if spec else ""})
    nz = [r for r in rows if r["max_coset_eps1"] > 0]
    zero_rows = [r["q"] for r in rows if r["max_coset_eps1"] == 0]
    slope1 = const1 = slopef = constf = None
    if len(nz) >= 4:
        slope1, const1 = _ols_slope([math.log(r["q"]) for r in nz],
                                    [math.log(float(r["max_coset_eps1"])) for r in nz])
    nzf = [r for r in rows if r["fourier_eps"] > 0]
    if len(nzf) >= 4:
        slopef, constf = _ols_slope([math.log(r["q"]) for r in nzf],
                                    [math.log(r["fourier_eps"]) for r in nzf])
    return SweepResult(family=family.name, rows=rows, slope_eps1=slope1,
                       const_eps1=const1, slope_fourier=slopef,
                       const_fourier=constf, zero_rows=zero_rows, seed=seed)


# -- counting: dimension and measure ------------------------------------------

@dataclass
class DimMeasure:
    d: Optional[int]
    r: Optional[Fraction]
    residual: float
    empty: bool = False
    counts: dict = field(default_factory=dict)


def _simplest_rational_in(lo: float, hi: float, max_den: int) -> Optional[Fraction]:
    """Smallest-denominator fraction inside [lo, hi], ties toward smaller
    numerator; None if the interval contains no fraction of denominator
    <= max_den."""
    if lo > hi:
        return None
    for den in range(1, max_den + 1):
        num = math.ceil(lo * den - 1e-12)
        if num <= hi * den + 1e-12:
            return Fraction(num, den)
    return None


def estimate_dim_measure(f: defform.Formula, qs, params=None,
                         max_den: int = RATIO_MAX_DEN) -> DimMeasure:
    """Fits |set over F_q| ~ r q^d across the sweep.

    d is the rounded log-log slope of the nonzero counts; r is the simplest
    rational lying in every interval count/q^d ± q^{-1/2} (widened twofold
    until nonempty, falling back to the float mean); the residual is the
    empirical constant max_q |count - r q^d| / q^{d-1/2}.
    """
    counts = {}
    for q in sorted(qs):
        p, n = factor_prime_power(q)
        spec = make_field(p, n)
        counts[q] = defform.count(f, spec, params=params)
    if all(c == 0 for c in counts.values()):
        return DimMeasure(d=None, r=None, residual=0.0, empty=True,
                          counts=counts)
    nz = {q: c for q, c in counts.items() if c > 0}
    slope, _ = _ols_slope([math.log(q) for q in nz],
                          [math.log(c) for c in nz.values()])
    d = max(0, round(slope))
    lo = max(c / q ** d - q ** -0.5 for q, c in counts.items())
    hi = min(c / q ** d + q ** -0.5 for q, c in counts.items())
    r = _simplest_rational_in(lo, hi, max_den)
    widen = 2.0
    while r is None and widen <= 16:
        lo = max(c / q ** d - widen * q ** -0.5 for q, c in counts.items())
        hi = min(c / q ** d + widen * q ** -0.5 for q, c in counts.items())
        r = _simplest_rational_in(lo, hi, max_den)
        widen *= 2
    if r is None:
        mean = sum(c / q ** d for q, c in counts.items()) / len(counts)
        r = Fraction(mean).limit_denominator(10 ** 6)
    residual = max(abs(c - float(r) * q ** d) / q ** (d - 0.5)
                   for q, c in counts.items())
    return DimMeasure(d=d, r=r, residual=residual, counts=counts)


@dataclass
class RatioStability:
    q_star: Fraction
    c_empirical: float
    per_q: dict


def check_ratio_stability(a: defform.Formula, b: defform.Formula, qs,
                          params=None, max_den: int = RATIO_MAX_DEN) -> RatioStability:
    """Fits |A_q| ~ q* |B_q| for nested definable sets A ⊆ B.

    q* is the simplest rational within q^{-1/2} of every observed ratio;
    the empirical constant is max_q ||A| - q*|B|| / (q^{-1/2} |B|).
    """
    sizes = {}
    for q in sorted(qs):
        p, n = factor_prime_power(q)
        spec = make_field(p, n)
        am = defform.evaluate(a, spec, params=params).membership
        bm = defform.evaluate(b, spec, params=params).membership
        if am.shape != bm.shape or (am & ~bm).any():
            raise NotSubset(f"A is not contained in B at q={q}")
        sizes[q] = (int(np.count_nonzero(am)), int(np.count_nonzero(bm)))
    if all(na == 0 for na, _ in sizes.values()):
        return RatioStability(q_star=Fraction(0), c_empirical=0.0, per_q=sizes)
    ratios = {q: na / nb for q, (na, nb) in sizes.items() if nb > 0}
    lo = max(r - q ** -0.5 for q, r in ratios.items())
    hi = min(r + q ** -0.5 for q, r in ratios.items())
    q_star = _simplest_rational_in(lo, hi, max_den)
    if q_star is None:
        mean = sum(ratios.values()) / len(ratios)
        q_star = Fraction(mean).limit_denominator(max_den)
    c = max(abs(na - float(q_star) * nb) / (q ** -0.5 * nb)
            for q, (na, nb) in sizes.items() if nb > 0)
    return RatioStability(q_star=q_star, c_empirical=c, per_q=sizes)


# -- weak-regularity audit ----------------------------------------------------

def weak_regularity_audit(family: Family, q: int, max_index: int = 1) -> dict:
    """Per coset block, the measured weak-regularity defect against the
    q^{-1/4} and q^{-1/2} reference values.

    "per_coset"[k] is the block (H, x_k H) of the winning subgroup, under
    the law of SubgroupSearchOutcome.  Uses the block's exact cut-norm
    defect eps2 where it has one (the coset is small enough) and the
    search's eps1^{1/4} upper bound otherwise.
    """
    g, d, f = family.instantiate(q)
    outcome = subgroup_search(g, d, max_index)
    per_coset = [{"defect": float(st.eps1) ** 0.25, "exact": False} if st.eps2 is None
                 else {"defect": float(st.eps2), "exact": True} for st in outcome.per_coset]
    return {"q": q, "family": family.name, "h_index": outcome.index,
            "per_coset": per_coset, "q_quarter": q ** -0.25, "q_half": q ** -0.5,
            "max_defect": max(p["defect"] for p in per_coset)}


# -- verification suites --------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list
    findings: list


def _random_circulant(rng) -> quasi.BipartiteGraph:
    """Seeded random Cayley graph of Z/n, n <= 10: biregular, the domain
    where all four parameter relations (including the spectral converse)
    apply."""
    n = int(rng.integers(2, 11))
    d = rng.random(n) < rng.random()
    return quasi.cayley_bipartite(cyclic_group(n), d)


def _suite_gowers(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    lines, findings = [], []
    bad = 0
    finding_hits = 0
    for i in range(200):
        bg = _random_circulant(rng)
        rep = quasi.verify_gowers_relations(bg)
        if not rep.all_relations_hold():
            bad += 1
            lines.append(f"graph {i}: relation violation {rep.relations}")
        if not all(rep.findings.values()):
            finding_hits += 1
    if finding_hits:
        findings.append(f"converse-constant findings on {finding_hits} graphs")
    lines.append(f"gowers: {200 - bad}/200 graphs satisfied all relations")
    return SuiteResult("gowers", bad == 0, lines, findings)


def _suite_lemma24(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    lines = []
    worst = 0.0
    groups = [("Z/%d" % n, cyclic_group(n)) for n in range(2, 33)]
    for q in range(2, 65):
        try:
            p, n = factor_prime_power(q)
        except InadmissibleQ:
            continue
        groups.append((f"F_{q}+", additive_group(make_field(p, n))))
    bad = 0
    for name, g in groups:
        for _ in range(20):
            d = rng.random(g.order) < rng.random()
            a = fourier.subset_qr_spectral(g, d).eps
            b = fourier.subset_qr_characters(g, d).eps
            gap = abs(a - b)
            worst = max(worst, gap)
            if gap > 1e-8:
                bad += 1
                lines.append(f"{name}: spectral/character gap {gap:.3e}")
    lines.append(f"lemma24: worst spectral/character gap {worst:.3e} "
                 f"over {len(groups)} groups x 20 subsets")
    return SuiteResult("lemma24", bad == 0, lines, [])


def _suite_cor25(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    lines = []
    bad = 0
    for name, g in [("Z/16", cyclic_group(16)),
                    ("F_9+", additive_group(make_field(3, 2)))]:
        for i in range(50):
            d = rng.random(g.order) < rng.random()
            rec = fourier.verify_cor25(g, d)
            if not rec.all_hold():
                bad += 1
                lines.append(f"{name} subset {i}: eps={rec.eps:.6f} "
                             f"eps1={float(rec.eps1):.6f}")
    lines.append(f"cor25: {100 - bad}/100 subsets satisfied both inequalities")
    return SuiteResult("cor25", bad == 0, lines, [])


def _suite_sl2(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    lines = []
    ok = True
    dims3 = fourier.irrep_dimensions(sl2(make_field(3)), seed=seed)
    if dims3 != [1, 1, 1, 2, 2, 2, 3]:
        ok = False
        lines.append(f"SL2(3) degrees {dims3} != [1,1,1,2,2,2,3]")
    for q in (3, 5, 7):
        dims = fourier.irrep_dimensions(sl2(make_field(q)), seed=seed)
        dmin = min(x for x in dims if x > 1)
        lines.append(f"SL2({q}) degrees {dims}; min nontrivial {dmin}")
        if 2 * dmin < q - 1:
            ok = False
            lines.append(f"SL2({q}): min nontrivial degree {dmin} < (q-1)/2")
    for q in (3, 5):
        g = sl2(make_field(q))
        dims = fourier.irrep_dimensions(g, seed=seed)
        dmin = min(x for x in dims if x > 1)
        bad = 0
        for _ in range(100):
            d = rng.random(g.order) < 0.5
            st = quasi.block_stats(g, d, [(None, None)])[0]
            # eps3 of the Cayley graph is the subset parameter of D
            lower = st.eps3 - st.eps3_err
            if lower > 2 * q ** -0.5 + 1e-8:
                bad += 1
            if lower > dmin ** -0.5 + 1e-8:
                bad += 1
            if float(st.eps1) > 4 / q + 1e-8:
                bad += 1
        lines.append(f"SL2({q}): 100 random subsets, {bad} bound violations")
        ok = ok and bad == 0
    return SuiteResult("sl2", ok, lines, [])


VERIFY_SUITES = {
    "gowers": _suite_gowers,
    "lemma24": _suite_lemma24,
    "cor25": _suite_cor25,
    "sl2": _suite_sl2,
}


def run_verify_suite(name: str, seed: int = 0) -> SuiteResult:
    """Runs one of the named relation-verification suites."""
    if name not in VERIFY_SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(VERIFY_SUITES)}")
    return VERIFY_SUITES[name](seed)
