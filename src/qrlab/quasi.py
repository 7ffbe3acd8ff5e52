"""Bipartite-graph quasirandomness metrics.

Provides the 4-cycle defect eps1 (exact rational), the exact weak-regularity
defect eps2 (cut-norm style, exact rational), the spectral parameter eps3
(float with certified residual), regularity checking with witnesses, and the
record of polynomial-equivalence inequalities between the three parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CosetMismatch, NoConvergence, ShapeMismatch, SideTooLarge
from .grp import GroupTable

EPS2_SIDE_CAP = 22
POWER_TOL = 1e-11
POWER_MAX_ITER = 10 ** 4
FLOAT_SLACK = 1e-8


@dataclass
class BipartiteGraph:
    """0/1 bipartite adjacency; adj[w, v] = 1 iff (v, w) is an edge."""

    v_size: int
    w_size: int
    adj: np.ndarray  # bool, shape (w_size, v_size)
    provenance: Optional[dict] = None

    def __post_init__(self):
        self.adj = np.ascontiguousarray(self.adj, dtype=bool)
        if self.adj.shape != (self.w_size, self.v_size):
            raise ShapeMismatch(f"adjacency shape {self.adj.shape} is not"
                                f" (w_size, v_size) = ({self.w_size}, {self.v_size})")

    @property
    def edges(self) -> int:
        return int(self.adj.sum())

    @property
    def delta(self) -> Fraction:
        return Fraction(self.edges, self.v_size * self.w_size)


def _is_coset(g: GroupTable, ids: np.ndarray) -> Optional[np.ndarray]:
    """If ids = x·H for a subgroup H, returns H's member ids, else None."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    x = int(ids[0])
    h = np.sort(g.table[g.inv[x], ids])
    mask = np.zeros(g.order, dtype=bool)
    mask[h] = True
    if not mask[g.identity] or not mask[g.table[np.ix_(h, h)]].all():
        return None
    return h


def cayley_bipartite(g: GroupTable, d: np.ndarray, v=None, w=None) -> BipartiteGraph:
    """The bipartite graph (V, W, v·w^{-1} in D) for cosets V, W of a common
    subgroup (defaults: V = W = all of G)."""
    d = np.asarray(d, dtype=bool)
    v_ids = np.arange(g.order) if v is None else np.sort(np.asarray(v, dtype=np.int64))
    w_ids = np.arange(g.order) if w is None else np.sort(np.asarray(w, dtype=np.int64))
    if len(v_ids) != len(w_ids):
        raise CosetMismatch("V and W have different sizes")
    if len(v_ids) != g.order:
        hv = _is_coset(g, v_ids)
        hw = _is_coset(g, w_ids)
        if hv is None or hw is None or not np.array_equal(hv, hw):
            raise CosetMismatch("V and W are not cosets of a common subgroup")
    prod = g.table[v_ids[None, :], g.inv[w_ids][:, None]]  # [w, v] = v·w^{-1}
    adj = d[prod]
    return BipartiteGraph(v_size=len(v_ids), w_size=len(w_ids), adj=adj,
                          provenance={"group": g, "d": d,
                                      "v_ids": v_ids, "w_ids": w_ids})


# -- eps1: 4-cycle defect -----------------------------------------------------

def eps1_quasirandomness(bg: BipartiteGraph) -> Fraction:
    """One-sided 4-cycle defect max(0, C4/(|V|^2|W|^2) - delta^4), exact.

    C4 = sum over v, v' of |N_v ∩ N_{v'}|^2 is the number of (v, v', w, w')
    quadruples spanning a (possibly degenerate) 4-cycle, computed from the
    Gram matrix of the columns.
    """
    m = bg.adj.astype(np.int64)
    gram = m.T @ m  # (V, V): |N_v ∩ N_v'|
    c4 = int((gram.astype(object) ** 2).sum()) if gram.max(initial=0) > 2 ** 31 \
        else int((gram * gram).sum())
    vw2 = (bg.v_size * bg.w_size) ** 2
    defect = Fraction(c4, vw2) - bg.delta ** 4
    return max(defect, Fraction(0))


# -- eps2: exact weak-regularity defect ---------------------------------------

def _eps2_scaled_max(m: np.ndarray, block: int = 1 << 15) -> int:
    """max over subsets A of columns of max(sum of positive row discrepancies,
    -sum of negative ones), where discrepancy of row w is
    V·W·e_w(A) - E·|A|; returned unscaled (divide by (VW)^2 for the defect)."""
    w_size, v_size = m.shape
    e_total = int(m.sum())
    vw = v_size * w_size
    best = 0
    cols = np.arange(v_size)
    for start in range(0, 1 << v_size, block):
        nums = np.arange(start, min(start + block, 1 << v_size), dtype=np.int64)
        masks = (nums[:, None] >> cols[None, :]) & 1  # (block, V)
        e = m @ masks.T  # (W, block): e_w(A)
        sizes = masks.sum(axis=1)  # (block,)
        d = vw * e - e_total * sizes[None, :]
        pos = np.where(d > 0, d, 0).sum(axis=0)
        neg = np.where(d < 0, -d, 0).sum(axis=0)
        best = max(best, int(pos.max()), int(neg.max()))
    return best


def eps2_exact(bg: BipartiteGraph) -> Fraction:
    """Exact weak-regularity defect max_{A,B} ||E∩(A×B)| - delta|A||B||/(|V||W|).

    A runs over the smaller side; for fixed A the optimal B is the set of rows
    with positive (or all with negative) discrepancy, whichever one-sided sum
    is larger.
    """
    if min(bg.v_size, bg.w_size) > EPS2_SIDE_CAP:
        raise SideTooLarge(f"smaller side exceeds {EPS2_SIDE_CAP}")
    m = bg.adj.astype(np.int64)
    if bg.v_size > bg.w_size:
        m = m.T  # enumerate over the smaller side; the defect is symmetric
    best = _eps2_scaled_max(m)
    return Fraction(best, (bg.v_size * bg.w_size) ** 2)


# -- eps3: spectral parameter -------------------------------------------------

def _top_eigen_sym(a: np.ndarray, seed: int = 0):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Returns (lam, residual) with residual = ||A x - lam x||_2 for the final
    unit vector x; by symmetry some eigenvalue lies within residual of lam.
    Convergence is accelerated by iterating with A^(2^k) (repeated squaring
    with norm rescaling) so near-degenerate top eigenvalues do not stall;
    the certificate is always evaluated against the original A.  Uses a
    deterministic ramp start plus one seeded random restart, keeping the
    larger Rayleigh quotient.
    """
    dim = a.shape[0]
    booster = None
    if dim <= 1500:
        b = a.copy()
        for _ in range(50):
            nb = float(np.linalg.norm(b))
            if nb == 0.0:
                return 0.0, 0.0
            b = b / nb
            b = b @ b
        booster = b
    best = (0.0, 0.0)
    starts = [np.arange(dim, dtype=np.float64) + 1.0,
              np.random.default_rng(seed).standard_normal(dim)]
    for x in starts:
        if booster is not None:
            x = booster @ x
        nrm = float(np.linalg.norm(x))
        if nrm < 1e-200:
            continue
        x = x / nrm
        lam, res = 0.0, np.inf
        for _ in range(POWER_MAX_ITER):
            y = a @ x
            lam = float(x @ y)
            res = float(np.linalg.norm(y - lam * x))
            if res <= POWER_TOL:
                break
            ny = float(np.linalg.norm(y))
            if ny <= POWER_TOL:  # vector (numerically) in the kernel
                lam, res = 0.0, 0.0
                break
            x = y / ny
        else:
            raise NoConvergence(f"power iteration exceeded {POWER_MAX_ITER} steps")
        if lam >= best[0]:
            best = (max(lam, 0.0), res)
    return best


def eps3_spectral(bg: BipartiteGraph, seed: int = 0):
    """sigma_max(M P)/sqrt(|V||W|) with P the mean-zero projection on C^V.

    Returns (value, certified error bound).  Power iteration runs on the
    normalized operator P M^T M P/(|V||W|), whose top eigenvalue is eps3^2.
    """
    v_size, w_size = bg.v_size, bg.w_size
    if v_size == 1:
        return 0.0, 0.0
    m = bg.adj.astype(np.float64)
    mc = m - m.mean(axis=1, keepdims=True)  # M P: rows centered
    a = (mc.T @ mc) / (v_size * w_size)
    lam, res = _top_eigen_sym(a, seed=seed)
    sigma = float(np.sqrt(max(lam, 0.0)))
    err = float(res / (2.0 * sigma)) if sigma > 1e-9 else float(np.sqrt(res))
    return sigma, err


# -- regularity ---------------------------------------------------------------

def is_eps_regular(bg: BipartiteGraph, eps: Fraction):
    """Checks Definition-style eps-regularity exactly; returns (ok, witness).

    Regular means: for all A ⊆ V with |A| ≥ eps|V| and B ⊆ W with
    |B| ≥ eps|W|, the rectangle discrepancy ||E∩(A×B)| - delta|A||B|| is at
    most eps|A||B|.  On failure the witness is a violating (A_ids, B_ids).
    """
    eps = Fraction(eps)
    if min(bg.v_size, bg.w_size) > EPS2_SIDE_CAP:
        raise SideTooLarge(f"smaller side exceeds {EPS2_SIDE_CAP}")
    m = bg.adj.astype(np.int64)
    transposed = bg.v_size > bg.w_size
    if transposed:
        m = m.T
    w_size, v_size = m.shape
    e_total = int(m.sum())
    vw = v_size * w_size
    min_a = -((-eps.numerator * v_size) // eps.denominator)  # ceil(eps*V)
    min_b = max(1, -((-eps.numerator * w_size) // eps.denominator))
    min_a = max(1, min_a)
    for num in range(1, 1 << v_size):
        a_ids = np.flatnonzero((num >> np.arange(v_size)) & 1)
        na = len(a_ids)
        if na < min_a:
            continue
        d = vw * m[:, a_ids].sum(axis=1) - e_total * na  # scaled discrepancy
        order = np.argsort(-d)
        ds = d[order]
        for sign in (1, -1):
            vals = ds if sign == 1 else -ds[::-1]
            rows = order if sign == 1 else order[::-1]
            run = 0
            for b in range(1, w_size + 1):
                run += int(vals[b - 1])
                if b < min_b:
                    continue
                # violation: |disc|/(VW) > eps * na * b
                if run * eps.denominator > eps.numerator * na * b * vw:
                    a_out, b_out = a_ids, np.sort(rows[:b])
                    if transposed:
                        a_out, b_out = b_out, a_out
                    return False, (a_out, b_out)
    return True, None


# -- combined report ----------------------------------------------------------

@dataclass
class QuasiReport:
    """All quasirandomness statistics of one graph plus relation checks."""

    v_size: int
    w_size: int
    edges: int
    delta: Fraction
    eps1: Fraction
    eps2: Optional[Fraction]
    eps3: float
    eps3_err: float
    relations: dict = field(default_factory=dict)
    findings: dict = field(default_factory=dict)

    def all_relations_hold(self) -> bool:
        return all(self.relations.values())

    def to_json_dict(self) -> dict:
        def frac(x):
            return {"num": x.numerator, "den": x.denominator}
        out = {
            "schema": 1,
            "v_size": self.v_size,
            "w_size": self.w_size,
            "edges": self.edges,
            "delta": frac(self.delta),
            "eps1": frac(self.eps1),
            "eps2": frac(self.eps2) if self.eps2 is not None else None,
            "eps3": {"value": self.eps3, "error": self.eps3_err},
            "relations": dict(self.relations),
            "findings": dict(self.findings),
        }
        return out


def verify_gowers_relations(bg: BipartiteGraph, seed: int = 0) -> QuasiReport:
    """Computes delta, eps1, eps2 (when a side is small enough), eps3 and
    records the polynomial-equivalence inequalities between them.

    eps2 <= eps1^{1/4} is checked exactly (as eps2^4 <= eps1); the float
    checks inflate by the certified eps3 error plus a fixed 1e-8 slack.

    Two converse-direction constants are conventions rather than universally
    valid bounds and are therefore recorded as findings instead of relations
    when they do not provably apply: eps1 <= 12 eps2 always, and
    eps1 <= delta eps3^2 on graphs that are not degree-biregular.  (For a
    biregular graph the all-ones vector is a top singular vector, making the
    spectral converse exact; an irregular counterexample is the graph whose
    rows are alternately full and empty, with eps3 = 0 but eps1 > 0.)
    """
    delta = bg.delta
    e1 = eps1_quasirandomness(bg)
    try:
        e2 = eps2_exact(bg)
    except SideTooLarge:
        e2 = None
    e3, e3_err = eps3_spectral(bg, seed=seed)
    rel = {}
    findings = {}
    if e2 is not None:
        rel["eps2_le_eps1_quarter"] = e2 ** 4 <= e1
        findings["eps1_le_12_eps2"] = e1 <= 12 * e2
    rel["eps3_le_eps1_quarter"] = (e3 - e3_err) <= float(e1) ** 0.25 + FLOAT_SLACK
    row_deg = bg.adj.sum(axis=1)
    col_deg = bg.adj.sum(axis=0)
    biregular = bool((row_deg == row_deg[0]).all() and (col_deg == col_deg[0]).all())
    conv = float(e1) <= float(delta) * (e3 + e3_err) ** 2 + FLOAT_SLACK
    if biregular:
        rel["eps1_le_delta_eps3_sq"] = conv
    else:
        findings["eps1_le_delta_eps3_sq_irregular"] = conv
    return QuasiReport(v_size=bg.v_size, w_size=bg.w_size, edges=bg.edges,
                       delta=delta, eps1=e1, eps2=e2, eps3=e3, eps3_err=e3_err,
                       relations=rel, findings=findings)
