"""Bipartite-graph quasirandomness metrics.

Provides the 4-cycle defect eps1 (exact rational), the exact weak-regularity
defect eps2 (cut-norm style, exact rational), the spectral parameter eps3
(float with certified residual), all three for batches of coset blocks,
each computed on first read (by FFT on groups with a digit layout),
regularity checking with witnesses, and the record of
polynomial-equivalence inequalities between the three parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import QrlabError, RoundingNotCertified, ShapeMismatch, SideTooLarge
from .grp import GroupTable, Subgroup

EPS2_SIDE_CAP = 22
FLOAT_SLACK = 1e-8
FFT_BATCH_CELLS = 1 << 18  # group cells per batch of the FFT block route
FFT_ROUNDING = 2.0 ** -52  # rounding unit of one butterfly, twice float64's


@dataclass
class BipartiteGraph:
    """0/1 bipartite adjacency; adj[w, v] = 1 iff (v, w) is an edge."""

    v_size: int
    w_size: int
    adj: np.ndarray  # bool, shape (w_size, v_size)

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


def cayley_bipartite(g: GroupTable, d: np.ndarray, h: Optional[Subgroup] = None,
                     t: Optional[int] = None) -> BipartiteGraph:
    """The bipartite graph (H, tH, v·w^{-1} in D) for a subgroup H of g and
    a group id t (defaults: H = G, t = e).

    Column a is H's a-th member in id order and row b is t times it, so the
    graph is the Cayley graph on H of Dt ∩ H.
    """
    if h is not None and h.parent is not g:
        raise QrlabError("h is not a subgroup of g")
    d = np.asarray(d, dtype=bool)
    elems = np.arange(g.order) if h is None else h.element_ids()
    w_ids = elems if t is None else g.table[t, elems]
    adj = d[g.table[elems[None, :], g.inv[w_ids][:, None]]]  # [w, v] = v·w^{-1}
    return BipartiteGraph(v_size=len(elems), w_size=len(elems), adj=adj)


# -- eps1: 4-cycle defect -----------------------------------------------------

def eps1_quasirandomness(bg: BipartiteGraph) -> Fraction:
    """One-sided 4-cycle defect max(0, C4/(|V|^2|W|^2) - delta^4), exact.

    C4 = sum over v, v' of |N_v ∩ N_{v'}|^2 is the number of (v, v', w, w')
    quadruples spanning a (possibly degenerate) 4-cycle, computed from the
    Gram matrix of the columns.
    """
    m = bg.adj.astype(np.float64)  # exact: every product and sum is below 2^53
    # exact whatever order BLAS sums in: partial sums are integers <= |W| < 2**53
    gram = (m.T @ m).astype(np.int64)  # (V, V): |N_v ∩ N_v'|
    c4 = int((gram * gram).sum())
    vw2 = (bg.v_size * bg.w_size) ** 2
    defect = Fraction(c4, vw2) - bg.delta ** 4
    return max(defect, Fraction(0))


# -- eps2: exact weak-regularity defect ---------------------------------------

def _eps2_scaled_max(m: np.ndarray) -> int:
    """max over subsets A of columns of max(sum of positive row discrepancies,
    -sum of negative ones), where discrepancy of row w is
    V·W·e_w(A) - E·|A|; returned unscaled (divide by (VW)^2 for the defect)."""
    block = 1 << 15  # subsets per batch
    w_size, v_size = m.shape
    e_total = int(m.sum())
    vw = v_size * w_size
    best = 0
    cols = np.arange(v_size)
    for start in range(0, 1 << v_size, block):
        nums = np.arange(start, min(start + block, 1 << v_size), dtype=np.int64)
        masks = ((nums[:, None] >> cols[None, :]) & 1).astype(np.float64)  # (block, V)
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
    m = bg.adj.astype(np.float64)  # exact: every product and sum is below 2^53
    if bg.v_size > bg.w_size:
        m = m.T  # enumerate over the smaller side; the defect is symmetric
    best = _eps2_scaled_max(m)
    return Fraction(best, (bg.v_size * bg.w_size) ** 2)


# -- eps3: spectral parameter -------------------------------------------------

def eps3_spectral(bg: BipartiteGraph):
    """sigma_max(M P)/sqrt(|V||W|) with P the mean-zero projection on C^V.

    Returns (value, certified error bound).  A symmetric eigensolver runs on
    the normalized operator A = P M^T M P/(|V||W|), whose top eigenvalue is
    eps3^2; its top eigenpair (lam, x) is certified by the residual
    ||A x - lam x||, measured against A itself.
    """
    v_size, w_size = bg.v_size, bg.w_size
    if v_size == 1:
        return 0.0, 0.0
    mc = bg.adj.astype(np.float64)
    mc -= mc.mean(axis=1, keepdims=True)  # M P: rows centered
    a = (mc.T @ mc) / (v_size * w_size)
    lams, vecs = np.linalg.eigh(a)
    lam, x = float(lams[-1]), vecs[:, -1]
    res = float(np.linalg.norm(a @ x - lam * x))
    sigma = float(np.sqrt(max(lam, 0.0)))
    # A is PSD, so some eigenvalue l' >= 0 has |l' - lam| <= res, hence
    # |sqrt(l') - sigma| = |l' - lam|/(sqrt(l') + sigma) <= res/sigma
    err = res / sigma if sigma > 1e-9 else float(np.sqrt(res))
    return sigma, err


# -- coset blocks: eps1, eps2 and eps3 on first read --------------------------

class BlockStats:
    """eps1, eps3 with its certified error, and eps2 of one coset block,
    each computed when first read.

    Each slot holds a value or a zero-argument function, and the function's
    result replaces it on first read: a subgroup search reads eps1 of every
    block and eps3 of the winner's blocks and (G, e) alone, the subset
    parameter reads eps3 alone, and eps2 is read by ``qr report`` and the
    weak-regularity audit.  eps2 is None above EPS2_SIDE_CAP (see
    block_stats).
    """

    def __init__(self, eps1, eps3, eps2):
        self._slots = {"eps1": eps1, "eps3": eps3, "eps2": eps2}

    def _read(self, name):
        value = self._slots[name]
        if callable(value):
            value = self._slots[name] = value()
        return value

    @property
    def eps1(self) -> Fraction:
        return self._read("eps1")

    @property
    def eps2(self) -> Optional[Fraction]:
        return self._read("eps2")

    @property
    def eps3(self) -> float:
        return self._read("eps3")[0]

    @property
    def eps3_err(self) -> float:
        return self._read("eps3")[1]

    def __eq__(self, other) -> bool:
        return all(self._read(name) == other._read(name) for name in self._slots)


def block_stats(g: GroupTable, d: np.ndarray, blocks: list) -> list:
    """BlockStats of the graph cayley_bipartite(g, d, h, t) for each (h, t)
    in blocks (h = None for G, t = None for e).

    On a group with a digit layout (GroupTable.radix) eps1 and eps3 come
    from batched transforms over G, with no graph built (see
    _fft_block_stats); elsewhere each block is built, and its functions,
    the graph's only holders, run eps1_quasirandomness and eps3_spectral on
    it.  A block of side |H| <= EPS2_SIDE_CAP gets an eps2 function that
    builds its graph and runs eps2_exact; above the cap its eps2 is None.
    This is the one place that picks the kernels for a Cayley graph's
    statistics.
    """
    d = np.asarray(d, dtype=bool)
    if g.radix:
        step = max(1, FFT_BATCH_CELLS // g.order)
        pairs = [pair for i in range(0, len(blocks), step)
                 for pair in _fft_block_stats(g, d, blocks[i:i + step])]
    else:
        pairs = [(lambda bg=bg: eps1_quasirandomness(bg), lambda bg=bg: eps3_spectral(bg))
                 for bg in (cayley_bipartite(g, d, h, t) for h, t in blocks)]
    return [BlockStats(e1, e3, None if (g.order if h is None else h.size) > EPS2_SIDE_CAP
                       else lambda h=h, t=t: eps2_exact(cayley_bipartite(g, d, h, t)))
            for (e1, e3), (h, t) in zip(pairs, blocks)]


def _dft(x: np.ndarray, radix: tuple, inverse: bool = False) -> np.ndarray:
    """The DFT (or its inverse) over Z/r_0 × ... × Z/r_{k-1} of each row of
    x, whose columns are ids laid out as digits, the last digit fastest.

    One 1-D transform per digit, on contiguous lines: after its turn each
    digit moves to the front, so the next one to transform is always last.
    (np.fft.fftn on the strided axes of a (rows, *radix) view copies line by
    line and is many times slower on many short axes.)
    """
    fft = np.fft.ifft if inverse else np.fft.fft
    rows = len(x)
    for r in reversed(radix):
        x = fft(x.reshape(-1, r), axis=-1).reshape(rows, -1, r).transpose(0, 2, 1)
    return x.reshape(rows, -1)


def _fft_block_stats(g: GroupTable, d: np.ndarray, blocks: list) -> list:
    """(eps1 function, (eps3, error)) of each block, for block_stats of an
    abelian group with digit layout g.radix.

    Block (h, t) is the Cayley graph on H of S = Dt ∩ H.  With r(s) =
    #{x in S : x - s in S} its autocorrelation, the C4 that
    eps1_quasirandomness counts is |H| Σ_s r(s)², summed exactly over the
    rounded r.  The block's singular values are the |Ŝ(χ)| over the
    characters of H, each the restriction of [G:H] characters of G, the
    trivial one from those in H^⊥, where the transform of 1_H is |H| (and 0
    elsewhere); so eps3 is the largest |Ŝ(χ)|/|H| over χ outside H^⊥.
    eps3 comes from the forward transform; the first eps1 read of any block
    runs, for the whole batch, the inverse transform, the rounding
    certificate and the Fractions.

    Rounding is bounded a priori, in the manner of Percival (Math. Comp.
    2003): a transform of a real x is off by at most rel·||x||_1 at each
    point, rel = FFT_ROUNDING Σ_axes 2r⌈log2 4r⌉.  Per axis of length r the
    weight exceeds the componentwise error growth of both of pocketfft's
    algorithms: factorised passes (Σ (f + c) over the factors f of r) and
    Bluestein's chirp convolution for a large prime r (a chirp spectrum of
    modulus up to 2r, over the ⌈log2 4r⌉ passes of a transform of length
    below 4r).  That bound on each |Ŝ(χ)|, over |H|, is eps3's error.  For
    0/1 x, Σ|Ŝ|² = N|S| carries it through the squaring and the inverse
    transform to the bound on r.  A bound of 1/2 or more, or an r breaking
    r(0) = |S|, Σ r = |S|² or |H| Σ r² >= |S|⁴ (Cauchy-Schwarz on H),
    raises RoundingNotCertified on that first eps1 read.
    """
    n, radix = g.order, g.radix
    subs = list({id(h): h for h, _ in blocks}.values())
    if any(h is not None and h.parent is not g for h in subs):
        raise QrlabError("h is not a subgroup of g")
    pos = {id(h): i for i, h in enumerate(subs)}
    which = np.array([pos[id(h)] for h, _ in blocks])
    hmask = np.array([np.ones(n, dtype=bool) if h is None else h.members for h in subs])
    ts = np.array([g.identity if t is None else t for _, t in blocks], dtype=np.intp)
    s = d[g.table[:, g.inv[ts]]].T & hmask[which]  # (block, x): x in Dt ∩ H
    amp = np.abs(_dft(s, radix))
    sub_size = hmask.sum(axis=1)
    perp = np.zeros(hmask.shape, dtype=bool)
    perp[:, 0] = True  # 1_G transforms to |G| at the trivial character alone
    proper = sub_size < n
    if proper.any():
        perp[proper] = np.abs(_dft(hmask[proper], radix)) > sub_size[proper, None] / 2
    perp = perp[which]

    size, hsize = s.sum(axis=1), sub_size[which]
    rel = FFT_ROUNDING * sum(2 * k * math.ceil(math.log2(4 * k)) for k in radix)
    fwd = rel * size  # |Ŝ' - Ŝ| at every χ
    eps3 = np.where(perp, 0.0, amp).max(axis=1) / hsize
    eps3_err = (fwd + FFT_ROUNDING * size) / hsize  # and the modulus' rounding
    eps1 = []  # the batch's, from the first read on

    def eps1_of(k: int) -> Fraction:
        if not eps1:
            r = _dft(amp * amp, radix, inverse=True).real
            sq = (2 * size + fwd) * fwd + 3 * FFT_ROUNDING * (size + fwd) ** 2  # |Ŝ|²
            bound = sq + rel * (size + sq)  # r, after the inverse transform
            if max(rel, float(bound.max())) >= 0.5:
                raise RoundingNotCertified(f"FFT rounding bound {max(rel, float(bound.max())):.3g}"
                                           f" on radix {radix} does not fix integers")
            r = np.rint(r).astype(np.int64)
            if (r[:, 0] != size).any() or (r.sum(axis=1) != size * size).any():
                raise RoundingNotCertified("FFT autocorrelation breaks r(0) = |S| or Σ r = |S|²")
            hs = hsize.tolist()
            # C4/|H|^4 - (|S|/|H|)^4 over the common denominator |H|^4, which
            # Cauchy-Schwarz keeps >= 0 for any r supported on H with Σ r = |S|²
            nums = [h * r2 - sz ** 4 for h, r2, sz in
                    zip(hs, (r * r).sum(axis=1).tolist(), size.tolist())]
            if min(nums) < 0:
                raise RoundingNotCertified("FFT autocorrelation breaks |H| Σ r² >= |S|⁴")
            eps1.extend(Fraction(num, h ** 4) for num, h in zip(nums, hs))
        return eps1[k]
    return [(lambda k=k: eps1_of(k), (float(eps3[k]), float(eps3_err[k])))
            for k in range(len(blocks))]


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

def frac(x: Fraction) -> dict:
    """The JSON form of an exact rational."""
    return {"num": x.numerator, "den": x.denominator}


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
        return {
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


def verify_gowers_relations(bg: BipartiteGraph, seed: int = 0) -> QuasiReport:
    """Computes eps1, eps3, eps2 (when a side is small enough), the edge
    count and biregularity of bg, then gowers_report.  Every statistic is
    deterministic: ``seed`` is accepted but not read."""
    small = min(bg.v_size, bg.w_size) <= EPS2_SIDE_CAP
    st = BlockStats(eps1_quasirandomness(bg), eps3_spectral(bg),
                    eps2_exact(bg) if small else None)
    row_deg, col_deg = bg.adj.sum(axis=1), bg.adj.sum(axis=0)
    biregular = bool((row_deg == row_deg[0]).all() and (col_deg == col_deg[0]).all())
    return gowers_report(st, bg.v_size, bg.w_size, bg.edges, biregular)


def gowers_report(st: BlockStats, v_size: int, w_size: int, edges: int,
                  biregular: bool) -> QuasiReport:
    """Records the polynomial-equivalence inequalities between the
    statistics st of a graph with the given sides and edge count: eps1,
    eps3 with its certified error, and eps2 unless it is None.

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
    delta = Fraction(edges, v_size * w_size)
    e1, e2, e3, e3_err = st.eps1, st.eps2, st.eps3, st.eps3_err
    rel, findings = {}, {}
    if e2 is not None:
        rel["eps2_le_eps1_quarter"] = e2 ** 4 <= e1
        findings["eps1_le_12_eps2"] = e1 <= 12 * e2
    rel["eps3_le_eps1_quarter"] = (e3 - e3_err) <= float(e1) ** 0.25 + FLOAT_SLACK
    conv = float(e1) <= float(delta) * (e3 + e3_err) ** 2 + FLOAT_SLACK
    if biregular:
        rel["eps1_le_delta_eps3_sq"] = conv
    else:
        findings["eps1_le_delta_eps3_sq_irregular"] = conv
    return QuasiReport(v_size=v_size, w_size=w_size, edges=edges,
                       delta=delta, eps1=e1, eps2=e2, eps3=e3, eps3_err=e3_err,
                       relations=rel, findings=findings)
