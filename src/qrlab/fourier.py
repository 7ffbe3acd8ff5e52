"""Subset quasirandomness on finite groups via Fourier operator norms.

A subset D of a finite group H is eps-quasirandom when every nontrivial
irreducible Fourier coefficient of its indicator, normalized by |H|, has
operator norm at most eps.  That maximum is the eps3 of the Cayley graph
(H, H, x y^{-1} in D), so subset_qr_spectral and verify_cor25 read it, and
the graph's eps1, from quasi.block_stats, which picks the kernel: a batched
FFT on groups with a digit layout, the dense eigh and Gram elsewhere.
Abelian groups additionally get the explicit character-sum route, and
every group gets its character table from the class algebra, whose
degrees feed the degree-based quasirandomness bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegeneracyNotResolved, NotAGroup, OrderCap
from .grp import (GroupTable, character_phases, conjugacy_classes, per_group,
                  readonly)
from .quasi import FLOAT_SLACK, block_stats
# unused here; perfbench/spans.py patches them on fourier
from .quasi import cayley_bipartite, eps1_quasirandomness, eps3_spectral

IRREP_CAP = 128  # conjugacy classes k: the |H|·k class gather and the k³ eig
CHAR_TOL = 1e-9


@dataclass
class SubsetQR:
    """Quasirandomness parameter of a subset of a group, with its certified
    error."""

    eps: float
    err: float


@dataclass
class CharacterData:
    """Full character table of an abelian group.

    characters[i, x] is the value of character i at element x, and row 0 is
    the trivial character, as in grp.character_phases; exponent and
    integer phases are kept so downstream code can stay exact when it wants.
    """

    group: GroupTable
    characters: np.ndarray  # complex, (order, order)
    exponent: int
    phases: np.ndarray  # int, (order, order); value = exp(2 pi i phase/exponent)


def subset_qr_spectral(g: GroupTable, d: np.ndarray, seed: int = 0) -> SubsetQR:
    """eps = sigma_max(M P)/|H| for the Cayley graph of D, certified.

    Equals the maximal nontrivial Fourier operator norm of the normalized
    indicator of D, for any finite group.  eps3 is deterministic, so
    ``seed`` is accepted but not read.
    """
    # eps3 = sigma/sqrt(|H|^2) = sigma/|H|, exactly the subset parameter
    st = block_stats(g, d, [(None, None)])[0]
    return SubsetQR(eps=st.eps3, err=st.eps3_err)


@per_group
def abelian_characters(g: GroupTable) -> CharacterData:
    """All |H| characters of an abelian group, verified orthogonal."""
    exponent, phases = character_phases(g)  # raises NotAbelian
    chars = np.exp(2j * np.pi * phases / exponent)
    gram = chars @ chars.conj().T
    if np.abs(gram - g.order * np.eye(g.order)).max() > CHAR_TOL * g.order:
        raise NotAGroup("abelian characters are not orthogonal")
    if np.abs(chars[:, g.identity] - 1.0).max() > CHAR_TOL:
        raise NotAGroup("an abelian character is not 1 at the identity")
    return CharacterData(group=g, characters=readonly(chars),
                         exponent=exponent, phases=phases)


def subset_qr_characters(g: GroupTable, d: np.ndarray) -> SubsetQR:
    """eps = max over nontrivial characters of |sum_{x in D} chi(x)|/|H|.

    For abelian groups every irreducible is one-dimensional, so the operator
    norm is a plain modulus; replacing D by D^{-1} conjugates each sum and
    leaves the maximum over the full dual unchanged.
    """
    cd = abelian_characters(g)
    d = np.asarray(d, dtype=bool)
    sums = cd.characters[:, d].sum(axis=1) if d.any() \
        else np.zeros(g.order, dtype=complex)
    sums[0] = 0.0  # the trivial character
    eps = float(np.abs(sums).max() / g.order)
    err = float(len(np.flatnonzero(d)) * 8e-16)
    return SubsetQR(eps=eps, err=err)


@per_group
def character_table(g: GroupTable):
    """Irreducible characters on the conjugacy classes: (degrees, chi), both
    read-only, chi[r, c] the value of irreducible r on class c of
    conjugacy_classes(g).  Rows run by degree, row 0 the trivial character.

    The central characters omega_r are the common left eigenvectors of the
    class-sum matrices, a_ijk = #{x in C_i : x^-1 z in C_j} for any z in C_k,
    so they are the eigenvectors of B, the transpose of one random combination
    of those matrices, when B's eigenvalues are distinct.  Scaled to 1 at
    the identity, d_r = sqrt(|H| / sum_c |omega_r(c)|^2/|C_c|) and
    chi_r(c) = d_r omega_r(c)/|C_c|.  A draw is kept when every degree is an
    integer and the rows are orthonormal under the class sizes; degenerate
    draws are retried with fresh coefficients.
    """
    classes = conjugacy_classes(g)
    k = len(classes)
    if k > IRREP_CAP:
        raise OrderCap(f"{k} conjugacy classes exceed {IRREP_CAP}")
    class_of = np.empty(g.order, dtype=np.int64)
    for i, cls in enumerate(classes):
        class_of[cls] = i
    sizes = np.array([len(c) for c in classes], dtype=np.float64)
    # cell (j, c) of B collects x with x^-1 z_c in class j, z_c = min(C_c)
    cells = (class_of[g.table[g.inv[:, None], [c[0] for c in classes]]] * k
             + np.arange(k)).ravel()
    ident = class_of[g.identity]
    rng = np.random.default_rng(0)
    for _ in range(20):
        coeffs = rng.standard_normal(k)
        b = np.bincount(cells, weights=np.repeat(coeffs[class_of], k),
                        minlength=k * k).reshape(k, k)
        vals, vecs = np.linalg.eig(b)
        gaps = np.abs(vals[:, None] - vals)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() <= 1e-6 * max(1.0, float(np.abs(vals).max())):
            continue
        omega = vecs / vecs[ident]
        d = np.sqrt(g.order / (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0))
        degrees = np.rint(d)
        chi = (degrees * omega).T / sizes
        gram = (chi * sizes) @ chi.conj().T
        if (np.abs(d - degrees).max() <= 1e-6
                and np.abs(gram - g.order * np.eye(k)).max() <= 1e-6 * g.order):
            rows = np.lexsort((-(chi @ sizes).real, degrees))
            return (readonly(degrees[rows].astype(np.int64)),
                    readonly(np.asarray(chi[rows], dtype=complex)))
    raise DegeneracyNotResolved("class-sum eigendecomposition stayed degenerate")


def irrep_dimensions(g: GroupTable, seed: int = 0) -> list:
    """Sorted irreducible degrees, read off character_table, whose draws are
    fixed, so ``seed`` is accepted but not read."""
    return sorted(character_table(g)[0].tolist())


@dataclass
class Cor25Record:
    """Subset eps vs graph eps1 of the same connection set, with checks."""

    eps: float
    eps_err: float
    eps1: Fraction
    subset_le_graph_quarter: bool
    graph_le_subset_sq: bool

    def all_hold(self) -> bool:
        return self.subset_le_graph_quarter and self.graph_le_subset_sq


def verify_cor25(g: GroupTable, d: np.ndarray) -> Cor25Record:
    """Checks eps <= eps1^{1/4} and eps1 <= eps^2 for D in H.

    eps is the subset quasirandomness parameter and eps1 the 4-cycle defect
    of the Cayley graph (H, H, x y^{-1} in D); float comparisons inflate by
    the certified error plus a fixed 1e-8 slack.
    """
    st = block_stats(g, d, [(None, None)])[0]
    eps, err, e1 = st.eps3, st.eps3_err, st.eps1
    ok1 = (eps - err) <= float(e1) ** 0.25 + FLOAT_SLACK
    ok2 = float(e1) <= (eps + err) ** 2 + FLOAT_SLACK
    return Cor25Record(eps=eps, eps_err=err, eps1=e1,
                       subset_le_graph_quarter=ok1, graph_le_subset_sq=ok2)
