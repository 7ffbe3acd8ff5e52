"""Subset quasirandomness on finite groups via Fourier operator norms.

A subset D of a finite group H is eps-quasirandom when every nontrivial
irreducible Fourier coefficient of its indicator, normalized by |H|, has
operator norm at most eps.  That maximum is the eps3 of the Cayley graph
(H, H, x y^{-1} in D), so subset_qr_spectral and verify_cor25 read it, and
the graph's eps1, from quasi.block_stats, which picks the kernel: a batched
FFT on groups with a digit layout, the dense eigh and Gram elsewhere.
Abelian groups additionally get the explicit character-sum route, and
irreducible degrees are extracted from the class algebra for the
degree-based quasirandomness bounds.
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

IRREP_CAP = 128  # irreducibles, i.e. conjugacy classes k: the class algebra costs k⁴
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
def _class_constants(g: GroupTable):
    """Class multiplication data: returns (classes, class_of, action matrices).

    mats[i][k, j] = a_{ijk} where K_i K_j = sum_k a_{ijk} K_k in the center
    of the group algebra; a_{ijk} = #{(x,y) in C_i x C_j : xy in C_k}/|C_k|.
    """
    classes = conjugacy_classes(g)
    k = len(classes)
    class_of = np.empty(g.order, dtype=np.int64)
    for i, cls in enumerate(classes):
        class_of[cls] = i
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    mats = []
    for i in range(k):
        m = np.zeros((k, k), dtype=np.float64)
        for j in range(k):
            prods = g.table[np.ix_(classes[i], classes[j])]
            m[:, j] = np.bincount(class_of[prods.ravel()], minlength=k) / sizes
        mats.append(readonly(m))
    return classes, readonly(class_of), tuple(mats)


def irrep_dimensions(g: GroupTable, seed: int = 0) -> list:
    """Multiset (sorted list) of irreducible character degrees.

    Degrees come from simultaneous diagonalization of the class-sum action
    matrices: a random real combination is eigendecomposed, each common
    eigenvector gives the central character values omega_i, and the degree is
    sqrt(|H| / sum_i |omega_i|^2/|C_i|) by column orthogonality.  Validated
    by integrality and sum of squares = |H|; degenerate random combinations
    are retried with fresh coefficients.
    """
    if len(conjugacy_classes(g)) > IRREP_CAP:
        raise OrderCap(f"{len(conjugacy_classes(g))} conjugacy classes exceed {IRREP_CAP}")
    classes, _, mats = _class_constants(g)
    k = len(classes)
    sizes = np.array([len(c) for c in classes], dtype=np.float64)
    ident_class = next(i for i, c in enumerate(classes) if g.identity in c)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        coeffs = rng.standard_normal(k)
        b = sum(c * m for c, m in zip(coeffs, mats))
        _, vecs = np.linalg.eig(b)
        degrees = []
        good = True
        for col in range(k):
            v = vecs[:, col]
            m = int(np.argmax(np.abs(v)))
            omega = np.array([(mat @ v)[m] / v[m] for mat in mats])
            # validate the common-eigenvector property
            resid = max(float(np.linalg.norm(mat @ v - w * v))
                        for mat, w in zip(mats, omega))
            if resid > 1e-6 * max(1.0, float(np.abs(omega).max())):
                good = False
                break
            # normalize so the identity class has omega = 1
            if abs(omega[ident_class]) < 1e-9:
                good = False
                break
            omega = omega / omega[ident_class]
            denom = float((np.abs(omega) ** 2 / sizes).sum())
            d = np.sqrt(g.order / denom)
            di = int(round(d))
            if di < 1 or abs(d - di) > 1e-6:
                good = False
                break
            degrees.append(di)
        if good and sum(x * x for x in degrees) == g.order:
            return sorted(degrees)
    raise DegeneracyNotResolved("class-sum eigendecomposition stayed degenerate")


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
