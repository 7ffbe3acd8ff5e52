"""Independent answers the benchmark checks qrlab's outputs against.

None of these call into qrlab: each recomputes the quantity by another route
(closed forms, autocorrelation sums, dense SVD, representation theory).
Every check returns None when the output agrees, else a one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-8
PALEY_EPS3_TOL = 1e-6


def paley_eps1(q: int) -> Fraction:
    """4-cycle defect of the Paley Cayley graph on (F_q, +), q an odd prime."""
    if q % 4 == 1:
        return Fraction((q - 1) * (q * q + 6 * q + 1), 16 * q ** 4)
    return Fraction((q - 1) * (q + 1) ** 2, 16 * q ** 4)


def paley_eps3(q: int) -> float:
    """Largest nontrivial |character sum of the nonzero squares| / q.

    The Gauss-sum value is (-1 ± sqrt(q))/2 for q = 1 mod 4, of modulus at
    most (sqrt(q)+1)/2, and (-1 ± i sqrt(q))/2 for q = 3 mod 4, of modulus
    sqrt(q+1)/2.
    """
    if q % 4 == 1:
        return (math.sqrt(q) + 1) / (2 * q)
    return math.sqrt(q + 1) / (2 * q)


def check_paley_row(q: int, row: dict):
    if row["delta"] != Fraction(q - 1, 2 * q):
        return f"q={q}: delta {row['delta']}"
    if row["eps1"] != paley_eps1(q):
        return f"q={q}: eps1 {row['eps1']} != {paley_eps1(q)}"
    if row["h_index"] != 1 or row["max_coset_eps1"] != row["eps1"]:
        return f"q={q}: index-1 search gave index {row['h_index']}"
    for key in ("eps3", "fourier_eps"):
        if abs(row[key] - paley_eps3(q)) > PALEY_EPS3_TOL:
            return f"q={q}: {key} {row[key]!r} != {paley_eps3(q)!r}"
    return None


def check_artin_schreier(p: int, d: np.ndarray, outcome):
    """The winning subgroup is D itself (the image of y^p - y), of index p,
    and every coset pair is exactly regular."""
    if not np.array_equal(outcome.subgroup.members, d):
        return "winning subgroup differs from the connection set"
    if outcome.index != p:
        return f"winning index {outcome.index} != {p}"
    if outcome.max_coset_eps1 != 0:
        return f"max coset eps1 {outcome.max_coset_eps1} != 0"
    return None


def _c4_from_autocorrelation(table: np.ndarray, d: np.ndarray) -> int:
    """C4 of the Cayley graph (G, G, v w^-1 in D) as |G| sum_t r(t)^2, with
    r(t) = #{x in D : t x in D}; no Gram matrix involved."""
    d_ids = np.flatnonzero(d)
    r = d[table[:, d_ids]].sum(axis=1).astype(object)
    return len(d) * int((r * r).sum())


def cayley_eps1(table: np.ndarray, d: np.ndarray) -> Fraction:
    n = len(d)
    delta = Fraction(int(d.sum()), n)
    return max(Fraction(_c4_from_autocorrelation(table, d), n ** 4) - delta ** 4,
               Fraction(0))


def circulant_eps3(d: np.ndarray) -> float:
    """max over nontrivial k of |sum_{x in D} e^{2 pi i k x/n}| / n."""
    n = len(d)
    spec = np.abs(np.fft.fft(d.astype(float)))
    return float(spec[1:].max() / n) if n > 1 else 0.0


def cayley_eps3(table: np.ndarray, inv: np.ndarray, d: np.ndarray) -> float:
    """sigma_max of the row-centred Cayley adjacency / |G|, by dense SVD."""
    n = len(d)
    adj = d[table[np.arange(n)[None, :], inv[:, None]]].astype(float)
    adj -= adj.mean(axis=1, keepdims=True)
    return float(np.linalg.svd(adj, compute_uv=False)[0] / n)


def check_gowers(n: int, d: np.ndarray, report):
    ids = np.arange(n)
    table = (ids[:, None] + ids[None, :]) % n
    if not report.all_relations_hold():
        return f"Z/{n}: relation violated {report.relations}"
    want1 = cayley_eps1(table, d)
    if report.eps1 != want1:
        return f"Z/{n}: eps1 {report.eps1} != {want1}"
    want3 = circulant_eps3(d)
    if abs(report.eps3 - want3) > report.eps3_err + FLOAT_TOL:
        return f"Z/{n}: eps3 {report.eps3!r} != {want3!r}"
    return None


def check_spectral_vs_characters(label: str, spectral, characters):
    gap = abs(spectral.eps - characters.eps)
    if gap > FLOAT_TOL:
        return f"{label}: spectral/character gap {gap:.3e}"
    return None


def check_nonabelian_subset(label: str, g, d: np.ndarray, sq, eps1):
    want1 = cayley_eps1(g.table, d)
    if eps1 != want1:
        return f"{label}: eps1 {eps1} != {want1}"
    want3 = cayley_eps3(g.table, g.inv, d)
    if abs(sq.eps - want3) > sq.err + FLOAT_TOL:
        return f"{label}: eps {sq.eps!r} != {want3!r}"
    return None


def sl2_degrees(q: int) -> list:
    """Irreducible degrees of SL2(F_q), q an odd prime power: 1, q, (q+1)
    x (q-3)/2, (q-1) x (q-1)/2, and two each of (q+1)/2 and (q-1)/2."""
    degs = [1, q] + [q + 1] * ((q - 3) // 2) + [q - 1] * ((q - 1) // 2)
    degs += [(q + 1) // 2] * 2 + [(q - 1) // 2] * 2
    return sorted(degs)


def check_degrees(q: int, got: list):
    want = sl2_degrees(q)
    return None if got == want else f"SL2({q}) degrees {got} != {want}"
