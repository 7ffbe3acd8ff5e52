"""Subset quasirandomness: spectral route, character route, irrep degrees."""

from __future__ import annotations

import numpy as np
import pytest

from qrlab import fourier, grp, quasi
from qrlab.errors import NotAbelian, NotAGroup, OrderCap
from qrlab.ffield import make_field


def qr13_subset():
    g = grp.additive_group(make_field(13))
    d = np.zeros(13, dtype=bool)
    d[[1, 3, 4, 9, 10, 12]] = True
    return g, d


def test_singleton_in_z5():
    g = grp.cyclic_group(5)
    d = np.zeros(5, dtype=bool)
    d[0] = True
    s = fourier.subset_qr_spectral(g, d)
    c = fourier.subset_qr_characters(g, d)
    assert abs(s.eps - 0.2) < 1e-9
    assert abs(c.eps - 0.2) < 1e-12


def test_quadratic_residues_f13():
    g, d = qr13_subset()
    ref = (np.sqrt(13) + 1) / 26
    s = fourier.subset_qr_spectral(g, d)
    c = fourier.subset_qr_characters(g, d)
    assert abs(s.eps - ref) < 1e-9
    assert abs(c.eps - ref) < 1e-9
    assert abs(s.eps - c.eps) < 1e-8


def test_full_and_empty_sets():
    g = grp.cyclic_group(9)
    assert fourier.subset_qr_spectral(g, np.ones(9, dtype=bool)).eps < 1e-12
    assert fourier.subset_qr_characters(g, np.ones(9, dtype=bool)).eps < 1e-12
    assert fourier.subset_qr_characters(g, np.zeros(9, dtype=bool)).eps == 0.0


def test_abelian_characters_tables():
    g = grp.additive_group(make_field(3, 2))
    cd = fourier.abelian_characters(g)
    assert cd.characters.shape == (9, 9)
    gram = cd.characters @ cd.characters.conj().T
    assert np.abs(gram - 9 * np.eye(9)).max() < 1e-9
    assert np.abs(cd.characters[:, g.identity] - 1).max() < 1e-12
    assert cd.exponent == 3
    # Klein four-group: all character values are +-1
    g4 = grp.additive_group(make_field(2, 2))
    cd4 = fourier.abelian_characters(g4)
    assert np.abs(np.abs(cd4.characters.real) - 1).max() < 1e-12
    assert np.abs(cd4.characters.imag).max() < 1e-12


def test_characters_require_abelian():
    with pytest.raises(NotAbelian):
        fourier.abelian_characters(grp.sl2(make_field(3)))
    with pytest.raises(NotAbelian):
        fourier.subset_qr_characters(grp.sl2(make_field(3)),
                                     np.zeros(24, dtype=bool))


def test_spectral_character_bridge():
    rng = np.random.default_rng(10)
    for g in [grp.cyclic_group(12), grp.cyclic_group(31),
              grp.additive_group(make_field(2, 4)),
              grp.additive_group(make_field(7))]:
        for _ in range(8):
            d = rng.random(g.order) < rng.random()
            a = fourier.subset_qr_spectral(g, d).eps
            b = fourier.subset_qr_characters(g, d).eps
            assert abs(a - b) <= 1e-8


def test_abelian_characters_checks(monkeypatch):
    # character_phases always yields orthogonal phases that vanish at the
    # identity, so feed the checks bad phases directly
    g = grp.cyclic_group(2)
    monkeypatch.setattr(fourier, "character_phases",
                        lambda g: (2, np.zeros((2, 2), dtype=np.int64)))
    with pytest.raises(NotAGroup, match="orthogonal"):
        fourier.abelian_characters(g)
    monkeypatch.setattr(fourier, "character_phases",
                        lambda g: (2, np.array([[1, 1], [1, 0]])))
    with pytest.raises(NotAGroup, match="identity"):
        fourier.abelian_characters(g)


def test_translation_invariance():
    rng = np.random.default_rng(11)
    g = grp.sl2(make_field(3))
    for _ in range(5):
        d = rng.random(g.order) < 0.5
        base = fourier.subset_qr_spectral(g, d).eps
        t = int(rng.integers(g.order))
        left = np.zeros(g.order, dtype=bool)
        left[g.table[t, np.flatnonzero(d)]] = True
        right = np.zeros(g.order, dtype=bool)
        right[g.table[np.flatnonzero(d), t]] = True
        assert abs(fourier.subset_qr_spectral(g, left).eps - base) < 1e-8
        assert abs(fourier.subset_qr_spectral(g, right).eps - base) < 1e-8


def test_irrep_dimensions_s3():
    g = grp.sl2(make_field(2))  # isomorphic to the symmetric group on 3 letters
    assert g.order == 6
    assert fourier.irrep_dimensions(g) == [1, 1, 2]


def test_irrep_dimensions_sl2_3():
    g = grp.sl2(make_field(3))
    assert fourier.irrep_dimensions(g) == [1, 1, 1, 2, 2, 2, 3]


def test_irrep_dimensions_sl2_5():
    dims = fourier.irrep_dimensions(grp.sl2(make_field(5)))
    assert sum(d * d for d in dims) == 120
    assert min(d for d in dims if d > 1) == 2


def test_irrep_dimensions_abelian_all_ones():
    assert fourier.irrep_dimensions(grp.cyclic_group(12)) == [1] * 12
    assert fourier.irrep_dimensions(grp.additive_group(make_field(2, 3))) == [1] * 8


def test_irrep_dimensions_cap():
    with pytest.raises(OrderCap):
        fourier.irrep_dimensions(grp.cyclic_group(513))


def test_min_degree_bound_on_subsets():
    rng = np.random.default_rng(12)
    for q in (3, 5):
        g = grp.sl2(make_field(q))
        dims = fourier.irrep_dimensions(g)
        dmin = min(d for d in dims if d > 1)
        for _ in range(10):
            d = rng.random(g.order) < 0.5
            sq = fourier.subset_qr_spectral(g, d)
            assert sq.eps - sq.err <= dmin ** -0.5 + 1e-8


def test_verify_cor25_f13():
    g, d = qr13_subset()
    rec = fourier.verify_cor25(g, d)
    assert rec.all_hold()
    assert float(rec.eps1) <= ((np.sqrt(13) + 1) / 26) ** 2 + 1e-8


def test_verify_cor25_full_set_equality():
    g = grp.cyclic_group(8)
    rec = fourier.verify_cor25(g, np.ones(8, dtype=bool))
    assert rec.all_hold()
    assert rec.eps < 1e-10 and rec.eps1 == 0


def test_verify_cor25_random_subsets():
    rng = np.random.default_rng(13)
    g = grp.cyclic_group(16)
    for _ in range(15):
        d = rng.random(16) < rng.random()
        assert fourier.verify_cor25(g, d).all_hold()
