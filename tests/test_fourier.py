"""Subset quasirandomness: spectral route, character route, irrep degrees."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from qrlab import fourier, grp, quasi, reglab
from qrlab.errors import (DegeneracyNotResolved, InadmissibleQ, NotAbelian,
                          NotAGroup, OrderCap, RoundingNotCertified)
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
            a = fourier.subset_qr_spectral(g, d)
            b = fourier.subset_qr_characters(g, d)
            # the transform route against the character sums and the dense eigh
            eps3, err = quasi.eps3_spectral(quasi.cayley_bipartite(g, d))
            assert abs(a.eps - b.eps) <= a.err + b.err
            assert abs(a.eps - eps3) <= a.err + err


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


def test_irrep_cap_counts_conjugacy_classes():
    # SL2(9) has 720 elements but 13 classes: Fulton-Harris §5.2 gives the
    # degrees 1, q, q + 1, q - 1 and (q ± 1)/2 at q = 9
    dims = fourier.irrep_dimensions(grp.sl2(make_field(3, 2)))
    assert set(dims) == {1, 4, 5, 8, 9, 10} and len(dims) == 13
    assert sum(x * x for x in dims) == 720
    with pytest.raises(OrderCap, match="129 conjugacy classes"):
        fourier.irrep_dimensions(grp.cyclic_group(129))


def _abelian_groups():
    for n in range(1, 129):
        yield grp.cyclic_group(n)
    for q in range(2, 129):
        try:
            spec = make_field(*reglab.factor_prime_power(q))
        except InadmissibleQ:
            continue
        yield grp.additive_group(spec)
        yield grp.multiplicative_group(spec)


def test_character_table_matches_the_abelian_phases():
    count = 0
    for g in _abelian_groups():
        degrees, chi = fourier.character_table(g)
        L, phases = grp.character_phases(g)
        # every class of an abelian group is one id, so class c is id c
        exact = np.exp(2j * np.pi * phases / L)
        close = np.abs(chi[:, None, :] - exact[None, :, :]).max(axis=-1) <= 1e-9
        assert (close.sum(axis=0) == 1).all() and (close.sum(axis=1) == 1).all(), g
        assert close[0, 0] and (degrees == 1).all()
        count += 1
    assert count == 128 + 2 * 44  # 44 prime powers q <= 128


def sl2_degrees(q):
    """Fulton-Harris §5.2: the degrees of SL2(F_q), sorted."""
    if q % 2 == 0:  # SL2 = PSL2
        dims = [1, q] + [q + 1] * ((q - 2) // 2) + [q - 1] * (q // 2)
    else:
        dims = ([1, q] + [q + 1] * ((q - 3) // 2) + [q - 1] * ((q - 1) // 2)
                + [(q + 1) // 2] * 2 + [(q - 1) // 2] * 2)
    return sorted(dims)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_character_table_sl2(q):
    g = grp.sl2(make_field(*reglab.factor_prime_power(q)))
    degrees, chi = fourier.character_table(g)
    sizes = np.array([len(c) for c in grp.conjugacy_classes(g)])
    assert sorted(degrees.tolist()) == sl2_degrees(q)
    assert fourier.irrep_dimensions(g) == sl2_degrees(q)
    assert np.abs(chi[0] - 1).max() <= 1e-9
    # row and column orthogonality
    k = len(sizes)
    assert np.abs((chi * sizes) @ chi.conj().T - g.order * np.eye(k)).max() <= 1e-9 * g.order
    assert np.abs(chi.conj().T @ chi - np.diag(g.order / sizes)).max() <= 1e-9 * g.order


def _draws(monkeypatch, zeros):
    """Makes fourier's generator give `zeros` all-zero draws, then normal ones."""
    left = [zeros]

    class Draws:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def standard_normal(self, k):
            if left[0]:
                left[0] -= 1
                return np.zeros(k)
            return self.rng.standard_normal(k)

    monkeypatch.setattr(np.random, "default_rng", Draws)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_character_table_retries_a_degenerate_draw(monkeypatch):
    # a zero draw makes B = 0, so every eigenvalue is equal; it is skipped
    # before anything is divided by its eigenvectors
    _draws(monkeypatch, 1)
    assert fourier.irrep_dimensions(grp.sl2(make_field(3))) == [1, 1, 1, 2, 2, 2, 3]
    _draws(monkeypatch, 20)
    with pytest.raises(DegeneracyNotResolved):
        fourier.character_table(grp.sl2(make_field(3)))


def test_character_table_caps_an_abelian_group_before_its_classes(monkeypatch):
    def no_classes(g):
        raise AssertionError("conjugacy_classes ran")
    monkeypatch.setattr(fourier, "conjugacy_classes", no_classes)
    with pytest.raises(OrderCap, match="^4096 conjugacy classes exceed 128$"):
        fourier.irrep_dimensions(grp.cyclic_group(4096))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_character_table_rows_do_not_follow_the_draw(monkeypatch, q):
    # each draw gives B other eigenvectors in another order; the rows of
    # equal degree are put in one order read from the group
    g = grp.sl2(make_field(*reglab.factor_prime_power(q)))
    default_rng = np.random.default_rng
    tables = []
    for seed in range(4):
        monkeypatch.setattr(np.random, "default_rng", lambda _, s=seed: default_rng(s))
        tables.append(fourier.character_table.__wrapped__(g))  # past the per-group cache
    for degrees, chi in tables[1:]:
        assert np.array_equal(degrees, tables[0][0])
        assert np.abs(chi - tables[0][1]).max() <= 1e-9


def test_irrep_dimensions_ignores_the_seed_and_reuses_the_table(monkeypatch):
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda b: calls.append(1) or eig(b))
    g = grp.sl2(make_field(5))
    assert {tuple(fourier.irrep_dimensions(g, seed=s)) for s in range(5)} == \
        {tuple(sl2_degrees(5))}
    assert len(calls) == 1


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


# -- one kernel choice: quasi.block_stats -----------------------------------------

def count_kernel_calls(monkeypatch):
    """Counts the calls of block_stats and of the dense kernels, reached
    through quasi or through the names fourier imports."""
    calls = {name: 0 for name in ("block_stats", "cayley_bipartite",
                                  "eps1_quasirandomness", "eps3_spectral")}
    for name in calls:
        def counted(*args, _fn=getattr(quasi, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (quasi, fourier):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_digit_layout_groups_take_no_dense_kernel(monkeypatch):
    rng = np.random.default_rng(19)
    groups = [grp.cyclic_group(12), grp.additive_group(make_field(2, 4)),
              grp.additive_group(make_field(13))]
    calls = count_kernel_calls(monkeypatch)
    for g in groups:
        d = rng.random(g.order) < 0.5
        fourier.subset_qr_spectral(g, d)
        fourier.verify_cor25(g, d)
    assert calls == {"block_stats": 6, "cayley_bipartite": 0,
                     "eps1_quasirandomness": 0, "eps3_spectral": 0}


def test_dense_groups_build_one_graph_per_call():
    rng = np.random.default_rng(20)
    for g in (grp.sl2(make_field(3)), grp.multiplicative_group(make_field(13))):
        d = rng.random(g.order) < 0.5
        bg = quasi.cayley_bipartite(g, d)
        eps3, eps1 = quasi.eps3_spectral(bg), quasi.eps1_quasirandomness(bg)
        with pytest.MonkeyPatch.context() as m:
            calls = count_kernel_calls(m)
            sq = fourier.subset_qr_spectral(g, d)
        # the subset parameter reads eps3 alone: no Gram for eps1
        assert calls == {"block_stats": 1, "cayley_bipartite": 1,
                         "eps1_quasirandomness": 0, "eps3_spectral": 1}
        assert (sq.eps, sq.err) == eps3
        with pytest.MonkeyPatch.context() as m:
            calls = count_kernel_calls(m)
            rec = fourier.verify_cor25(g, d)
        assert calls == {"block_stats": 1, "cayley_bipartite": 1,
                         "eps1_quasirandomness": 1, "eps3_spectral": 1}
        assert (rec.eps, rec.eps_err, rec.eps1) == (*eps3, eps1)


def test_verify_cor25_paley_2003():
    # above the dense routes' reach: (F_q, +) takes the transform
    q = 2003
    g = grp.additive_group(make_field(q))
    d = np.zeros(q, dtype=bool)
    d[np.arange(1, q) ** 2 % q] = True
    rec = fourier.verify_cor25(g, d)
    assert rec.all_hold()
    # q = 3 mod 4: the Gauss sums (-1 ± i sqrt(q))/2 have modulus sqrt(q+1)/2
    assert rec.eps1 == Fraction((q - 1) * (q + 1) ** 2, 16 * q ** 4)
    assert abs(rec.eps - math.sqrt(q + 1) / (2 * q)) <= rec.eps_err
    assert rec.eps_err < 1e-9


def test_fourier_refuses_an_uncertified_rounding(monkeypatch):
    # the rounding certificate guards eps1 alone: the subset parameter
    # reads eps3, which keeps its own certified error
    g, d = qr13_subset()
    e3, e3_err = quasi.eps3_spectral(quasi.cayley_bipartite(g, d))
    monkeypatch.setattr(quasi, "FFT_ROUNDING", 1e-3)
    with pytest.raises(RoundingNotCertified):
        fourier.verify_cor25(g, d)
    sq = fourier.subset_qr_spectral(g, d)
    assert sq.err > 1e-3  # the error bound grows with the rounding unit
    assert abs(sq.eps - e3) <= sq.err + e3_err


def test_subset_parameter_takes_no_inverse_transform(monkeypatch):
    g = grp.additive_group(make_field(2, 5))
    d = np.random.default_rng(32).random(g.order) < 0.5
    inverses, dft = [], quasi._dft

    def recorded(x, radix, inverse=False):
        inverses.append(inverse)
        return dft(x, radix, inverse)
    monkeypatch.setattr(quasi, "_dft", recorded)
    fourier.subset_qr_spectral(g, d)
    assert inverses and not any(inverses)
    # eps1, which verify_cor25 reads, is what takes the inverse transform
    fourier.verify_cor25(g, d)
    assert inverses.count(True) == 1
