"""The four benchmark workloads.

A workload builds what it reuses across items in ``setup`` and hands out
passes: ``make_pass(k)`` returns the calls of pass k, generated from the
seed and k, so the same seed gives the same inputs.  A call is one call into
qrlab's public API, the same functions ``qr sweep``/``qr report``/``qr
verify`` use; ``units`` says how many workload items it covers.  Calls are
timed one by one (the latency samples); ``check`` compares a call's output
with an independent oracle after the pass, outside the timed region.

Every pass draws fresh inputs where the workload has any freedom, so a cache
that outlives one call cannot be fed the same input by a later pass.
``max_passes`` caps passes for the workloads whose inputs are fixed.

``scaled`` says whether the run scales the workload's pass and call times
by the speed probe.  It does for workloads of short calls, where probes
taken between calls follow the drift of the machine (small_batch, counting:
spread 0.18-0.26 raw, 0.02-0.06 scaled in the steadier sets).  On workloads
whose calls last seconds the probes only bracket each call, and scaling did
not narrow the run-to-run spread (subgroup_index 0.16 either way over ten
seeds; wider when scaled in two five-seed sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles
from qrlab import defform, ffield, fourier, grp, quasi, reglab
from qrlab.errors import InadmissibleQ


@dataclass
class Call:
    kind: str
    args: tuple
    units: int = 1


class PaleyLarge:
    """One ``reglab.sweep`` call per field size, max_index 1.  The five primes
    mix q = 1 and q = 3 mod 4 and stay below 1500, where the spectral kernel
    uses repeated squaring, and above grp.EXHAUSTIVE_LAW_CAP = 512, so group
    construction checks associativity on random triples and the dense quasi
    kernels keep the work.  They are close in size so that the median call is
    not one particular field.  The seed orders them and seeds each sweep."""

    name = "paley_large"
    unit = "field sizes swept"
    max_passes = 1
    scaled = False
    QS = (521, 523, 541, 547, 557)

    def setup(self, seed):
        self.seed = seed
        self.family = reglab.builtin_families()["paley"]

    def make_pass(self, k):
        rng = np.random.default_rng([self.seed, k])
        return [Call("sweep", (int(q), int(rng.integers(2 ** 31))))
                for q in rng.permutation(self.QS)]

    def run(self, call):
        q, seed = call.args
        return reglab.sweep(self.family, [q], max_index=1, seed=seed)

    def check(self, call, result):
        return oracles.check_paley_row(call.args[0], result.rows[0])


class SubgroupIndex:
    """``Family.instantiate`` then ``reglab.subgroup_search`` for the
    Artin-Schreier family over GF(2^7) (max index 2) and GF(3^4) (max index
    3).  The family fixes the inputs; the seed only orders the searches."""

    name = "subgroup_index"
    unit = "searches"
    max_passes = 1
    scaled = False
    SEARCHES = ((2, 7, 2), (3, 4, 3))  # (p, n, max_index)

    def setup(self, seed):
        self.seed = seed
        self.family = reglab.builtin_families()["artin_schreier"]

    def make_pass(self, k):
        rng = np.random.default_rng([self.seed, k])
        return [Call("search", self.SEARCHES[i])
                for i in rng.permutation(len(self.SEARCHES))]

    def run(self, call):
        p, n, max_index = call.args
        g, d, _ = self.family.instantiate(p ** n)
        return d, reglab.subgroup_search(g, d, max_index)

    def check(self, call, result):
        d, outcome = result
        return oracles.check_artin_schreier(call.args[0], d, outcome)


class SmallBatch:
    """About 2000 small instances per pass, mirroring the four verify suites:
    random circulants on Z/n (n <= 10) through verify_gowers_relations,
    random subsets of Z/n (n <= 32) and (F_q, +) (q <= 64) through both
    subset-QR routes, random subsets of SL2(3) and SL2(5) through
    subset_qr_spectral plus graph eps1, and irrep degrees of SL2(3), SL2(5),
    SL2(7).  Groups are built once, in setup; items are shuffled."""

    name = "small_batch"
    unit = "instances"
    max_passes = None
    scaled = True
    CIRCULANTS = 250
    ABELIAN_PER_GROUP = 25
    SL2_SUBSETS = {3: 125, 5: 125}
    IRREPS_PER_GROUP = 10

    def setup(self, seed):
        self.seed = seed
        self.abelian = [(f"Z/{n}", grp.cyclic_group(n)) for n in range(2, 33)]
        for q in range(2, 65):
            try:
                p, n = reglab.factor_prime_power(q)
            except InadmissibleQ:
                continue
            self.abelian.append((f"F_{q}+", grp.additive_group(ffield.make_field(p, n))))
        self.sl2 = {q: grp.sl2(ffield.make_field(q)) for q in (3, 5, 7)}

    def make_pass(self, k):
        rng = np.random.default_rng([self.seed, k])
        calls = []
        for _ in range(self.CIRCULANTS):
            n = int(rng.integers(2, 11))
            d = rng.random(n) < rng.random()
            ids = np.arange(n)
            bg = quasi.BipartiteGraph(n, n, d[(ids[None, :] - ids[:, None]) % n])
            calls.append(Call("gowers", (n, d, bg, int(rng.integers(2 ** 31)))))
        for label, g in self.abelian:
            for _ in range(self.ABELIAN_PER_GROUP):
                d = rng.random(g.order) < rng.random()
                calls.append(Call("abelian", (label, g, d, int(rng.integers(2 ** 31)))))
        for q, count in self.SL2_SUBSETS.items():
            g = self.sl2[q]
            for _ in range(count):
                d = rng.random(g.order) < rng.uniform(0.2, 0.8)
                calls.append(Call("sl2", (f"SL2({q})", g, d, int(rng.integers(2 ** 31)))))
        for q, g in self.sl2.items():
            for _ in range(self.IRREPS_PER_GROUP):
                calls.append(Call("irreps", (q, g, int(rng.integers(2 ** 31)))))
        return [calls[i] for i in rng.permutation(len(calls))]

    def run(self, call):
        if call.kind == "gowers":
            _, _, bg, seed = call.args
            return quasi.verify_gowers_relations(bg, seed=seed)
        if call.kind == "abelian":
            _, g, d, seed = call.args
            return (fourier.subset_qr_spectral(g, d, seed=seed),
                    fourier.subset_qr_characters(g, d))
        if call.kind == "sl2":
            _, g, d, seed = call.args
            return (fourier.subset_qr_spectral(g, d, seed=seed),
                    quasi.eps1_quasirandomness(quasi.cayley_bipartite(g, d)))
        q, g, seed = call.args
        return fourier.irrep_dimensions(g, seed=seed)

    def check(self, call, result):
        if call.kind == "gowers":
            n, d, _, _ = call.args
            return oracles.check_gowers(n, d, result)
        if call.kind == "abelian":
            return oracles.check_spectral_vs_characters(call.args[0], *result)
        if call.kind == "sl2":
            label, g, d, _ = call.args
            return oracles.check_nonabelian_subset(label, g, d, *result)
        return oracles.check_degrees(call.args[0], result)


class Counting:
    """Dimension/measure and ratio estimates of formulas with known answers.
    Each pass draws one prime from each of eleven bands in [100, 375) and
    adds GF(3^5), GF(7^3) and GF(2^8), whose multi-digit multiplication is
    the slow ffield path, and GF(397), so that every pass has the same
    largest (q, q, q) grid and the peak memory does not depend on the draw.  Formula text is parsed inside the timed call, as
    ``qr`` does for every invocation."""

    name = "counting"
    unit = "(formula, field) evaluations"
    max_passes = None
    scaled = True
    BANDS = [(100 + 25 * i, 125 + 25 * i) for i in range(11)]
    FIXED_ODD = (243, 343, 397)
    FIXED_EVEN = (256,)
    QR = "exists y. x = y*y & !(x = 0)"
    # (formula, needs odd characteristic, expected (d, r))
    DIM_MEASURE = (
        (QR, True, (1, Fraction(1, 2))),
        ("y*y = x*x*x + x + 1", False, (1, Fraction(1))),
        ("x*x + y*y = z*z", False, (2, Fraction(1))),
        ("exists y. exists z. x = y*y*y + z*z*z", False, (1, Fraction(1))),
    )
    RATIO = (QR, "x = x", Fraction(1, 2))

    def setup(self, seed):
        self.seed = seed
        self.pools = [[p for p in range(lo, hi) if ffield.is_prime(p)] for lo, hi in self.BANDS]

    def make_pass(self, k):
        rng = np.random.default_rng([self.seed, k])
        odd = [int(rng.choice(pool)) for pool in self.pools] + list(self.FIXED_ODD)
        every = odd + list(self.FIXED_EVEN)
        calls = [Call("dim", (text, odd if odd_only else every, want),
                      units=len(odd if odd_only else every))
                 for text, odd_only, want in self.DIM_MEASURE]
        a, b, want = self.RATIO
        calls.append(Call("ratio", (a, b, odd, want), units=2 * len(odd)))
        return [calls[i] for i in rng.permutation(len(calls))]

    def run(self, call):
        if call.kind == "dim":
            text, qs, _ = call.args
            return reglab.estimate_dim_measure(defform.parse(text), qs)
        a, b, qs, _ = call.args
        return reglab.check_ratio_stability(defform.parse(a), defform.parse(b), qs)

    def check(self, call, result):
        if call.kind == "dim":
            text, qs, want = call.args
            got = (result.d, result.r)
            return None if got == want else f"{text!r} over {qs}: (d, r) = {got} != {want}"
        a, b, qs, want = call.args
        if result.q_star != want:
            return f"|{a}| / |{b}| over {qs}: q* = {result.q_star} != {want}"
        return None


WORKLOADS = {w.name: w for w in (PaleyLarge, SubgroupIndex, SmallBatch, Counting)}
