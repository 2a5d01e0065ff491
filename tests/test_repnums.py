"""Representation-count tests.

The two counting paths share no code, so their agreement on random instances
is the main correctness evidence here; frozen values below were computed by
hand (tiny moduli) or pinned from the naive path before the Gauss path ran.
"""

import importlib.util
import inspect
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import inf
from pathlib import Path
from types import SimpleNamespace

import pytest

from vveis import acceptance, borcherds, eisenstein, lattice, linalg, repnums
from vveis.acceptance import E8, U
from vveis.arith import kronecker, valuation
from vveis.errors import (
    BudgetExceeded,
    ConsistencyError,
    NegativeValuation,
    PreconditionError,
)
from vveis.eisenstein import eis_coefficient
from vveis.lattice import RepResult, coset_represents, discriminant_form, new_lattice

A1 = [[2]]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)]


_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)


def random_even_lattice(rng, rank, spread=3):
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = 2 * rng.randint(-spread, spread)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-spread, spread)
        try:
            return new_lattice(g)
        except Exception:
            continue


class TestHenselExponent:
    def test_frozen(self):
        assert repnums.w_p(1, 1, 2) == 3
        assert repnums.w_p(1, 1, 3) == 1
        assert repnums.w_p(Fraction(1, 4), 2, 2) == 1

    def test_grows_with_valuation(self):
        assert repnums.w_p(4, 1, 2) == 7
        assert repnums.w_p(9, 1, 3) == 5
        assert repnums.w_p(9, 1, 5) == 1

    def test_negative_valuation(self):
        with pytest.raises(NegativeValuation):
            repnums.w_p(Fraction(1, 4), 1, 2)
        with pytest.raises(NegativeValuation):
            repnums.w_p(Fraction(1, 3), 1, 3)

    def test_zero_m_rejected(self):
        with pytest.raises(PreconditionError):
            repnums.w_p(0, 1, 2)


class TestCountNaive:
    def test_modulus_one(self):
        assert repnums.count_naive(new_lattice(U), 0, (), 1).count == 1

    def test_rank_one(self):
        # Q(r) = r^2 on <2>; r in {0,1}, only r=1 hits 1 mod 2
        assert repnums.count_naive(new_lattice(A1), 1, (0,), 2).count == 1

    def test_hyperbolic_mod_two(self):
        # Q(x,y) = xy; three of four pairs mod 2 are even
        assert repnums.count_naive(new_lattice(U), 0, (), 2).count == 3

    def test_coset_with_denominator(self):
        lat = new_lattice(A1)
        # mu = 1/2, Q(r + 1/2) = (r + 1/2)^2; m = 1/4 hit by r = 0 and r = 1 mod 2
        got = repnums.count_naive(lat, Fraction(1, 4), (1,), 2)
        assert got.count == 2

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            repnums.count_naive(new_lattice(U), Fraction(1, 3), (), 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            repnums.count_naive(new_lattice(U), 0, (), 100, cap=100)

    def test_unimodular_conjugate(self):
        # a GL_n(Z) conjugate U^T G U of the fixture lattice whose Smith
        # normal form columns reach ~2 * 10^13 (~10^167 without the
        # determinant bound): the generators are reduced mod L, so counts
        # stay on int64 and agree with the base lattice
        base = new_lattice(acceptance.FIXTURE_GRAM)
        n = base.rank
        rng = random.Random(0)
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            for row in u:
                row[i] += c * row[j]
        perm = list(range(n))
        rng.shuffle(perm)
        u = [[row[k] for k in perm] for row in u]
        conj = new_lattice(mat_mul(transpose(u), mat_mul(base.gram, u)))
        dc, db = discriminant_form(conj), discriminant_form(base)
        assert all(0 <= x < 1 for gen in dc.gens for x in gen)
        for mu in dc.elements():
            # x -> U x maps the conjugate isometrically onto the base
            w = [sum(u[r][k] * x for k, x in enumerate(dc.vector(mu)))
                 for r in range(n)]
            (nu,) = [nu for nu in db.elements() if all(
                (a - b).denominator == 1 for a, b in zip(db.vector(nu), w))]
            m = dc.q_value(mu) + 1
            assert db.q_value(nu) == dc.q_value(mu)
            assert (repnums.count_naive(conj, m, mu, 2).count
                    == repnums.count_naive(base, m, nu, 2).count)

    def test_invariant_bound(self):
        rng = random.Random(5)
        for _ in range(20):
            lat = random_even_lattice(rng, rng.randint(1, 2))
            a = rng.randint(1, 6)
            c = repnums.count_naive(lat, 0, discriminant_form(lat).zero(), a)
            assert 0 <= c.count <= a ** lat.rank


class TestJordan:
    def test_already_diagonal_dyadic(self):
        lat = new_lattice([[2, 0, 0], [0, 4, 0], [0, 0, 8]])
        blocks, _, _ = repnums._jordan_exact(lat, 2)
        assert [2 ** k for k, _, _ in blocks] == [1, 2, 4]
        assert all(dim == 1 and data[0] % 2 == 1 for _, dim, data in blocks)

    def test_hyperbolic_block_survives(self):
        blocks, _, _ = repnums._jordan_exact(new_lattice(U), 2)
        assert len(blocks) == 1
        k, dim, data = blocks[0]
        assert (dim, k) == (2, 0)
        assert data[1] % 2 == 1  # odd middle coefficient

    def test_odd_prime_scales(self):
        blocks, _, _ = repnums._jordan_exact(new_lattice([[2, 0], [0, 6]]), 3)
        assert [3 ** k for k, _, _ in blocks] == [1, 3]
        assert all(dim == 1 for _, dim, _ in blocks)

    def test_odd_prime_fully_diagonal(self):
        rng = random.Random(11)
        for _ in range(15):
            lat = random_even_lattice(rng, rng.randint(2, 4))
            for p in (3, 5):
                blocks, _, _ = repnums._jordan_exact(lat, p)
                assert all(dim == 1 for _, dim, _ in blocks)

    def test_basechange_congruence(self):
        # C^T G C must be exactly block diagonal with the stated scales/units
        rng = random.Random(12)
        for _ in range(12):
            lat = random_even_lattice(rng, rng.randint(2, 4))
            for p in (2, 3):
                self.check_integer_frame(lat, p)

    def check_integer_frame(self, lat, p):
        # the cached frame itself: an integer C with a p-unit determinant,
        # C^T G C exactly block diagonal with the integer block data, and
        # the cached C^T G
        blocks, c, ctg = repnums._jordan_exact(lat, p)
        assert all(type(x) is int for row in c for x in row)
        assert _frac_det([[Fraction(x) for x in row] for row in c]).numerator % p != 0
        c = [list(row) for row in c]
        assert [list(row) for row in ctg] == mat_mul(transpose(c), lat.gram)
        bd = mat_mul(transpose(c), mat_mul(lat.gram, c))
        want = [[0] * lat.rank for _ in range(lat.rank)]
        pos = 0
        for k, dim, data in blocks:
            assert all(type(x) is int for x in data)
            s = p ** k
            if dim == 1:
                (u,) = data
                assert u % p
                want[pos][pos] = 2 * s * u
            else:
                a, b, c2 = data
                assert p == 2 and b % 2
                want[pos][pos], want[pos][pos + 1] = 2 * s * a, s * b
                want[pos + 1][pos], want[pos + 1][pos + 1] = s * b, 2 * s * c2
            pos += dim
        assert bd == want

    def test_integer_frame_on_bases(self):
        rng = random.Random(22)
        for name, base in sorted(WORKLOADS.BASES.items()):
            grams = [base] + [WORKLOADS.conjugate(base, WORKLOADS.random_unimodular(
                rng, len(base))) for _ in range(2)]
            for gram in grams:
                lat = new_lattice(gram)
                for p in lattice.bad_primes(lat):
                    self.check_integer_frame(lat, p)

    def test_basechange_is_p_unit(self):
        for gram, p in ((U, 2), ([[2, 1], [1, 4]], 2), ([[2, 0], [0, 18]], 3)):
            self.check_integer_frame(new_lattice(gram), p)

    def test_stray_entry_is_a_consistency_error(self, monkeypatch):
        # an elimination move that does nothing leaves g_01 = 2 behind
        monkeypatch.setattr(linalg, "sym_combine", lambda *args: None)
        with pytest.raises(ConsistencyError, match="stray entry"):
            repnums._jordan_exact.__wrapped__(new_lattice([[2, 2], [2, 8]]), 2)

    def test_non_dual_coset_is_a_consistency_error(self):
        # s / den = (1/2, 0) is not in the dual of U
        with pytest.raises(ConsistencyError, match="dual vector"):
            repnums._gauss_frame.__wrapped__(new_lattice(U), 2, (1, 0), 2, 3)

    def test_deterministic(self):
        lat = new_lattice([[4, 1, 0], [1, 2, 1], [0, 1, -6]])
        assert (repnums._jordan_exact.__wrapped__(lat, 2)
                == repnums._jordan_exact.__wrapped__(lat, 2))


def _frac_det(m):
    n = len(m)
    a = [row[:] for row in m]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return det


def ref_add(g, c, dst, src, f):
    """Basis vector dst += f * basis vector src, on g and on the basis c."""
    linalg.sym_add(g, dst, src, f)
    for row in c:
        row[dst] += f * row[src]


@lru_cache(maxsize=None)
def ref_jordan_exact(lattice, p):
    """Reference: the Jordan splitting over Q_p in Fraction arithmetic, with
    the pivot rules of ``repnums._jordan_exact`` and unscaled moves
    e_j -= (g_kj / g_kk) e_k."""
    n = lattice.rank
    g = [[Fraction(x) for x in row] for row in lattice.gram]
    c = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    blocks = []
    k = 0
    while k < n:
        while True:
            diag_best, diag_val = None, None
            for i in range(k, n):
                v = valuation(g[i][i], p)
                if v is not None and (diag_val is None or v < diag_val):
                    diag_best, diag_val = i, v
            off_best, off_val = None, None
            for i in range(k, n):
                for j in range(i + 1, n):
                    v = valuation(g[i][j], p)
                    if v is not None and (off_val is None or v < off_val):
                        off_best, off_val = (i, j), v
            if p != 2:
                if diag_val is not None and (off_val is None or diag_val <= off_val):
                    break
                i, j = off_best
                ref_add(g, c, i, j, Fraction(1))
                continue
            break
        if p == 2 and (diag_val is None or (off_val is not None and off_val < diag_val)):
            i, j = off_best
            linalg.sym_swap(g, c, k, i)
            linalg.sym_swap(g, c, k + 1, j)
            det2 = g[k][k] * g[k + 1][k + 1] - g[k][k + 1] ** 2
            for l in range(k + 2, n):
                b1, b2 = g[k][l], g[k + 1][l]
                x1 = (g[k + 1][k + 1] * b1 - g[k][k + 1] * b2) / det2
                x2 = (g[k][k] * b2 - g[k][k + 1] * b1) / det2
                if x1:
                    ref_add(g, c, l, k, -x1)
                if x2:
                    ref_add(g, c, l, k + 1, -x2)
            kv = valuation(g[k][k + 1], 2)
            sc = Fraction(2) ** kv
            blocks.append((kv, 2, (g[k][k] / (2 * sc), g[k][k + 1] / sc,
                                   g[k + 1][k + 1] / (2 * sc))))
            k += 2
            continue
        linalg.sym_swap(g, c, k, diag_best)
        pivot = g[k][k]
        for j in range(k + 1, n):
            if g[k][j]:
                ref_add(g, c, j, k, -g[k][j] / pivot)
        qc = pivot / 2
        kv = valuation(qc, p)
        blocks.append((kv, 1, (qc / Fraction(p) ** kv,)))
        k += 1
    return tuple(blocks), tuple(tuple(row) for row in c)


def ref_gauss_frame(lattice, den, s, p, w):
    """Reference: ``repnums._gauss_frame`` on the Fraction frame above, each
    phi reduced mod p^w, ending in the same per-class step
    (``repnums._classes``)."""
    n = lattice.rank
    jordan, cmat = ref_jordan_exact(lattice, p)
    ell = [x // den for x in lattice.gram_times(s)]
    lin = [sum(cmat[j][i] * ell[j] for j in range(n)) for i in range(n)]
    blocks = []
    pos = 0
    for k, dim, data in jordan:
        lb = lin[pos:pos + dim]
        pos += dim
        vl = min((valuation(x, p) for x in lb if x), default=inf)
        if dim == 2:
            a, b, c = data
            unit = 1 if (a * c).numerator % 2 == 0 else -1
            phi = (-(c * lb[0] ** 2 - b * lb[0] * lb[1] + a * lb[1] ** 2)
                   / (2 ** k * (4 * a * c - b * b)) if vl >= k else None)
        else:
            (a,) = data
            if p == 2:
                unit = a.numerator * pow(a.denominator, -1, 8) % 8
            else:
                unit = kronecker(a.numerator * a.denominator, p)
            phi = -lb[0] ** 2 / (4 * a * p ** k) if vl >= k + (p == 2) else None
        if phi is not None:
            assert phi.denominator % p, (phi, p)
            phi = phi.numerator * pow(phi.denominator, -1, p ** w) % p ** w
        blocks.append((k, dim, vl, unit, phi))
    return repnums._classes(tuple(blocks), p, w)


class TestIntegerFrame:
    """count_gauss on the integer Jordan frame equals count_gauss on the
    Fraction frame, for every coset, every p | 2N and every w <= 9."""

    def check(self, lat, monkeypatch, cosets=None):
        disc = discriminant_form(lat)
        elements = disc.elements()
        if cosets is not None and len(elements) > cosets:
            elements = random.Random(repr(lat.gram)).sample(elements, cosets)
        for p in lattice.bad_primes(lat):
            for mu in elements:
                q = disc.q_value(mu)
                for m in (q, q + 1, q + 2, q + 6, q - 3):
                    if m == 0:
                        continue
                    for w in range(1, 10):
                        got = repnums.count_gauss(lat, m, mu, p, w).count
                        with monkeypatch.context() as mp:
                            mp.setattr(repnums, "_gauss_frame", ref_gauss_frame)
                            want = repnums.count_gauss(lat, m, mu, p, w).count
                        assert got == want, (lat.gram, m, mu, p, w)

    @pytest.mark.parametrize("name", sorted(WORKLOADS.BASES))
    def test_bases(self, name, monkeypatch):
        self.check(new_lattice(WORKLOADS.BASES[name]), monkeypatch)

    @pytest.mark.parametrize("name", sorted(WORKLOADS.BASES))
    def test_conjugates(self, name, monkeypatch):
        rng = random.Random(f"integer-frame:{name}")
        base = WORKLOADS.BASES[name]
        for _ in range(2):
            gram = WORKLOADS.conjugate(base, WORKLOADS.random_unimodular(rng, len(base)))
            self.check(new_lattice(gram), monkeypatch)

    def test_random_lattices(self, monkeypatch):
        rng = random.Random(2022)
        for _ in range(30):
            self.check(random_even_lattice(rng, rng.randint(1, 4)), monkeypatch, cosets=4)


class TestBlockTable:
    """The per-(lattice, p) block table with the per-coset linear terms of
    ``_gauss_blocks`` gives the frame of the Fraction Jordan splitting, class
    for class, on every coset."""

    @pytest.mark.parametrize("name", ["A2^3", "U+U+A2+<2>", "fixture"])
    def test_reproduces_fraction_frame(self, name):
        rng = random.Random(f"block-table:{name}")
        base = WORKLOADS.BASES[name]
        for gram in (base, WORKLOADS.conjugate(base, WORKLOADS.random_unimodular(
                rng, len(base)))):
            lat = new_lattice(gram)
            disc = discriminant_form(lat)
            for p in lattice.bad_primes(lat):
                ctg, table = repnums._block_table(lat, p)
                assert ctg == repnums._jordan_exact(lat, p)[2]
                assert sum(dim for _, dim, _, _, _ in table) == lat.rank
                for mu in disc.elements():
                    den, s = disc.coset(mu)
                    for w in (1, 2, 3, 4, 7):
                        assert (repnums._gauss_frame(lat, den, s, p, w)
                                == ref_gauss_frame(lat, den, s, p, w)), (name, mu, p, w)


class TestCountGauss:
    def test_non_integral_constant_is_a_consistency_error(self, monkeypatch):
        # Q(mu) - m is read off one shared denominator; a remainder means the
        # representative does not lie in the coset check_pair validated
        lat = new_lattice(A1)
        disc = discriminant_form(lat)
        monkeypatch.setattr(disc, "q_exact", lambda mu: Fraction(3, 4) + 1)
        with pytest.raises(ConsistencyError, match="not an integer"):
            repnums.count_gauss(lat, Fraction(1, 4), (1,), 2, 3)

    def test_rank_one_matches(self):
        got = repnums.count_gauss(new_lattice(A1), 1, (0,), 2, 1)
        assert got.count == 1

    def test_hyperbolic_matches_naive(self):
        lat = new_lattice(U)
        nv = repnums.count_naive(lat, 0, (), 4).count
        gv = repnums.count_gauss(lat, 0, (), 2, 2).count
        assert nv == gv == 8

    def test_e8_oracle(self):
        # one-time large oracle: 8^8 residues on the naive side
        lat = new_lattice(E8)
        gv = repnums.count_gauss(lat, 1, (), 2, 3).count
        assert gv == 1966080  # frozen from the naive loop
        nv = repnums.count_naive(lat, 1, (), 8).count
        assert nv == gv

    def test_w_zero_rejected(self):
        with pytest.raises(PreconditionError):
            repnums.count_gauss(new_lattice(U), 0, (), 2, 0)

    def test_battery_against_naive(self):
        rng = random.Random(20260814)
        checked = 0
        while checked < 200:
            rank = rng.randint(1, 3)
            lat = random_even_lattice(rng, rank)
            disc = discriminant_form(lat)
            mu = rng.choice(disc.elements())
            p = rng.choice([2, 2, 2, 3, 5, 7])
            w = rng.randint(1, 3)
            if p ** w > 343:
                continue
            m = disc.q_value(mu) + rng.randint(-4, 4)
            nv = repnums.count_naive(lat, m, mu, p ** w).count
            gv = repnums.count_gauss(lat, m, mu, p, w).count
            assert nv == gv, (lat.gram, m, mu, p, w, nv, gv)
            checked += 1

    def test_deep_dyadic_battery(self):
        # exercises the high-valuation recursion branches and the 2x2
        # clamped-scale case (s = w)
        rng = random.Random(77)
        for _ in range(60):
            rank = rng.randint(1, 2)
            lat = random_even_lattice(rng, rank)
            disc = discriminant_form(lat)
            mu = rng.choice(disc.elements())
            w = rng.randint(4, 7 if rank == 1 else 6)
            m = disc.q_value(mu) + rng.randint(-3, 3)
            nv = repnums.count_naive(lat, m, mu, 2 ** w).count
            gv = repnums.count_gauss(lat, m, mu, 2, w).count
            assert nv == gv, (lat.gram, m, mu, w, nv, gv)


    def test_deep_odd_battery(self):
        # p | det, so every lattice has a scaled Jordan block at p; m runs
        # over several p-adic valuations so the phases reach deep classes
        rng = random.Random(31)
        depth = {3: 6, 5: 4, 7: 3}
        checked = 0
        while checked < 60:
            rank = rng.randint(1, 2)
            p = rng.choice(sorted(depth))
            lat = random_even_lattice(rng, rank)
            if lat.det % p:
                continue
            disc = discriminant_form(lat)
            mu = rng.choice(disc.elements())
            w = rng.randint(max(1, depth[p] - 2), depth[p])
            m = disc.q_value(mu) + rng.randint(-3, 3) * p ** rng.randint(0, 3)
            nv = repnums.count_naive(lat, m, mu, p ** w).count
            gv = repnums.count_gauss(lat, m, mu, p, w).count
            assert nv == gv, (lat.gram, m, mu, p, w, nv, gv)
            checked += 1

    def test_fixture_hensel_lift(self):
        # past w_p every step of w multiplies the count by 2^(rank - 1) = 2^13
        start = time.process_time()
        lat = new_lattice(acceptance.FIXTURE_GRAM)
        disc = discriminant_form(lat)
        lift = 2 ** (lat.rank - 1)
        for mu, k in (((0, 0, 0, 0), 3), ((0, 0, 0, 1), 2), ((0, 0, 1, 1), 5)):
            m = disc.q_value(mu) + 2 ** k * 3
            wp = repnums.w_p(m, disc.order_of(mu), 2)
            counts = {w: repnums.count_gauss(lat, m, mu, 2, w).count
                      for w in range(wp, 16)}
            assert counts[wp] > 0
            for w in range(wp, 15):
                assert counts[w + 1] == lift * counts[w], (mu, m, w)
            t = time.process_time()
            repnums.count_gauss(lat, m, mu, 2, 15)
            assert time.process_time() - t < 0.05
        assert time.process_time() - start < 5

    @staticmethod
    def _timed_count(lat, m, mu, p, w):
        t = time.process_time()
        n = repnums.count_gauss(lat, m, mu, p, w).count
        assert time.process_time() - t < 1
        return n

    def test_large_prime_finite_field_oracle(self):
        # p does not divide 2 det: over F_p the coset is a translate of L, and
        # #{Q(x) = b} = p^2 + p eta(-b Delta) for a ternary form of
        # determinant Delta = det(G / 2) (Lidl-Niederreiter, Thm 6.27); the
        # t-sum over p^3 ~ 10^12 residues is out of reach, four classes are not
        p = 10007
        lat = new_lattice([[2, 1, 0], [1, 4, 1], [0, 1, -6]])
        assert (2 * lat.det) % p
        disc = discriminant_form(lat)

        def eta(x):  # quadratic character of F_p by Euler's criterion
            x %= p
            return 0 if x == 0 else 1 if pow(x, (p - 1) // 2, p) == 1 else -1

        delta = lat.det * pow(8, -1, p)
        for mu in disc.elements()[:3]:
            for k in (1, 2, 5):
                m = disc.q_value(mu) + k
                b = m.numerator * pow(m.denominator, -1, p) % p
                assert b
                n1, n3 = (self._timed_count(lat, m, mu, p, w) for w in (1, 3))
                assert n1 == p ** 2 + p * eta(-b * delta)
                assert n3 == p ** (2 * (lat.rank - 1)) * n1


class TestCount:
    def test_negative_count_is_a_consistency_error(self):
        # raised, not asserted: it holds under python -O too
        with pytest.raises(ConsistencyError, match="negative"):
            repnums.RepCount(Fraction(1), (), 1, -5, "naive")

    def test_modulus_one(self):
        assert repnums.count(new_lattice(U), 0, (), 1).count == 1

    def test_crt_split(self):
        lat = new_lattice(U)
        c6 = repnums.count(lat, 0, (), 6).count
        c2 = repnums.count(lat, 0, (), 2).count
        c3 = repnums.count(lat, 0, (), 3).count
        assert c6 == c2 * c3
        assert c6 == repnums.count_naive(lat, 0, (), 6).count

    def test_crt_vs_naive_twelve(self):
        rng = random.Random(3)
        for _ in range(10):
            lat = random_even_lattice(rng, 2)
            disc = discriminant_form(lat)
            mu = rng.choice(disc.elements())
            m = disc.q_value(mu) + rng.randint(0, 3)
            assert repnums.count(lat, m, mu, 12).count == \
                repnums.count_naive(lat, m, mu, 12).count

    def test_multiplicativity_battery(self):
        rng = random.Random(99)
        for _ in range(100):
            rank = rng.randint(1, 3)
            lat = random_even_lattice(rng, rank)
            disc = discriminant_form(lat)
            mu = rng.choice(disc.elements())
            m = disc.q_value(mu) + rng.randint(-3, 3)
            a1, a2 = rng.choice([(2, 3), (4, 3), (2, 9), (8, 3), (4, 5), (3, 5)])
            c12 = repnums.count(lat, m, mu, a1 * a2).count
            c1 = repnums.count(lat, m, mu, a1).count
            c2 = repnums.count(lat, m, mu, a2).count
            assert c12 == c1 * c2

    def test_local_universality(self):
        # p odd, p coprime to det, rank >= 3: count(p) >= p^(rank-2)(p-1) > 0.
        # The constant is sharp: [[4,2,1],[2,-6,-3],[1,-3,4]], p=5, m=4 gives
        # exactly 20 = 5*4 on both paths (ternary counts over F_p are p^2 +- p).
        rng = random.Random(42)
        done = 0
        while done < 25:
            lat = random_even_lattice(rng, 3)
            disc = discriminant_form(lat)
            for p in (3, 5, 7):
                if lat.det % p == 0:
                    continue
                m = rng.randint(1, 6)
                c = repnums.count(lat, m, disc.zero(), p)
                assert c.count >= p ** (lat.rank - 2) * (p - 1), \
                    (lat.gram, p, m, c.count)
                done += 1

    def test_sharp_universality_witness(self):
        lat = new_lattice([[4, 2, 1], [2, -6, -3], [1, -3, 4]])
        disc = discriminant_form(lat)
        assert repnums.count_naive(lat, 4, disc.zero(), 5).count == 20
        assert repnums.count_gauss(lat, 4, disc.zero(), 5, 1).count == 20

    def test_crosscheck_mode(self, monkeypatch):
        monkeypatch.setattr(repnums, "CROSSCHECK", True)
        lat = new_lattice(U)
        assert repnums.count(lat, 0, (), 4).count == 8

    def test_gauss_dispatch_above_cutoff(self):
        lat = new_lattice(E8)
        got = repnums.count(lat, 1, (), 8)  # 8^8 residues: too many to enumerate
        assert got.count == 1966080
        assert got.method == "gauss"


class TestLocalCounts:
    """The internal one-prime-power counts keep the naive cross-check."""

    @staticmethod
    def _wrong_naive(lattice, m, mu, a, cap=10 ** 8):
        # more solutions than residues: never a correct count
        return repnums.RepCount(Fraction(m), tuple(mu), a, a ** lattice.rank + 1, "naive")

    def test_matches_count(self):
        lat = new_lattice(acceptance.direct_sum(U, [[-4]], [[6]]))
        disc = discriminant_form(lat)
        for mu in disc.elements()[:6]:
            m = disc.q_value(mu) + 2
            primes = [p for p, _, _ in repnums.local_counts(lat, m, mu)]
            assert primes == [2, 3]  # level 24
            for p, w, n in repnums.local_counts(lat, m, mu):
                assert w == repnums.w_p(m, disc.order_of(mu), p)
                assert n == repnums.count_naive(lat, m, mu, p ** w).count

    def test_crosscheck_through_eis_coefficient(self, monkeypatch):
        lat = new_lattice(E8)
        assert eis_coefficient(lat, 1, ()) == 240
        monkeypatch.setattr(repnums, "CROSSCHECK", True)
        monkeypatch.setattr(repnums, "count_naive", self._wrong_naive)
        with pytest.raises(ConsistencyError):
            eis_coefficient(lat, 1, ())

    def test_crosscheck_through_coset_represents(self, monkeypatch):
        lat = new_lattice(acceptance.direct_sum(U, U))  # indefinite, rank 4
        assert coset_represents(lat, 3, ()) is RepResult.REPRESENTED
        monkeypatch.setattr(repnums, "CROSSCHECK", True)
        monkeypatch.setattr(repnums, "count_naive", self._wrong_naive)
        with pytest.raises(ConsistencyError):
            coset_represents(lat, 3, ())

    def test_switch_read_once(self, monkeypatch):
        # no count reads the environment: the switch is read at import, and
        # a read of os.environ here would raise AttributeError
        monkeypatch.setattr(repnums, "os", SimpleNamespace())
        assert eis_coefficient(new_lattice(E8), 5, ()) == 240 * 126
        uu = new_lattice(acceptance.direct_sum(U, U))
        assert coset_represents(uu, 7, ()) is RepResult.REPRESENTED
        assert repnums.count(uu, 0, (), 4).count == \
            repnums.count_naive(uu, 0, (), 4).count

    def test_crosscheck_fixture_at_affordable_level(self, monkeypatch):
        # rank 14: 8^14 residues at w_2 = 3 exceed the cap, so the two paths
        # are compared at 2^1 (2^14 residues) instead of raising
        lat = new_lattice(acceptance.FIXTURE_GRAM)
        zero = discriminant_form(lat).zero()
        want = eis_coefficient(lat, 1, zero)
        monkeypatch.setattr(repnums, "CROSSCHECK", True)
        assert eis_coefficient(lat, 1, zero) == want
        assert repnums.count(lat, 1, zero, 8).count == \
            repnums.count_gauss(lat, 1, zero, 2, 3).count
        monkeypatch.setattr(repnums, "count_naive", self._wrong_naive)
        with pytest.raises(ConsistencyError):
            eis_coefficient(lat, 1, zero)

    def test_crosscheck_budget_when_no_level_fits(self):
        lat = new_lattice(E8)
        # gauss answers, but not even 2^8 residues fit under cap = 100
        # (crosscheck=False: the answer must not depend on CROSSCHECK)
        assert repnums.count(lat, 1, (), 8, cap=100,
                             crosscheck=False).count == 1966080
        with pytest.raises(BudgetExceeded):
            repnums.count(lat, 1, (), 8, cap=100, crosscheck=True)


class TestForeignDisc:
    """``count_gauss`` and ``eis_expansion`` still take a ``disc``, only as a
    handle on the lattice's own form: a form of another lattice, or one
    labelling this lattice's cosets another way, is refused with
    PreconditionError, not an AssertionError, a silent zero count or mixed
    labels.  Every other entry point reads the form off its lattice."""

    A2P = [[2, 1], [1, 2]]  # L'/L of order 3
    OTHER = [[2, -1], [-1, 8]]  # L'/L of order 15

    def lattices(self, *tail):
        lat = new_lattice(acceptance.direct_sum(self.A2P, *tail))
        other = discriminant_form(new_lattice(acceptance.direct_sum(self.OTHER, *tail)))
        return lat, other

    # E8 adds nothing to L'/L and lifts kappa to 5 for the expansion
    CALLS = {
        "count_gauss": lambda lat, d: repnums.count_gauss(
            lat, Fraction(1, 3), (1,), 3, 2, disc=d),
        "eis_expansion": lambda lat, d: eisenstein.eis_expansion(lat, 2, disc=d),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_definite_entry_points(self, name):
        lat, other = self.lattices(E8)
        assert other.orders == (15,)
        with pytest.raises(PreconditionError, match="does not belong"):
            self.CALLS[name](lat, other)

    def test_relabelled_own_form(self):
        # the generator -g swaps the labels of the cosets (1,) and (2,)
        lat, _ = self.lattices(E8)
        own = discriminant_form(lat)
        flipped = lattice.DiscriminantForm(
            lat, own.orders, [tuple(-x % 1 for x in g) for g in own.gens])
        assert flipped.lattice == lat and flipped.vector((1,)) == own.vector((2,))
        for call in self.CALLS.values():
            with pytest.raises(PreconditionError, match="does not belong"):
                call(lat, flipped)
            assert call(lat, own) == call(lat, None)

    def test_benchmark_call_shapes(self):
        # eis_expansion(L.negated(), 4, disc=discriminant_form(L).negated())
        # and count_gauss(L, m, mu, 2, w, disc=ctx.disc), as the workloads
        # call them; the unnegated form belongs to L, not to L.negated()
        lat, _ = self.lattices(U, U)
        disc = discriminant_form(lat)
        assert eisenstein.eis_expansion(lat.negated(), 4, disc=disc.negated()) \
            == eisenstein.eis_expansion(lat.negated(), 4)
        with pytest.raises(PreconditionError, match="does not belong"):
            eisenstein.eis_expansion(lat.negated(), 4, disc=disc)
        ctx = eisenstein.context(lat)
        m = disc.q_value((1,)) + 1
        for w in (1, 3):
            assert repnums.count_gauss(lat, m, (1,), 2, w, disc=ctx.disc) \
                == repnums.count_gauss(lat, m, (1,), 2, w)

    def test_own_form_still_counts(self):
        lat, _ = self.lattices()
        disc = discriminant_form(lat)
        assert (repnums.count_gauss(lat, Fraction(1, 3), (1,), 3, 2, disc=disc).count
                == repnums.count_naive(lat, Fraction(1, 3), (1,), 9).count)
    def test_only_two_entry_points_take_disc(self):
        # every other public function reads the form off its lattice
        optional = set()
        for mod in (lattice, repnums, eisenstein, borcherds):
            for name, obj in vars(mod).items():
                fn = getattr(obj, "__wrapped__", obj)  # t_max is lru_cached
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                param = inspect.signature(fn).parameters.get("disc")
                if param is not None and param.default is not param.empty:
                    optional.add(f"{mod.__name__.split('.')[-1]}.{name}")
        assert optional == {"eisenstein.eis_expansion", "repnums.count_gauss",
                            "lattice.disc_of"}
