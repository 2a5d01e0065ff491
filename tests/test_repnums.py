"""Representation-count tests.

The two counting paths share no code, so their agreement on random instances
is the main correctness evidence here; frozen values below were computed by
hand (tiny moduli) or pinned from the naive path before the Gauss path ran.
"""

import random
from fractions import Fraction

import pytest

from vveis import acceptance, linalg, repnums
from vveis.errors import (
    BudgetExceeded,
    NegativeValuation,
    PrecisionTooLow,
    PreconditionError,
)
from vveis.lattice import discriminant_form, new_lattice

U = [[0, 1], [1, 0]]
A1 = [[2]]

E8 = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
        disc = discriminant_form(lat)
        # mu = 1/2, Q(r + 1/2) = (r + 1/2)^2; m = 1/4 hit by r = 0 and r = 1 mod 2
        got = repnums.count_naive(lat, Fraction(1, 4), (1,), 2, disc=disc)
        assert got.count == 2

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            repnums.count_naive(new_lattice(U), Fraction(1, 3), (), 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            repnums.count_naive(new_lattice(U), 0, (), 100, cap=100)

    def test_unimodular_conjugate(self):
        # a GL_n(Z) conjugate U^T G U of the fixture lattice whose raw Smith
        # normal form columns reach ~10^166: the generators are reduced mod
        # L, so counts stay on int64 and agree with the base lattice
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
        conj = new_lattice(mat_mul(linalg.transpose(u), mat_mul(base.gram, u)))
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
        dec = repnums.jordan_decompose(lat, 2, 6)
        assert [2 ** b.scale_exp for b in dec.blocks] == [1, 2, 4]
        assert all(b.dim == 1 and b.data[0] % 2 == 1 for b in dec.blocks)

    def test_hyperbolic_block_survives(self):
        dec = repnums.jordan_decompose(new_lattice(U), 2, 4)
        assert len(dec.blocks) == 1
        b = dec.blocks[0]
        assert (b.dim, b.scale_exp) == (2, 0)
        assert b.data[1] % 2 == 1  # odd middle coefficient

    def test_odd_prime_scales(self):
        dec = repnums.jordan_decompose(new_lattice([[2, 0], [0, 6]]), 3, 4)
        assert [3 ** b.scale_exp for b in dec.blocks] == [1, 3]
        assert all(b.dim == 1 for b in dec.blocks)

    def test_odd_prime_fully_diagonal(self):
        rng = random.Random(11)
        for _ in range(15):
            lat = random_even_lattice(rng, rng.randint(2, 4))
            for p in (3, 5):
                dec = repnums.jordan_decompose(lat, p, 8)
                assert all(b.dim == 1 for b in dec.blocks)

    def test_basechange_congruence(self):
        # C^T G C must be exactly block diagonal with the stated scales/units
        rng = random.Random(12)
        for _ in range(12):
            lat = random_even_lattice(rng, rng.randint(2, 4))
            for p in (2, 3):
                e = 6
                dec = repnums.jordan_decompose(lat, p, e)
                c = [list(row) for row in dec.basechange]
                gc = mat_mul([[Fraction(x) for x in row] for row in lat.gram], c)
                bd = mat_mul(linalg.transpose(c), gc)
                pe = Fraction(p ** e)
                pos = 0
                for b in dec.blocks:
                    if b.dim == 1:
                        want = [[2 * Fraction(p) ** b.scale_exp * b.data[0]]]
                    else:
                        a2, b2, c2 = b.data
                        s = Fraction(2) ** b.scale_exp
                        want = [[2 * s * a2, s * b2], [s * b2, 2 * s * c2]]
                    for i in range(b.dim):
                        for j in range(b.dim):
                            diff = bd[pos + i][pos + j] - want[i][j]
                            # difference divisible by p^e after clearing the
                            # p-unit denominator
                            assert (diff / pe).denominator % p != 0
                    pos += b.dim
                # off-block entries vanish exactly
                spans = []
                for bi, b in enumerate(dec.blocks):
                    spans += [bi] * b.dim
                for i in range(lat.rank):
                    for j in range(lat.rank):
                        if spans[i] != spans[j]:
                            assert bd[i][j] == 0

    def test_basechange_is_p_unit(self):
        for gram, p in ((U, 2), ([[2, 1], [1, 4]], 2), ([[2, 0], [0, 18]], 3)):
            dec = repnums.jordan_decompose(new_lattice(gram), p, 6)
            det = linalg.det_int  # determinant of a Fraction matrix via expansion
            c = [list(row) for row in dec.basechange]
            d = _frac_det(c)
            assert d != 0
            assert d.numerator % p != 0 and d.denominator % p != 0

    def test_precision_guard(self):
        lat = new_lattice([[2, 0, 0], [0, 4, 0], [0, 0, 8]])
        with pytest.raises(PrecisionTooLow):
            repnums.jordan_decompose(lat, 2, 3)
        with pytest.raises(PreconditionError):
            repnums.jordan_decompose(lat, 2, 0)

    def test_deterministic(self):
        lat = new_lattice([[4, 1, 0], [1, 2, 1], [0, 1, -6]])
        a = repnums.jordan_decompose(lat, 2, 8)
        b = repnums.jordan_decompose(lat, 2, 8)
        assert a == b


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


class TestCountGauss:
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
            nv = repnums.count_naive(lat, m, mu, p ** w, disc=disc).count
            gv = repnums.count_gauss(lat, m, mu, p, w, disc=disc).count
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
            nv = repnums.count_naive(lat, m, mu, 2 ** w, disc=disc).count
            gv = repnums.count_gauss(lat, m, mu, 2, w, disc=disc).count
            assert nv == gv, (lat.gram, m, mu, w, nv, gv)


class TestCount:
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
            assert repnums.count(lat, m, mu, 12, disc=disc).count == \
                repnums.count_naive(lat, m, mu, 12, disc=disc).count

    def test_multiplicativity_battery(self):
        rng = random.Random(99)
        for _ in range(100):
            rank = rng.randint(1, 3)
            lat = random_even_lattice(rng, rank)
            disc = discriminant_form(lat)
            mu = rng.choice(disc.elements())
            m = disc.q_value(mu) + rng.randint(-3, 3)
            a1, a2 = rng.choice([(2, 3), (4, 3), (2, 9), (8, 3), (4, 5), (3, 5)])
            c12 = repnums.count(lat, m, mu, a1 * a2, disc=disc).count
            c1 = repnums.count(lat, m, mu, a1, disc=disc).count
            c2 = repnums.count(lat, m, mu, a2, disc=disc).count
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
                c = repnums.count(lat, m, disc.zero(), p, disc=disc)
                assert c.count >= p ** (lat.rank - 2) * (p - 1), \
                    (lat.gram, p, m, c.count)
                done += 1

    def test_sharp_universality_witness(self):
        lat = new_lattice([[4, 2, 1], [2, -6, -3], [1, -3, 4]])
        disc = discriminant_form(lat)
        assert repnums.count_naive(lat, 4, disc.zero(), 5, disc=disc).count == 20
        assert repnums.count_gauss(lat, 4, disc.zero(), 5, 1, disc=disc).count == 20

    def test_crosscheck_mode(self, monkeypatch):
        monkeypatch.setenv("VVEIS_CROSSCHECK", "1")
        lat = new_lattice(U)
        assert repnums.count(lat, 0, (), 4).count == 8

    def test_gauss_dispatch_above_cutoff(self):
        lat = new_lattice(E8)
        got = repnums.count(lat, 1, (), 8, naive_cutoff=1000)
        assert got.count == 1966080
        assert got.method == "gauss"