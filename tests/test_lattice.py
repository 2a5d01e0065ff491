"""Lattice invariants, discriminant forms, and bounded searches.

Frozen values below were derived by hand (small diagonalizations, dual
denominators) or by classical facts (E8 root count) before the code ran.
"""

import importlib.util
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from vveis import lattice as lattice_mod
from vveis import linalg
from vveis.acceptance import D4, E8, U, diag, direct_sum
from vveis.errors import (
    BudgetExceeded,
    ConsistencyError,
    NotEven,
    NotSymmetric,
    PreconditionError,
    Singular,
)
from vveis.lattice import (
    EvenLattice,
    RepResult,
    coset_represents,
    discriminant_form,
    new_lattice,
    t_max,
    t_mu,
    theta_counts,
    witt_rank_bounded,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)]


A1M = [[-2]]


# References over Q for the one integer elimination: Gauss-Jordan inversion,
# a congruence diagonalization with largest-pivot choice, a determinant, and
# the LDL^T decomposition, none of them sharing code with linalg.


def ref_det(m):
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


def ref_inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise Singular("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def ref_congruent_diagonal(g):
    """The diagonal of a congruence diagonalization over Q (sign pattern =
    signature): largest diagonal pivot, a zero diagonal repaired by adding
    a basis vector with a nonzero off-diagonal entry."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    for k in range(n):
        best = max((i for i in range(k, n) if a[i][i]), default=None,
                   key=lambda i: abs(a[i][i]))
        if best is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            best = i
        for row in a:
            row[k], row[best] = row[best], row[k]
        a[k], a[best] = a[best], a[k]
        for j in range(k + 1, n):
            f = a[k][j] / a[k][k]
            if f:
                for row in a:
                    row[j] -= f * row[k]
                a[j] = [x - f * y for x, y in zip(a[j], a[k])]
    return [a[i][i] for i in range(n)]


def ref_ldl(g):
    """(d, l) with g = sum_k d[k] (e_k + sum_{j>k} l[k][j-k-1] e_j)^2."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    d, l = [], []
    for i in range(n):
        d.append(a[i][i])
        l.append([a[i][j] / a[i][i] for j in range(i + 1, n)])
        for r in range(i + 1, n):
            for s in range(i + 1, n):
                a[r][s] -= a[i][r] * a[i][s] / a[i][i]
    return d, l


def ref_level(inv):
    n = len(inv)
    return math.lcm(*[Fraction(inv[i][i], 2).denominator for i in range(n)],
                    *[inv[i][j].denominator for i in range(n) for j in range(n)])


def even_symmetric(raw, diag):
    n = len(diag)
    return [[2 * diag[i] if i == j else raw[min(i, j)][max(i, j)]
             for j in range(n)] for i in range(n)]


def even_grams(max_rank):
    return st.integers(1, max_rank).flatmap(lambda n: st.builds(
        even_symmetric,
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from([0, 0, -2, -1, 1, 2]), min_size=n, max_size=n)))


even_matrices = even_grams(6)


_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", PERFBENCH / "workloads.py")
WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)
# the fixture conjugates of eis-random's seed-1 job lists on which the
# unbounded elimination is slowest (seconds, against a millisecond)
SEED1_FIXTURE_CONJUGATES = [
    g for k in (3, 4, 5, 6, 14)
    for name, g in WORKLOADS.EisRandom().setup(1, 20, None)["stream"][k]
    if name == "fixture"]


class PastBound(Exception):
    pass


def ref_smith_within(a, bound):
    """The unbounded Smith normal form elimination, with the same pivot
    order, Euclid swaps and offender step as linalg's, raising PastBound as
    soon as an entry of the working matrix leaves [-bound, bound]."""
    n = len(a)
    d = [list(row) for row in a]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def within():
        if any(abs(x) > bound for row in d for x in row):
            raise PastBound

    def row_op(i, j, q):
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        within()

    def col_op(i, j, q):
        for m in (d, v):
            for row in m:
                row[i] -= q * row[j]
        within()

    def swap_cols(i, j):
        for m in (d, v):
            for row in m:
                row[i], row[j] = row[j], row[i]

    within()
    for t in range(n):
        cells = [(abs(d[i][j]), i, j) for i in range(t, n) for j in range(t, n)
                 if d[i][j]]
        if not cells:
            break
        _, pi, pj = min(cells)
        d[t], d[pi] = d[pi], d[t]
        swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, n):
                if d[i][t]:
                    row_op(i, t, d[i][t] // d[t][t])
                    if d[i][t]:
                        d[t], d[i] = d[i], d[t]
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    col_op(j, t, d[t][j] // d[t][t])
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            offender = next((i for i in range(t + 1, n) for j in range(t + 1, n)
                             if d[i][j] % d[t][t]), None)
            if offender is None:
                break
            row_op(t, offender, -1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
    return [d[i][i] for i in range(n)], v


def per_entry_smith(a, det):
    """The Smith normal form kernel with a closure call per entry and a
    column operation over every row, kept verbatim from before the row
    operations became list operations: ``linalg.smith_normal_form`` must
    return the same (d, v), so every coset label stays as it was."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    D = abs(int(det))
    big, half = D * D, D // 2

    def cut(x):  # the symmetric residue of x mod D, once |x| > D^2
        return (x + half) % D - half if D and abs(x) > big else x

    d = [[cut(int(x)) for x in row] for row in a]
    v = linalg.identity(ncols)

    def row_op(i, j, q):  # row i -= q * row j
        d[i] = [cut(x - q * y) for x, y in zip(d[i], d[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in d:
            row[i] = cut(row[i] - q * row[j])
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:  # remainder is a smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain property
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # pull the offending row up, keep reducing
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    diag = [math.gcd(d[i][i], D) for i in range(min(nrows, ncols))]
    return diag, v


def seeded_conjugate(name, k=0):
    """The k-th seeded GL_n(Z) conjugate of a perfbench base lattice."""
    base = WORKLOADS.BASES[name]
    rng = random.Random(f"kernels:{name}:{k}")
    return WORKLOADS.conjugate(base, WORKLOADS.random_unimodular(rng, len(base)))


def ref_move(g, c, t):
    """Reference for a basis change by the matrix t, in Fractions: (t^T g t, c t)."""
    t = [[Fraction(x) for x in row] for row in t]
    return mat_mul(transpose(t), mat_mul(g, t)), mat_mul(c, t)


def seeded_frame(rng, n, symmetric=True):
    """(g0, c, g): an even Gram matrix g0, an integer basis c with det c != 0
    and g = c^T g0 c; with symmetric False, g is a plain integer matrix."""
    while True:
        g0 = [[0] * n for _ in range(n)]
        for i in range(n):
            g0[i][i] = 2 * rng.randint(-5, 5)
            for j in range(i + 1, n):
                g0[i][j] = g0[j][i] = rng.randint(-6, 6)
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if ref_det(c):
            break
    g = mat_mul(transpose(c), mat_mul(g0, c))
    if not symmetric:
        g = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
    return g0, c, g


class TestLinalg:
    def test_det(self):
        assert ref_det(U) == -1
        assert ref_det(E8) == 1
        assert ref_det(D4) == 4

    @staticmethod
    def check_smith(g, d, v):
        # u a v = diag(d) with u unimodular is a v = W diag(d) with W = u^-1:
        # column j of a v is d_j times an integral column of W, |det W| = 1
        assert abs(ref_det(v)) == 1
        av = mat_mul([list(r) for r in g], v)
        assert all(x > 0 for x in d)
        assert all(row[j] % d[j] == 0 for row in av for j in range(len(d)))
        w = [[row[j] // d[j] for j in range(len(d))] for row in av]
        assert abs(ref_det(w)) == 1
        for i in range(len(d) - 1):
            assert d[i + 1] % d[i] == 0
        assert math.prod(d) == abs(ref_det(g))

    def test_smith_invariants(self):
        for g in (U, A1, E8, D4, direct_sum(U, A1M)):
            for det in (0, ref_det(g)):
                self.check_smith(g, *linalg.smith_normal_form([list(r) for r in g], det))

    def check_bounded_smith(self, g):
        det = int(ref_det(g))
        start = time.process_time()
        d, v = linalg.smith_normal_form(g, det)
        assert time.process_time() - start < 1.0
        self.check_smith(g, d, v)
        try:
            ref = ref_smith_within(g, det * det)
        except PastBound:
            return
        assert (d, v) == ref  # no entry reached D^2: the unbounded run

    @given(even_grams(14))
    @example(direct_sum(E8, D4, A1M, A1M))
    @example(direct_sum(U, U, WORKLOADS.BASES["E7"]))
    @settings(max_examples=60, deadline=None)
    def test_bounded_smith_random(self, g):
        assume(ref_det(g) != 0)
        self.check_bounded_smith(g)

    @given(st.sampled_from(sorted(WORKLOADS.BASES)), st.randoms(use_true_random=False),
           st.integers(0, 42))
    @settings(max_examples=60, deadline=None)
    def test_bounded_smith_conjugates(self, name, rng, moves):
        self.check_bounded_smith(random_conjugate(rng, WORKLOADS.BASES[name], moves))

    @pytest.mark.parametrize("k", range(len(SEED1_FIXTURE_CONJUGATES)))
    def test_bounded_smith_slowest_conjugates(self, k):
        assert len(SEED1_FIXTURE_CONJUGATES) == 5
        self.check_bounded_smith(SEED1_FIXTURE_CONJUGATES[k])

    @staticmethod
    def check_elimination(g):
        # R_k is zero before column k with R_kk = D_{k+1}, and D_n = det G;
        # where no pivot moves (every leading minor of G nonzero), the minors
        # are G's own and G = L D L^T with l_jk = R_kj / R_kk, d_k = D_{k+1} /
        # D_k: the frame _frame reads
        n = len(g)
        minors, rows = linalg.sym_eliminate(g)
        assert len(minors) == n + 1 and minors[0] == 1
        for i in range(n):
            assert rows[i][:i] == [0] * i and rows[i][i] == minors[i + 1]
        assert minors[-1] == ref_det(g)
        leading = [ref_det([row[:k] for row in g[:k]]) for k in range(n + 1)]
        if all(leading):
            assert minors == leading
            l = [[Fraction(rows[k][j], rows[k][k]) for k in range(n)] for j in range(n)]
            d = [Fraction(minors[k + 1], minors[k]) for k in range(n)]
            assert [[sum(l[i][k] * d[k] * l[j][k] for k in range(n)) for j in range(n)]
                    for i in range(n)] == g

    def test_sym_eliminate_diagonalizes(self):
        # G = L D L^T; U and U + U + <-2> fold a zero diagonal
        for g in (U, A1M, E8, D4, direct_sum(U, U, A1M), [[0, 1, 1], [1, 0, 2], [1, 2, 0]]):
            self.check_elimination(g)

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                    min_size=4, max_size=4), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_sym_eliminate_random(self, raw, n):
        g = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        if ref_det(g) == 0:
            with pytest.raises(Singular):
                linalg.sym_eliminate(g)
        else:
            self.check_elimination(g)

    def test_sym_eliminate_singular(self):
        for g in ([[0]], [[0, 0], [0, 0]], [[2, 2], [2, 2]], direct_sum(U, [[0]]),
                  [[0, 1, 1], [1, 0, 1], [1, 1, 2]]):
            assert ref_det(g) == 0
            with pytest.raises(Singular):
                linalg.sym_eliminate(g)


class TestKernels:
    """The elimination moves and the Smith kernel against references."""

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_sym_add_and_swap(self, symmetric):
        # e_dst += f e_src is t^T g t for t = 1 + f E_(src, dst), also on a
        # matrix that is not symmetric (the Bareiss rows of sym_eliminate);
        # sym_add tracks no basis, sym_swap tracks c
        rng = random.Random(f"sym-add:{symmetric}")
        for _ in range(60):
            n = rng.randint(2, 6)
            _, c, g = seeded_frame(rng, n, symmetric)
            dst, src = rng.sample(range(n), 2)
            f = rng.choice([-3, -2, -1, 1, 2, 5])
            t = [[int(i == j) for j in range(n)] for i in range(n)]
            t[src][dst] = f
            want, _ = ref_move(g, c, t)
            linalg.sym_add(g, dst, src, f)
            assert g == want
            i, j = rng.randrange(n), rng.randrange(n)
            t = [[int(b == (j if a == i else i if a == j else a)) for b in range(n)]
                 for a in range(n)]
            want = ref_move(g, c, t)
            linalg.sym_swap(g, c, i, j)
            assert (g, c) == want

    @pytest.mark.parametrize("nterms", [1, 2])
    def test_sym_combine(self, nterms):
        # e_dst := (a e_dst + sum b e_src) / h, h the content of the new
        # column of c: t^T g t with column dst of t = (a, b, ...) / h; g
        # stays the Gram matrix of the basis c
        rng = random.Random(f"sym-combine:{nterms}")
        for _ in range(80):
            n = rng.randint(nterms + 1, 6)
            g0, c, g = seeded_frame(rng, n)
            dst, *srcs = rng.sample(range(n), nterms + 1)
            a = rng.choice([1, -1, 3, 5, -7])
            terms = tuple((src, rng.randint(-9, 9)) for src in srcs)
            col = [a * row[dst] + sum(b * row[src] for src, b in terms) for row in c]
            h = math.gcd(*col)
            if h == 0:
                continue
            t = [[int(i == j) for j in range(n)] for i in range(n)]
            t[dst][dst] = Fraction(a, h)
            for src, b in terms:
                t[src][dst] = Fraction(b, h)
            want = ref_move(g, c, t)
            linalg.sym_combine(g, c, dst, a, terms)
            assert (g, c) == want
            assert all(type(x) is int for row in g + c for x in row)
            assert g == mat_mul(transpose(c), mat_mul(g0, c))

    @pytest.mark.parametrize("name", sorted(WORKLOADS.BASES))
    def test_smith_matches_per_entry_kernel(self, name):
        # the same pivots, operations and swaps: the same (d, v), bounded by
        # D = |det|, and unbounded where that stays cheap (rank <= 5)
        for k in range(3):
            g = seeded_conjugate(name, k)
            det = int(ref_det(g))
            dets = (det, 0) if len(g) <= 5 else (det,)
            for dt in dets:
                assert (linalg.smith_normal_form([list(r) for r in g], dt)
                        == per_entry_smith([list(r) for r in g], dt)), (name, k, dt)

    @given(even_grams(6))
    @settings(max_examples=60, deadline=None)
    def test_smith_matches_per_entry_kernel_random(self, g):
        det = int(ref_det(g))
        for dt in {det, 0}:
            assert (linalg.smith_normal_form([list(r) for r in g], dt)
                    == per_entry_smith([list(r) for r in g], dt))


def definite_gram(a, m):
    """M^T diag(2a) M: positive definite and even for a non-singular M."""
    n = len(a)
    return [[sum(2 * a[k] * m[k][i] * m[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


definite_matrices = st.integers(1, 6).flatmap(lambda n: st.builds(
    definite_gram,
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-1, 2), min_size=n, max_size=n),
             min_size=n, max_size=n)))


class TestIntegerCosets:
    """DiscriminantForm's integer representatives and index tables against
    a Fraction reference: vector(mu) = sum mu_k gens[k] and Q, (,) by the
    Gram double sum."""

    @given(st.one_of(even_matrices, definite_matrices), st.booleans())
    @example(direct_sum(A1M, [[4]]), True)
    @example(E8, False)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_matches_fraction_reference(self, g, negate):
        assume(0 < abs(ref_det(g)) <= 64)
        form = discriminant_form(new_lattice(g))
        disc = form.negated() if negate else form
        lat, els, n = disc.lattice, disc.elements(), len(g)

        def q_ref(v):
            return sum(lat.gram[i][j] * v[i] * v[j]
                       for i in range(n) for j in range(n)) / 2

        def b_ref(v, w):
            return sum(lat.gram[i][j] * v[i] * w[j]
                       for i in range(n) for j in range(n))

        vecs = []
        for i, mu in enumerate(els):
            assert disc.index(mu) == i
            v = tuple(sum((a * gen[r] for a, gen in zip(mu, disc.gens)), Fraction(0))
                      for r in range(n))
            den, s = disc.coset(mu)
            assert den == math.lcm(1, *(x.denominator for x in v))
            assert disc.order_of(mu) == den == math.lcm(
                1, *(d // math.gcd(a, d) for a, d in zip(mu, disc.orders)))
            assert tuple(Fraction(x, den) for x in s) == v == disc.vector(mu)
            q = q_ref(v)
            assert disc.q_exact(mu) == q == lat.q_value(v)
            assert disc.q_value(mu) == q % 1
            vecs.append(v)
        for k, d in enumerate(disc.orders):
            unit = tuple(int(j == k) for j in range(len(disc.orders)))
            assert els[disc.strides[k]] == unit
            for i, mu in enumerate(els):
                assert els[disc.shifts[k][i]] == tuple(
                    (a + b) % e for a, b, e in zip(mu, unit, disc.orders))
        for i, mu in enumerate(els):
            assert els[disc.negs[i]] == disc.neg(mu) == tuple(
                -a % d for a, d in zip(mu, disc.orders))
        for i, mu in enumerate(els[:12]):
            for j, nu in enumerate(els):
                b = b_ref(vecs[i], vecs[j])
                assert lat.bilinear(vecs[i], vecs[j]) == b
                assert disc.bilinear(mu, nu) == b % 1

    def test_index_and_vectors_checked(self):
        lat = new_lattice(direct_sum(A1M, [[4]]))
        with pytest.raises(PreconditionError):
            discriminant_form(lat).index((0, 4))
        for v in ([1], [1, 0, 0]):
            with pytest.raises(PreconditionError):
                lat.q_value(v)
            with pytest.raises(PreconditionError):
                lat.bilinear([1, 0], v)


class TestOneElimination:
    """EvenLattice, _frame and certified_radius read one Bareiss pass; the
    references above redo each over Q."""

    @given(even_matrices)
    @example([[0, 1], [1, 0]])
    @example(direct_sum(U, U, A1M))
    @example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    @settings(max_examples=150, deadline=None)
    def test_invariants_match_references(self, g):
        det = ref_det(g)
        if det == 0:
            with pytest.raises(Singular):
                new_lattice(g)
            return
        lat = new_lattice(g)
        diag = ref_congruent_diagonal(g)
        inv = ref_inverse(g)
        assert lat.det == det
        assert (lat.sig_pos, lat.sig_neg) == (sum(d > 0 for d in diag),
                                              sum(d < 0 for d in diag))
        assert lat.level == ref_level(inv)
        assert lat._inv_diag == tuple(inv[i][i] for i in range(len(g)))
        neg = lat.negated()
        assert neg._inv_diag == tuple(-inv[i][i] for i in range(len(g)))

    def test_certified_radius_matches_fraction_formula(self):
        # the int bound against isqrt(floor(max_i |2 m (G^-1)_ii|)) in
        # Fractions, plus the representative's size, on both signs
        rng = random.Random(33)
        checked = 0
        bases = (A2, D4, direct_sum(A1, A1, A1), direct_sum(A2, [[4]]),
                 direct_sum([[6]], [[4]]))
        for base in bases:
            for sign in (1, -1):
                g = [[sign * x for x in row] for row in random_conjugate(rng, base)]
                lat = new_lattice(g)
                inv = ref_inverse(g)
                disc = discriminant_form(lat)
                for mu in disc.elements():
                    den, s = disc.coset(mu)
                    extra = max(map(abs, s)) // den + 2
                    for m in (disc.q_value(mu) + 3,
                              Fraction(rng.randint(1, 900), rng.randint(1, 24))):
                        m = sign * m
                        bound = max(abs(2 * m * inv[i][i]) for i in range(len(g)))
                        want = frac_isqrt(bound) + extra
                        assert lattice_mod.certified_radius(lat, m, den, s) == want, (g, mu, m)
                        checked += any(s) and m.denominator > 1
        assert checked > 20

    @pytest.mark.parametrize("base", [E8, D4, A2, direct_sum(A2, A1, [[4]])])
    def test_frame_matches_ldl(self, base):
        rng = random.Random(41)
        for sign in (1, -1):
            for _ in range(10):
                g = [[sign * x for x in row] for row in random_conjugate(rng, base)]
                lat = new_lattice(g)
                d, l = ref_ldl([[sign * x for x in row] for row in g])
                lden = math.lcm(1, *(x.denominator for row in l for x in row))
                dden = math.lcm(*(x.denominator for x in d))
                want = tuple(
                    (tuple(int(x * lden) for x in l[k]),
                     int(d[k] * dden) * lden * lden, 2 * int(d[k] * dden) * lden,
                     int(d[k] * dden))
                    for k in range(len(g)))
                assert lattice_mod._frame(lat) == (sign, dden * lden * lden, want)
                # the negation shares the pass: same frame, opposite sign
                assert lattice_mod._frame(lat.negated()) == (-sign,) + \
                    lattice_mod._frame(lat)[1:]

    def test_info_invariants_of_conjugates(self):
        # perfbench's own GL_n(Z) conjugates of its 13 bases
        rng = random.Random("one elimination")
        for name, base in sorted(WORKLOADS.BASES.items()):
            want = new_lattice(base)
            orders = discriminant_form(want).orders
            for _ in range(3):
                lat = new_lattice(WORKLOADS.conjugate(
                    base, WORKLOADS.random_unimodular(rng, len(base))))
                assert (lat.det, lat.sig_pos, lat.sig_neg, lat.level) == \
                    (want.det, want.sig_pos, want.sig_neg, want.level), name
                inv = ref_inverse(lat.gram)
                assert lat._inv_diag == tuple(inv[i][i] for i in range(len(base)))
                assert discriminant_form(lat).orders == orders, name


class TestLazyReads:
    """det, signature and rank come from the Bareiss pass alone; the level
    is read off the discriminant form when first asked for."""

    def test_pass_invariants_run_no_smith_form(self, monkeypatch):
        # a conjugate no other test builds, so its form is not cached yet
        g = random_conjugate(random.Random("lazy reads"), direct_sum(D4, A1M, [[6]]))
        calls = []
        snf = linalg.smith_normal_form

        def counting(a, det):
            calls.append(det)
            return snf(a, det)

        monkeypatch.setattr(linalg, "smith_normal_form", counting)
        lat = new_lattice(g)
        assert (lat.rank, lat.det, lat.sig_pos, lat.sig_neg) == (6, -48, 5, 1)
        assert calls == []
        assert lat.level == ref_level(ref_inverse(g)) == 12
        assert len(calls) == 1

    @pytest.mark.parametrize("neg_first", [False, True])
    def test_level_of_negation(self, neg_first):
        # fresh objects, either side read first: one side's form is the
        # other's negated(), and neither read recurses
        rng = random.Random(f"lazy level:{neg_first}")
        for base in (direct_sum(A1, [[4]]), A2, D4, direct_sum(U, [[6]]),
                     direct_sum(A1M, [[4]], A2)):
            g = random_conjugate(rng, base)
            lat = new_lattice(g)
            neg = lat.negated()
            levels = (neg.level, lat.level) if neg_first else (lat.level, neg.level)
            assert levels[0] == levels[1] == ref_level(ref_inverse(g))
            assert new_lattice([[-x for x in row] for row in g]).level == lat.level

    def test_trivial_form_has_level_one(self):
        lat = new_lattice(random_conjugate(random.Random("lazy e8"), E8))
        assert discriminant_form(lat).gens == ()
        assert lat.level == lat.negated().level == 1

    @pytest.mark.parametrize("name", sorted(WORKLOADS.BASES))
    def test_seeded_conjugates_keep_level(self, name):
        base = WORKLOADS.BASES[name]
        want = ref_level(ref_inverse(base))
        assert new_lattice(base).level == want
        for k in range(3):
            assert new_lattice(seeded_conjugate(name, k)).level == want, k


class TestEvenLattice:
    def test_hyperbolic_plane(self):
        lat = new_lattice(U)
        assert (lat.sig_pos, lat.sig_neg) == (1, 1)
        assert lat.det == -1
        assert lat.level == 1

    def test_a1(self):
        lat = new_lattice(A1)
        assert (lat.sig_pos, lat.sig_neg) == (1, 0)
        assert lat.det == 2
        assert lat.level == 4

    def test_validation(self):
        with pytest.raises(NotEven):
            new_lattice([[1, 0], [0, 1]])
        with pytest.raises(NotSymmetric):
            new_lattice([[2, 1], [0, 2]])
        with pytest.raises(Singular):
            new_lattice([[2, 2], [2, 2]])
        # an entry is accepted when it is an integer exactly; every other one
        # is a PreconditionError, also where int() itself refuses it
        for entry in (2, 2.0, "2", Fraction(2)):
            assert new_lattice([[entry, 1], [1, 2]]).gram == ((2, 1), (1, 2))
        for entry in (2.5, Fraction(5, 2), "2.5", None, b"2", float("inf")):
            with pytest.raises(PreconditionError) as err:
                new_lattice([[entry, 1], [1, 2]])
            assert type(err.value) is PreconditionError
            assert str(err.value) == "gram entries must be integers"

    def test_e8(self):
        lat = new_lattice(E8)
        assert lat.det == 1
        assert (lat.sig_pos, lat.sig_neg) == (8, 0)
        assert lat.level == 1

    def test_fixture_12_2(self):
        lat = new_lattice(direct_sum(E8, D4, A1M, A1M))
        assert (lat.sig_pos, lat.sig_neg) == (12, 2)
        assert lat.det == 16
        assert lat.level == 4

    def test_level_minimality(self):
        # N*Q integral on the dual; N/p fails for each prime p | N
        for g in (A1, D4, direct_sum(A1, [[6]]), direct_sum(U, A1M)):
            lat = new_lattice(g)
            disc = discriminant_form(lat)
            for mu in disc.elements():
                assert (lat.level * disc.q_value(mu)).denominator == 1
            for p in (2, 3, 5, 7):
                if lat.level % p == 0:
                    assert any(
                        (lat.level // p * disc.q_value(mu)).denominator != 1
                        for mu in disc.elements())

    def test_hash_computed_once(self):
        # equal Gram matrices hash alike, and negating twice returns the same
        # lattice with its hash unchanged
        g = direct_sum(D4, A1M)
        lat, twin = new_lattice(g), new_lattice([list(row) for row in g])
        assert lat == twin and hash(lat) == hash(twin) == hash(lat.gram)
        h = hash(lat)
        neg = lat.negated()
        fresh = new_lattice([[-x for x in row] for row in g])
        assert neg == fresh and hash(neg) == hash(fresh) == hash(neg.gram)
        assert neg.negated() is lat and hash(lat) == h
        assert lattice_mod.discriminant_form(neg) is lattice_mod.discriminant_form(fresh)

    def test_bad_primes_factored_once(self, monkeypatch):
        lat = new_lattice(direct_sum(U, [[12]]))
        assert lattice_mod.bad_primes(lat) == (2, 3)

        def no_factoring(n):
            raise AssertionError("bad_primes factored again")

        monkeypatch.setattr(lattice_mod, "factorize", no_factoring)
        assert lattice_mod.bad_primes(lat) == (2, 3)
        assert lattice_mod.bad_primes(new_lattice(direct_sum(U, [[12]]))) == (2, 3)

    def test_det_level_same_primes(self):
        for g in (A1, D4, E8, direct_sum(A1, [[6]])):
            lat = new_lattice(g)
            d, n = abs(lat.det), lat.level
            for p in (2, 3, 5, 7, 11):
                assert (d % p == 0) == (n % p == 0) or d == 1


def old_check(disc, mu):
    """The element check before its memo: convert with int, then range-check."""
    mu = tuple(int(a) for a in mu)
    if len(mu) != len(disc.orders) or any(
            not (0 <= a < d) for a, d in zip(mu, disc.orders)):
        raise PreconditionError(f"not a discriminant element: {mu}")
    return mu


def outcome(f, *args):
    """("ok", result) or ("raise", exception type and message)."""
    try:
        return "ok", f(*args)
    except Exception as err:  # the exception is the outcome compared
        return "raise", (type(err), str(err))


CHECK_FORM = discriminant_form(new_lattice(direct_sum(A1M, [[4]], D4)))
check_entries = st.one_of(
    st.integers(-2, 6), st.booleans(),
    st.floats(min_value=-2, max_value=6, allow_nan=False),
    st.fractions(min_value=-2, max_value=6, max_denominator=4))


class TestDiscriminantForm:
    @given(st.lists(check_entries, min_size=0, max_size=len(CHECK_FORM.orders) + 1),
           st.booleans(), st.lists(st.integers(0, 7), max_size=6))
    @example([1, 0, 1, 1], True, [])
    @example([True, False, 1, 0], False, [1, 0, 1, 0])
    @example([1.0, 0, 0, 0], False, [1, 0, 0, 0])
    @example([2, 0, 0, 0], False, [])
    @settings(max_examples=300, deadline=None)
    def test_check_matches_int_conversion(self, entries, as_tuple, seen):
        # the same canonical int tuple or the same exception as the plain
        # conversion rule, on a fresh form, after the element was seen, and
        # after other elements were
        disc = lattice_mod.DiscriminantForm(
            CHECK_FORM.lattice, CHECK_FORM.orders, CHECK_FORM._den, CHECK_FORM._vecs)
        mu = tuple(entries) if as_tuple else list(entries)
        want = outcome(old_check, disc, mu)
        for other in (seen, seen[::-1]):
            outcome(disc.check, tuple(other))
        for _ in range(2):
            got = outcome(disc.check, mu)
            assert got == want
            if got[0] == "ok":
                assert type(got[1]) is tuple
                assert all(type(a) is int for a in got[1])
        assert disc._elements is None

    def test_check_pair_of_a_seen_element_is_one_lookup(self, monkeypatch):
        # once its representative is built, an element and any tuple equal
        # to it pass check_pair without check or _rep, as the canonical
        # tuple; the checks keep their order: m's sign before the congruence
        disc = lattice_mod.DiscriminantForm(
            CHECK_FORM.lattice, CHECK_FORM.orders, CHECK_FORM._den, CHECK_FORM._vecs)
        mus = [(1, 0, 1, 1), (0, 1, 0, 1), (0, 0, 0, 0)]
        qs = [disc.q_value(mu) for mu in mus]

        def fail(*args):
            raise AssertionError("not one lookup")
        monkeypatch.setattr(disc, "check", fail)
        monkeypatch.setattr(disc, "_rep", fail)
        for mu, q in zip(mus, qs):
            for alias in (mu, tuple(map(float, mu)), tuple(map(Fraction, mu)),
                          tuple(map(bool, mu)) if max(mu) <= 1 else mu):
                m, got = disc.check_pair(q + 3, alias)
                assert (m, got) == (q + 3, mu) and type(m) is Fraction
                assert all(type(a) is int for a in got)
            with pytest.raises(PreconditionError, match="congruent"):
                disc.check_pair(q + Fraction(1, 97), mu)
            with pytest.raises(PreconditionError, match="non-negative"):
                disc.check_pair(q - 1 + Fraction(1, 97), mu, nonnegative=True)
            assert disc.check_pair(q - 1, mu)[0] == q - 1
        with pytest.raises(AssertionError, match="one lookup"):
            disc.check_pair(0, (1, 1, 1, 1))  # unseen: goes through check

    def test_first_numerator(self):
        # n / den is the least m = Q(mu) mod 1 with m >= low; a den that
        # Q(mu) does not live over is refused
        for gram in ([[2, 1], [1, -4]], diag([2, -2, -4]), D4, [[6]]):
            lat = new_lattice(gram)
            disc = discriminant_form(lat)
            for mu in disc.elements():
                q = disc.q_value(mu)
                for den in (lat.level, 2 * lat.level, q.denominator):
                    for low in (Fraction(-7, 3), 0, Fraction(1, 9), 1, 5):
                        n = disc.first_numerator(mu, den, low)
                        m = Fraction(n, den)
                        assert (m - q).denominator == 1 and m >= low > m - 1
                if q.denominator > 1:
                    with pytest.raises(PreconditionError):
                        disc.first_numerator(mu, q.denominator + 1)

    def test_check_does_not_enumerate(self):
        # a large form checks one element without listing its elements
        disc = discriminant_form(new_lattice(direct_sum(U, [[2 * 3 ** 12]])))
        assert disc.size == 2 * 3 ** 12
        assert disc.check((5,)) == (5,) and disc.check([5]) == (5,)
        with pytest.raises(PreconditionError):
            disc.check((disc.size,))
        assert disc._elements is None

    @pytest.mark.parametrize("gram", [[[2, 1], [1, -4]], [[2, 0], [0, -6]],
                                      [[4]], diag([2, -2, -4])])
    def test_index_grid(self, gram):
        disc = discriminant_form(new_lattice(gram))
        for mu in disc.elements():
            q, neg = disc.q_value(mu), disc.neg(mu)
            for low in (Fraction(-7, 3), 0, Fraction(1, 9), Fraction(1, 2), 1, 5):
                ms = list(itertools.islice(disc.exponents(mu, low), 5))
                assert all((m - q).denominator == 1 for m in ms)
                assert all(b - a == 1 for a, b in zip(ms, ms[1:]))
                assert ms[0] >= low > ms[0] - 1
            ms = list(itertools.islice(disc.indices(mu), 5))
            assert all((m - q).denominator == 1 for m in ms)
            assert all(b - a == 1 for a, b in zip(ms, ms[1:]))
            assert ms[0] > 0 >= ms[0] - 1
            orbit = disc.orbit(mu)
            assert orbit == disc.orbit(neg) and orbit in (mu, neg)
            assert disc.index(orbit) == min(disc.index(mu), disc.index(neg))

    def test_unimodular_trivial(self):
        for g in (U, E8):
            disc = discriminant_form(new_lattice(g))
            assert disc.size == 1
            assert disc.elements() == [()]
            assert disc.q_value(()) == 0

    def test_a1_minus(self):
        disc = discriminant_form(new_lattice(A1M))
        assert disc.orders == (2,)
        assert disc.q_value((1,)) == Fraction(3, 4)
        assert disc.q_value((0,)) == 0
        assert disc.order_of((1,)) == 2

    def test_d4(self):
        disc = discriminant_form(new_lattice(D4))
        assert disc.size == 4
        assert sorted(disc.orders) in ([2, 2], [4])
        # group must be (Z/2)^2: D4 discriminant form is 2-torsion
        assert all(disc.order_of(mu) in (1, 2) for mu in disc.elements())

    def test_cocycle(self):
        # the form's polarization against the lattice's own bilinear form on
        # dual representatives, for every pair, on L and on its negation
        grams = (direct_sum(A1M, [[4]]), D4,
                 random_conjugate(random.Random(3), direct_sum(A2, A2)),
                 direct_sum(E8, D4, A1M, A1M))
        for g in grams:
            form = discriminant_form(new_lattice(g))
            for disc in (form, form.negated()):
                lat, els = disc.lattice, disc.elements()
                for mu in els:
                    for nu in els:
                        b = disc.bilinear(mu, nu)
                        assert 0 <= b < 1
                        want = lat.bilinear(disc.vector(mu), disc.vector(nu))
                        assert (want - b).denominator == 1, (g, mu, nu)

    def test_size_matches_det(self):
        for g in (D4, A1, direct_sum(A1, A1M), direct_sum(U, [[6]])):
            lat = new_lattice(g)
            assert discriminant_form(lat).size == abs(lat.det)

    def test_size_mismatch_is_a_consistency_error(self, monkeypatch):
        # a wrong chain of invariant factors raises, also under python -O
        lat = new_lattice([[6, 1], [1, 12]])
        monkeypatch.setattr(linalg, "smith_normal_form",
                            lambda a, det: ([1, 1], linalg.identity(2)))
        with pytest.raises(ConsistencyError):
            discriminant_form(lat)

    def test_negated_built_once(self):
        for g in (D4, direct_sum(A1M, [[4]]), direct_sum(U, [[6]]),
                  [[2, 1, 0], [1, 2, 0], [0, 0, 4]]):
            lat = new_lattice(g)
            neg = lat.negated()
            fresh = new_lattice([[-x for x in row] for row in g])
            assert neg == fresh
            assert (neg.rank, neg.det, neg.sig_pos, neg.sig_neg, neg.level) == \
                (fresh.rank, fresh.det, fresh.sig_pos, fresh.sig_neg, fresh.level)
            assert lat.negated() is neg and neg.negated() is lat
            disc = discriminant_form(lat)
            dneg = disc.negated()
            assert dneg.lattice == fresh
            assert disc.negated() is dneg and dneg.negated() is disc

    def test_negated_shares_encoding(self):
        disc = discriminant_form(new_lattice(direct_sum(A1M, [[4]])))
        neg = disc.negated()
        assert neg.orders == disc.orders
        for mu in disc.elements():
            total = disc.q_value(mu) + neg.q_value(mu)
            assert total.denominator == 1

    @staticmethod
    def one_labelling_grams():
        """Random even Gram matrices of rank 1-6 and three GL_n(Z) conjugates
        of each benchmark base: on several of them the Smith normal forms of
        G and -G label the cosets differently."""
        rng = random.Random(0)
        grams = []
        while len(grams) < 300:
            n = rng.randint(1, 6)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            if ref_det(g):
                grams.append(g)
        rng = random.Random(22)
        for _, base in sorted(WORKLOADS.BASES.items()):
            grams += [WORKLOADS.conjugate(base, WORKLOADS.random_unimodular(
                rng, len(base))) for _ in range(3)]
        return grams

    def test_one_labelling_for_a_lattice_and_its_negation(self):
        for g in self.one_labelling_grams():
            lat = new_lattice(g)
            neg = new_lattice([[-x for x in row] for row in g])
            disc, dneg = discriminant_form(lat), discriminant_form(neg)
            assert (dneg.orders, dneg.gens) == (disc.negated().orders,
                                                disc.negated().gens), g
            assert discriminant_form(lat.negated()) is disc.negated()
            assert discriminant_form(neg.negated()) is dneg.negated()
            assert dneg.negated().negated() is dneg

    def test_computing_side_keeps_its_smith_generators(self):
        # the side with more positive directions, or on equal signature the
        # larger Gram matrix, takes the generators of its own Smith form
        for g in self.one_labelling_grams()[::7]:
            lat = new_lattice(g)
            neg = lat.negated()
            own = lat if (lat.sig_pos, lat.gram) > (neg.sig_pos, neg.gram) else neg
            diag, v = linalg.smith_normal_form([list(r) for r in own.gram], own.det)
            gens = tuple(tuple(Fraction(row[i] % d, d) for row in v)
                         for i, d in enumerate(diag) if d > 1)
            assert discriminant_form(own).gens == gens
            assert discriminant_form(own).lattice == own


class TestThetaCounts:
    def test_a1(self):
        counts = theta_counts(new_lattice(A1), 9)
        assert counts == {1: 2, 4: 2, 9: 2}

    def test_e8_roots(self):
        counts = theta_counts(new_lattice(E8), 2)
        assert counts[1] == 240
        assert counts[2] == 2160

    def test_d4(self):
        counts = theta_counts(new_lattice(D4), 2)
        assert counts[1] == 24
        assert counts[2] == 24


class TestCosetRepresents:
    def test_precondition(self):
        with pytest.raises(PreconditionError):
            coset_represents(new_lattice(U), Fraction(1, 2), ())

    def test_e8_roots_found(self):
        # Q = 1 is hit by any simple root, well inside radius 3
        assert coset_represents(new_lattice(E8), 1, (), radius=3) \
            is RepResult.REPRESENTED

    def test_definite_not_within_radius(self):
        # x^2 + y^2 = 3 has no solutions at any radius
        lat = new_lattice(direct_sum(A1, A1))
        zero = disc_zero(lat)
        assert coset_represents(lat, 3, zero) is RepResult.NOT_WITHIN_RADIUS
        assert coset_represents(lat, 2, zero) is RepResult.REPRESENTED

    def test_definite_wrong_sign(self):
        lat = new_lattice(A1)
        assert coset_represents(lat, -1, disc_zero(lat)) \
            is RepResult.NOT_REPRESENTED

    def test_rank3_box(self):
        lat = new_lattice(direct_sum(U, A1M))
        assert coset_represents(lat, 1, disc_zero(lat)) is RepResult.REPRESENTED

    def test_m_zero_definite(self):
        lat = new_lattice(direct_sum(A1, A1))
        assert coset_represents(lat, 0, disc_zero(lat)) is RepResult.REPRESENTED

    def test_rank_four_local_path_has_witnesses(self):
        # the local path decides indefinite rank 4 (Kneser for lattices; for
        # cosets only checked here): on random even indefinite 4 x 4 Gram
        # matrices with |det| <= 200, no NOT_REPRESENTED answer has a box
        # witness, and every REPRESENTED answer finds one as the radius
        # doubles up to 128 (on other seeds some witnesses lie past 64)
        rng = random.Random(4)
        answers = []
        while len(answers) < 120:
            # a third of the matrices are doubled, where the local conditions
            # at 2 rule out many values
            scale = rng.choice([1, 1, 2])
            a = 3 // scale
            g = [[scale * x for x in row] for row in even_symmetric(
                [[rng.randint(-a, a) for _ in range(4)] for _ in range(4)],
                [rng.randint(-a, a) for _ in range(4)])]
            try:
                lat = new_lattice(g)
            except Singular:
                continue
            if lat.is_definite or abs(lat.det) > 200:
                continue
            disc = discriminant_form(lat)
            els = disc.elements()
            for mu in els[:1] + rng.sample(els[1:], min(1, len(els) - 1)):
                coset = disc.coset(mu)
                for k in range(-3, 4):
                    m = disc.q_value(mu) + k
                    if m == 0:
                        continue
                    res = coset_represents(lat, m, mu)
                    if res is RepResult.NOT_REPRESENTED:
                        assert not lattice_mod._box_search(lat, *coset, m, 8), \
                            (g, m, mu)
                    else:
                        assert res is RepResult.REPRESENTED
                        radius = 2
                        while not lattice_mod._box_search(lat, *coset, m, radius):
                            radius *= 2
                            assert radius <= 128, (g, m, mu)
                    answers.append(res)
        assert answers.count(RepResult.NOT_REPRESENTED) >= 10


def three_squares(m):
    """Legendre: m = x^2 + y^2 + z^2 unless m = 4^a (8b + 7)."""
    while m % 4 == 0:
        m //= 4
    return m % 8 != 7


def loeschian(m):
    """m = x^2 - xy + y^2 exactly when every prime p = 2 mod 3 divides m to
    an even power."""
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if p % 3 == 2 and e % 2:
            return False
        p += 1
    return m % 3 != 2


class TestArithmeticOracle:
    """Certified searches on the zero coset against classical rules: Q on
    <2>^3 is a sum of three squares, Q on A2 the Loeschian form."""

    @pytest.mark.parametrize("gram, rule", [
        (direct_sum(A1, A1, A1), three_squares), (A2, loeschian)])
    def test_represents_exactly_by_the_rule(self, gram, rule):
        lat = new_lattice(gram)
        zero = disc_zero(lat)
        for m in range(1, 2001):
            want = RepResult.REPRESENTED if rule(m) else RepResult.NOT_WITHIN_RADIUS
            assert coset_represents(lat, m, zero) is want, m

    def test_rules_against_brute_force(self):
        for m in range(1, 200):
            r = math.isqrt(m)
            sq = {x * x + y * y + z * z for x, y, z in box(3, r)}
            ls = {x * x - x * y + y * y for x, y in box(2, 2 * r)}
            assert three_squares(m) == (m in sq), m
            assert loeschian(m) == (m in ls), m


def disc_zero(lat):
    return discriminant_form(lat).zero()


class TestTmu:
    def test_u_a1minus(self):
        # -Q(x,y,z) = z^2 - xy on U + <-2>; minimum 1 on the zero coset
        lat = new_lattice(direct_sum(U, A1M))
        disc = discriminant_form(lat)
        assert t_mu(lat, disc.zero()) == 1
        nonzero = [mu for mu in disc.elements() if mu != disc.zero()]
        assert len(nonzero) == 1
        assert t_mu(lat, nonzero[0]) == Fraction(1, 4)
        assert t_max(lat) == 1

    def test_sig_precondition(self):
        with pytest.raises(PreconditionError):
            t_mu(new_lattice(E8), ())

    def test_brute_force_agreement(self):
        # oracle: direct minimum of -Q over coset vectors of sup-norm <= 10
        lat = new_lattice(direct_sum(U, A1M))
        disc = discriminant_form(lat)
        for mu in disc.elements():
            vec = disc.vector(mu)
            best = None
            for x in range(-10, 11):
                for y in range(-10, 11):
                    for z in range(-10, 11):
                        lam = (x + vec[0], y + vec[1], z + vec[2])
                        val = -lat.q_value(lam)
                        if val > 0 and (best is None or val < best):
                            best = val
            assert t_mu(lat, mu) == best


class TestWittRank:
    def test_definite(self):
        rep = witt_rank_bounded(new_lattice(E8), 2)
        assert (rep.lower_bound, rep.exact) == (0, True)

    def test_u_plus_u(self):
        rep = witt_rank_bounded(new_lattice(direct_sum(U, U)), 2)
        assert (rep.lower_bound, rep.exact) == (2, True)

    def test_u(self):
        rep = witt_rank_bounded(new_lattice(U), 2)
        assert (rep.lower_bound, rep.exact) == (1, True)

    def test_anisotropic_inconclusive(self):
        # x^2 + y^2 = 3(z^2 + w^2) forces x,y,z,w = 0 by 3-adic descent
        lat = new_lattice(direct_sum(A1, A1, [[-6]], [[-6]]))
        rep = witt_rank_bounded(lat, 2)
        assert rep.lower_bound == 0
        assert not rep.exact


def random_conjugate(rng, g, moves=None):
    """U^T G U for a random U in GL_n(Z), a product of elementary column
    moves (3n of them unless ``moves`` says otherwise)."""
    n = len(g)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if moves is None else moves):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-1, 1))
        for row in u:
            row[j] += f * row[i]
    return mat_mul(mat_mul(transpose(u), g), u)


def box(n, radius):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def frac_isqrt(x):
    """floor(sqrt(x)) for a non-negative Fraction."""
    k = 0
    while (k + 1) ** 2 <= x:
        k += 1
    return k


def box_values(lat, shift, radius):
    """{Q(x + shift): smallest sup-norm of such an x} over the box, by q_value."""
    best = {}
    for x in box(lat.rank, radius):
        q = lat.q_value([a + s for a, s in zip(x, shift)])
        norm = max(map(abs, x), default=0)
        best[q] = min(best.get(q, norm), norm)
    return best


def box_isotropic(lat, radius):
    """Witt lower bound from the box by brute force: 1 for an isotropic
    vector, 2 for an orthogonal independent pair of them."""
    iso = [x for x in box(lat.rank, radius) if any(x) and lat.q_value(x) == 0]
    for v, w in itertools.combinations(iso, 2):
        if lat.bilinear(v, w) == 0 and any(
                v[i] * w[j] != v[j] * w[i] for i in range(len(v)) for j in range(i)):
            return 2
    return 1 if iso else 0


class TestEnumerator:
    """The one exact walk behind coset_represents, theta_counts and
    witt_rank_bounded, against test-local brute force over the box."""

    @pytest.mark.parametrize("gram", [
        direct_sum(U, A1), direct_sum(A1, A1, A1M), direct_sum(U, [[-4]]), U,
        direct_sum(U, U), [[2, 1, 0], [1, -2, 1], [0, 1, 4]],
        random_conjugate(random.Random(7), D4), random_conjugate(random.Random(8), A2),
        A1, A1M, A2, direct_sum(A1, A1, A1), [[2, 1], [1, -2]],
        random_conjugate(random.Random(71), A2),
        random_conjugate(random.Random(72), direct_sum(A1, A1, A1)),
        random_conjugate(random.Random(73), [[2, 1, 0], [1, -2, 1], [0, 1, 4]]),
        random_conjugate(random.Random(74), direct_sum(U, A1)),
    ])
    def test_every_solution_visited(self, gram):
        # the full solution set of the box, not just its existence: each
        # point the walk hands out has the value, and none is missed (on the
        # zero coset the walk covers a half-space and the search adds -x).
        # Up to rank 3 the radii reach 6 to 8: the closed-form coordinate's
        # discriminant is stepped along x_1 in differences, and a wrong step
        # only shows several points into a run.  Definite and indefinite
        # forms, a zero first diagonal entry (U + <2>, U + <-4>, U), every
        # coset
        lat = new_lattice(gram)
        disc = discriminant_form(lat)
        n, found = lat.rank, 0
        radii = (0, 1, 2, 6, 7, 8) if n <= 3 else (0, 1, 2)
        for mu in disc.elements():
            den, s = disc.coset(mu)
            # brute force in ints: z = den x + s has z^T G z = 2 den^2 Q
            values = {}
            for x in box(n, radii[-1]):
                z = [den * a + b for a, b in zip(x, s)]
                v = sum(gram[i][j] * z[i] * z[j] for i in range(n) for j in range(n))
                values.setdefault(v, []).append(x)
            for radius, k in itertools.product(radii, range(-3, 6)):
                m = disc.q_value(mu) + k
                want = {x for x in values.get(int(2 * den * den * m), ())
                        if max(map(abs, x)) <= radius}
                seen = []
                lattice_mod._box_search(lat, den, s, m, radius, visit=seen.append)
                assert len(seen) == len(set(seen)), (radius, mu, m)
                assert set(seen) == want, (radius, mu, m)
                found += len(want)
        assert found > 10

    def test_definite_cosets_against_box(self):
        rng = random.Random(20261019)
        cases = [(A2, 2, 3), ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2, 3),
                 (D4, 1, 2), (direct_sum(A2, A2), 1, 2)]
        checked = 0
        for base, copies, rmax in cases:
            for _ in range(copies):
                lat = new_lattice(random_conjugate(rng, base))
                disc = discriminant_form(lat)
                for mu in disc.elements():
                    best = box_values(lat, disc.vector(mu), rmax)
                    for k in range(4):
                        m = disc.q_value(mu) + k
                        if m == 0:
                            continue
                        for r in range(1, rmax + 1):
                            want = (RepResult.REPRESENTED if best.get(m, r + 1) <= r
                                    else RepResult.NOT_WITHIN_RADIUS)
                            assert coset_represents(lat, m, mu, radius=r) is want, \
                                (lat.gram, mu, m, r)
                            checked += 1
        assert checked > 300

    @pytest.mark.parametrize("gram", [
        direct_sum(A1, A1, A1M),  # <2> + <2> + <-2>
        direct_sum(U, A1),  # zero diagonal: the last coordinate is linear
    ])
    def test_indefinite_rank3_box(self, gram):
        lat = new_lattice(gram)
        disc = discriminant_form(lat)
        for mu in disc.elements():
            best = box_values(lat, disc.vector(mu), 3)
            for k in range(-3, 4):
                m = disc.q_value(mu) + k
                for r in (1, 2, 3):
                    want = (RepResult.REPRESENTED if best.get(m, r + 1) <= r
                            else RepResult.INCONCLUSIVE)
                    assert coset_represents(lat, m, mu, radius=r) is want, (mu, m, r)

    @pytest.mark.parametrize("gram", [
        random_conjugate(random.Random(9), D4), U, A1,
        [[2, 1, 0], [1, -2, 1], [0, 1, 4]],
    ])
    def test_zero_coset_walks_a_half_space(self, gram):
        # _walk itself on the zero coset: one visit for each pair {z, -z} of
        # the set it walks, and one for the origin when that is in the set
        lat = new_lattice(gram)
        sign, scale, _ = lattice_mod._frame(lat)
        radius, n = 2, lat.rank
        values = {x: sign * scale * lat.form(x, x) for x in box(n, radius)}
        for exact in (False, True):
            for limit in sorted(set(values.values())):
                seen = []

                def visit(z, v):
                    assert v == values[z]
                    seen.append(z)

                lattice_mod._walk(lat, [0] * n, 1, radius, limit, exact, visit)
                if exact:
                    want = {x for x, v in values.items() if v == limit}
                elif lat.is_definite:
                    want = {x for x, v in values.items() if v <= limit}
                else:  # an indefinite walk covers its box
                    want = set(values)
                assert len(seen) == len(set(seen)), (exact, limit)
                neg = {tuple(-a for a in z) for z in seen}
                assert set(seen) | neg == want, (exact, limit)
                assert set(seen) & neg == ({(0,) * n} & want), (exact, limit)

    @pytest.mark.parametrize("base, copies", [
        (A2, 3), (direct_sum(A2, A2), 2), ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2),
    ])
    def test_theta_counts_against_box(self, base, copies):
        rng = random.Random(f"theta:{base}")
        max_q = 3
        for _ in range(copies):
            lat = new_lattice(random_conjugate(rng, base, moves=len(base) + 1))
            inv = ref_inverse(lat.gram)
            # Q(x) <= max_q forces x_i^2 <= 2 max_q (G^-1)_ii
            radius = max(frac_isqrt(2 * max_q * inv[i][i]) for i in range(lat.rank))
            want = {}
            for x in box(lat.rank, radius):
                q = lat.q_value(x)
                if 0 < q <= max_q:
                    want[q] = want.get(q, 0) + 1
            for q in range(max_q + 1):
                assert theta_counts(lat, q) == {m: k for m, k in want.items() if m <= q}, \
                    (lat.gram, q)

    def test_theta_counts_e8_eisenstein(self):
        # Theta_E8 = E_4: 240 sigma_3(m) vectors of norm 2m
        assert theta_counts(new_lattice(E8), 4) == {
            m: 240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
            for m in range(1, 5)}

    def test_theta_counts_conjugate(self):
        # four moves keep the brute-force box small (radius 3 here)
        lat = new_lattice(random_conjugate(random.Random(1), D4, moves=4))
        inv = ref_inverse(lat.gram)
        # Q(x) <= 2 forces x_i^2 <= 4 (G^-1)_ii
        radius = max(frac_isqrt(4 * inv[i][i]) for i in range(4))
        want = {}
        for x in box(4, radius):
            q = lat.q_value(x)
            if 0 < q <= 2:
                want[q] = want.get(q, 0) + 1
        assert theta_counts(lat, 2) == want == {1: 24, 2: 24}

    @pytest.mark.parametrize("gram", [U, direct_sum(U, U), E8, direct_sum(U, A1, A1M)])
    def test_witt_against_box(self, gram):
        lat = new_lattice(gram)
        for r in (1, 2):
            rep = witt_rank_bounded(lat, r)
            if lat.is_definite:
                assert (rep.lower_bound, rep.exact) == (0, True)
                continue
            assert rep.lower_bound == box_isotropic(lat, r)
            assert rep.exact == (rep.lower_bound == min(lat.sig_pos, lat.sig_neg))

    def test_cap_boundary(self):
        # the cap counts the (2r + 1)^n points of the box, whatever the walk visits
        lat = new_lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        zero = disc_zero(lat)
        # Q = 4 needs sup-norm 2: (2, 0, 0)
        assert coset_represents(lat, 4, zero, radius=2, cap=125) is RepResult.REPRESENTED
        with pytest.raises(BudgetExceeded):
            coset_represents(lat, 4, zero, radius=2, cap=124)
        # the doubling stops before a box above the cap
        assert coset_represents(lat, 4, zero, cap=125) is RepResult.REPRESENTED
        assert coset_represents(lat, 4, zero, cap=124) is RepResult.NOT_WITHIN_RADIUS
        ind = new_lattice(direct_sum(U, A1M))
        assert coset_represents(ind, 1, disc_zero(ind), cap=21 ** 3) \
            is RepResult.REPRESENTED
        with pytest.raises(BudgetExceeded):
            coset_represents(ind, 1, disc_zero(ind), cap=21 ** 3 - 1)
        uu = new_lattice(direct_sum(U, U))
        assert witt_rank_bounded(uu, 2, cap=5 ** 4).lower_bound == 2
        assert witt_rank_bounded(uu, 2, cap=5 ** 4 - 1).lower_bound == 0

    def test_one_walk_to_the_widest_box(self):
        # without a radius the search is one walk at the largest r with
        # (2r + 1)^rank <= cap: on A1 the cap 7 allows r = 3, where x = 3
        # has Q = 9 (radii 1, 2, 4, ... would stop at 2)
        lat = new_lattice(A1)
        zero = disc_zero(lat)
        assert coset_represents(lat, 9, zero, cap=7) is RepResult.REPRESENTED
        assert coset_represents(lat, 9, zero, cap=6) is RepResult.NOT_WITHIN_RADIUS
        assert coset_represents(lat, 16, zero, cap=9) is RepResult.REPRESENTED
        # a cap below one point walks nothing
        assert coset_represents(lat, 1, zero, cap=0) is RepResult.NOT_WITHIN_RADIUS
        assert coset_represents(lat, 1, zero, cap=1) is RepResult.NOT_WITHIN_RADIUS
