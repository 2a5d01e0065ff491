"""Cyclotomic arithmetic and Weil representation matrices."""

import dataclasses
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vveis import acceptance, linalg, weilrep
from vveis.acceptance import D4, E8, U, direct_sum
from vveis.errors import PreconditionError
from vveis.lattice import discriminant_form, new_lattice
from vveis.weilrep import (
    Cyclotomic,
    WeilMatrices,
    invariants,
    is_unitary,
    sqrt_int,
    verify_relations,
    weil_matrices,
)


def mat_mul_cyc(a, b):
    """The dense product of two square matrices of Cyclotomic entries."""
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                           Cyclotomic(a[0][0].order))
                       for j in range(n)) for i in range(n))


def reference_relations(w):
    """The relations by eight dense products: S^4 = (-1)^(b^- - b^+) I,
    (ST)^3 = S^2, S^2 a phase times the flip, and S^2 commuting with S and T."""
    els = w.disc.elements()
    n = len(els)
    zero = Cyclotomic(w.order)
    mul = mat_mul_cyc

    def equal(a, b):
        return all((a[i][j] - b[i][j]).is_zero() for i in range(n) for j in range(n))

    s2 = mul(w.s_mat, w.s_mat)
    sign = (-1) ** ((w.sig_neg - w.sig_pos) % 2)
    scalar = tuple(tuple(zero + (sign if i == j else 0) for j in range(n))
                   for i in range(n))
    if not equal(mul(s2, s2), scalar):
        return False
    st = tuple(tuple(w.s_mat[i][j] * w.t_mat[j] for j in range(n)) for i in range(n))
    if not equal(mul(mul(st, st), st), s2):
        return False
    idx = {mu: i for i, mu in enumerate(els)}
    phase = s2[0][0]
    for i in range(n):
        for j, nu in enumerate(els):
            want = phase if idx[w.disc.neg(nu)] == i else zero
            if not (s2[i][j] - want).is_zero():
                return False
    t = tuple(tuple(w.t_mat[i] if i == j else zero for j in range(n)) for i in range(n))
    return all(equal(mul(s2, g), mul(g, s2)) for g in (w.s_mat, t))


def perturbations(w, rng):
    """(name, WeilMatrices) pairs: w itself and six kinds of damage to its
    module (t, c) or its signature."""
    m = w.order
    t = list(w.t)
    i, r = rng.randrange(len(t)), rng.randrange(1, m)
    t[i] += r
    zeta = Cyclotomic.root(m, rng.randrange(1, m))
    return [
        ("none", w),
        ("t_entry", dataclasses.replace(w, t=tuple(t))),
        ("t_conj", dataclasses.replace(w, t=tuple(-x % m for x in w.t))),
        # the complex conjugate representation: T and S both conjugated
        ("conj", dataclasses.replace(w, t=tuple(-x % m for x in w.t), c=w.c.conj())),
        ("c_rotated", dataclasses.replace(w, c=w.c * zeta)),
        ("sig_neg", dataclasses.replace(w, sig_neg=w.sig_neg + 1)),
    ]


def reference_unitary(w):
    """S * conj(S)^T = I by one dense product."""
    n = len(w.s_mat)
    sc = tuple(tuple(w.s_mat[j][i].conj() for j in range(n)) for i in range(n))
    prod = mat_mul_cyc(w.s_mat, sc)
    return all((prod[i][j] - (1 if i == j else 0)).is_zero()
               for i in range(n) for j in range(n))


def rref(m):
    """Reduced row echelon form over Q.  Returns (rows, pivot_columns)."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        support = [(j, y) for j, y in enumerate(a[r]) if y]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f, row = a[i][c], a[i]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def kernel(m):
    """Basis of the rational right kernel {x : m x = 0}, one vector per free
    column with 1 there: the reduced row echelon basis."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = rref(m)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def reference_invariants(w):
    """The invariant basis from the full system: every T row and every
    S - I row, over all |L'/L| coordinates."""
    n = len(w.t_mat)
    one, zero = Cyclotomic.from_rational(1, w.order), Cyclotomic(w.order)
    rows = []
    eqs = [[(w.t_mat[i] - one) if j == i else zero for j in range(n)]
           for i in range(n)]
    eqs += [[w.s_mat[i][j] - (one if i == j else zero) for j in range(n)]
            for i in range(n)]
    for eq in eqs:
        canons = [e.canonical() for e in eq]
        for key in sorted(set().union(*canons)):
            rows.append([c.get(key, Fraction(0)) for c in canons])
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    out = []
    for vec in kernel(rows):
        den = lcm(*[f.denominator for f in vec])
        ints = [int(f * den) for f in vec]
        g = gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        out.append(tuple(Fraction(x, g) for x in ints))
    return out


def module_damages(w):
    """(name, WeilMatrices) pairs beyond ``perturbations``, each aimed at one
    check of ``weilrep._form`` or of the decisions after it."""
    n, m = len(w.t), w.order
    disc = w.disc
    els = disc.elements()
    # the Weil module, S scaled off unitarity
    out = [("c_doubled", dataclasses.replace(w, c=w.c * 2))]
    if n > 1:
        # the zero form, which is degenerate
        out.append(("zero_form", dataclasses.replace(w, t=(0,) * n)))
        # t changed at one pair +-mu: B is not bilinear
        bent = list(w.t)
        for k in {1, disc.negs[1]}:
            bent[k] += 1
        out.append(("t_not_bilinear", dataclasses.replace(w, t=tuple(bent))))
    for k, d in enumerate(disc.orders):
        if d > 2:
            # t plus a character of order d: B is unchanged, t_-mu != t_mu
            out.append(("t_plus_character", dataclasses.replace(
                w, t=tuple(x + mu[k] * (m // d) for x, mu in zip(w.t, els)))))
            break
    for i, mu in enumerate(els):
        if i and disc.neg(mu) == mu and w.t[i]:
            # t relabelled 0 <-> mu: t_0 != 0
            t = list(w.t)
            t[0], t[i] = t[i], t[0]
            out.append(("relabelled", dataclasses.replace(w, t=tuple(t))))
            break
    return out


VANISHING_ORDERS = (3, 4, 6, 8, 12, 24, 40, 60)
SMALL = st.fractions(-3, 3, max_denominator=4)


def _vanishing(order, data):
    """sum_k zeta^(r + k order/p) over k < p, for a drawn prime p | order:
    zero, written with p nonzero coefficients."""
    p = data.draw(st.sampled_from([p for p in (2, 3, 5) if order % p == 0]))
    r = data.draw(st.integers(0, order - 1))
    return Cyclotomic(order, {r + k * order // p: 1 for k in range(p)})


class TestCyclotomic:
    def test_ring_identities(self):
        z = Cyclotomic.root(12)
        assert (z ** 0 if False else Cyclotomic.from_rational(1, 12)) == 1
        assert z * z * z * z * z * z * z * z * z * z * z * z == 1
        # zeta_12^4 is a primitive cube root: 1 + w + w^2 = 0
        w = Cyclotomic.root(12, 4)
        assert (1 + w + w * w).is_zero()

    def test_minimal_polynomial_relations(self):
        # 8th roots: zeta^4 = -1
        z = Cyclotomic.root(8)
        assert z * z * z * z == Cyclotomic.from_rational(-1, 8)
        # 9th roots: zeta^6 + zeta^3 + 1 = 0
        z9 = Cyclotomic.root(9)
        s = Cyclotomic.from_rational(1, 9) + Cyclotomic.root(9, 3) + Cyclotomic.root(9, 6)
        assert s.is_zero()
        assert not (s + 1).is_zero()

    def test_conj(self):
        z = Cyclotomic.root(8)
        x = z + 2 * z * z
        assert (x * x.conj()).is_rational() is False  # (z+2z^2)(conj) has cross terms
        y = z + z.conj()
        assert (y * y).rational_value() == 2  # y = sqrt(2)

    def test_rational_detection(self):
        # sum of all p-th roots of unity is 0; partial sum is not rational
        z = Cyclotomic.root(5)
        total = sum((Cyclotomic.root(5, k) for k in range(1, 5)), Cyclotomic(5))
        assert total.rational_value() == -1
        with pytest.raises(Exception):
            (z + 1).rational_value()

    def test_e(self):
        assert Cyclotomic.e(Fraction(3, 4), 8) == Cyclotomic.root(8, 6)
        with pytest.raises(PreconditionError):
            Cyclotomic.e(Fraction(1, 3), 8)

    def test_hash_agrees_with_eq(self):
        # equal elements hash equally, a rational one as its Fraction
        three = Cyclotomic.from_rational(3, 4)
        assert three == 3 and hash(three) == hash(3) and three in {3}
        z = Cyclotomic.root(4)
        assert z * z == -1 and hash(z * z) == hash(Cyclotomic.from_rational(-1, 4))
        assert Cyclotomic.from_rational(Fraction(1, 2), 4) in {Fraction(1, 2)}
        assert len({z, z * z * z * z * z, Cyclotomic.root(4, 3)}) == 2

    @given(st.sampled_from(VANISHING_ORDERS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_elements_hash_equally(self, order, data):
        x = Cyclotomic(order, data.draw(
            st.dictionaries(st.integers(0, order - 1), SMALL, max_size=4)))
        y = x + data.draw(SMALL) * _vanishing(order, data)
        assert x == y and hash(x) == hash(y)
        assert 3 - x == -(x - 3)

    @given(st.sampled_from(VANISHING_ORDERS), SMALL, st.data())
    @settings(max_examples=100, deadline=None)
    def test_rational_element_hashes_as_its_fraction(self, order, f, data):
        x = f + data.draw(SMALL) * _vanishing(order, data)
        assert x == f and hash(x) == hash(f)

    def test_rsub(self):
        z = Cyclotomic.root(4)
        diff = 1 - z
        assert isinstance(diff, Cyclotomic)
        assert diff == Cyclotomic.from_rational(1, 4) - z
        assert (diff * diff.conj()).rational_value() == 2  # |1 - i|^2

    def test_sqrt(self):
        for d, order in ((2, 8), (3, 24), (5, 40), (12, 24), (16, 8), (15, 120)):
            s = sqrt_int(d, order)
            assert (s * s).rational_value() == d


class TestWeilMatrices:
    def test_trivial_disc_sig0(self):
        w = weil_matrices(discriminant_form(new_lattice(E8)))
        assert w.s_mat[0][0].rational_value() == 1
        assert w.t_mat[0].rational_value() == 1

    def test_a1_minus_t(self):
        w = weil_matrices(discriminant_form(new_lattice([[-2]])))
        assert w.t_mat[0] == 1
        assert w.t_mat[1] == Cyclotomic.e(Fraction(3, 4), w.order)

    def test_s_symmetric(self):
        lat = new_lattice(direct_sum([[-2]], [[-2]]))
        w = weil_matrices(discriminant_form(lat))
        n = len(w.s_mat)
        for i in range(n):
            for j in range(n):
                assert (w.s_mat[i][j] - w.s_mat[j][i]).is_zero()

    def test_relations_battery(self):
        grams = [
            [[2]], [[-2]], [[4]], [[-4]], [[6]], [[2, 1], [1, 2]],
            U, E8, D4,
            direct_sum([[2]], [[-2]]),
            direct_sum([[-2]], [[-2]]),
            direct_sum(U, [[-2]]),
            direct_sum(D4, [[2]]),
            [[8]], [[-8]], [[12]], [[2, 1], [1, -2]],
            direct_sum([[2]], [[6]]),
            direct_sum(*[[[2]]] * 5),  # |L'/L| = 32
        ]
        for g in grams:
            w = weil_matrices(discriminant_form(new_lattice(g)))
            assert verify_relations(w), g
            assert is_unitary(w), g

    def test_negative_control(self):
        w = weil_matrices(discriminant_form(new_lattice([[-2]])))
        bad = WeilMatrices(w.disc, w.sig_pos, w.sig_neg, w.order,
                           (w.t[0], w.t[1] + 1), w.c)
        # B(1, .) is no character, so t is not a quadratic form: neither
        # check can answer with a boolean, and both refuse the input
        assert not reference_relations(bad)
        with pytest.raises(PreconditionError, match="not the Weil matrices"):
            verify_relations(bad)
        with pytest.raises(PreconditionError, match="not the Weil matrices"):
            is_unitary(bad)

    def test_matches_eight_product_reference(self):
        grams = [
            [[2]], [[-2]], [[4]], [[6]], [[-8]], [[2, -1], [-1, 2]], D4,
            [[2, 1], [1, -2]], direct_sum([[2]], [[-2]]),
            direct_sum([[-2]], [[-2]], [[2]], [[2]]),
        ]
        rng = random.Random(11)
        seen = {}
        for g in grams:
            w = weil_matrices(discriminant_form(new_lattice(g)))
            for name, bad in perturbations(w, rng):
                try:
                    got = verify_relations(bad)
                except PreconditionError:
                    seen.setdefault("raised", set()).add(name)
                    continue
                assert got == reference_relations(bad), (g, name)
                seen.setdefault(got, set()).add(name)
        # the undamaged inputs hold, and so does some damage that keeps a
        # quadratic module (a conjugation on small forms); other such damage
        # fails, and a t that is no quadratic form is refused
        assert "none" in seen[True] and len(seen[True]) > 1, seen
        assert seen[False] and "none" not in seen["raised"], seen
        assert "t_entry" in seen["raised"], seen

    def test_module_path_matches_dense_references(self, monkeypatch):
        grams = [
            [[2]], [[-2]], [[6]], [[2, -1], [-1, 2]], D4, [[-8]],
            direct_sum([[4]], [[-2]]),
        ]
        paths = []
        inner = weilrep._form

        def spy(w):
            try:
                form = inner(w)
            except PreconditionError:
                paths.append("refused")
                raise
            paths.append("module")
            return form

        monkeypatch.setattr(weilrep, "_form", spy)
        rng = random.Random(13)
        seen = {"relations": set(), "unitary": set()}

        def decide(check, bad):
            try:
                got = check(bad)
            except PreconditionError:
                got = None
            return paths.pop(), got

        for g in grams:
            w = weil_matrices(discriminant_form(new_lattice(g)))
            damaged = perturbations(w, rng) + module_damages(w)
            for name, bad in damaged:
                (path, relations), (upath, unitary) = (
                    decide(verify_relations, bad), decide(is_unitary, bad))
                assert path == upath and not paths
                if path == "module":
                    assert relations == reference_relations(bad), (g, name)
                    assert unitary == reference_unitary(bad), (g, name)
                else:
                    assert relations is None and unitary is None, (g, name)
                seen["relations"].add((path, relations))
                seen["unitary"].add((path, unitary))
                if name in ("c_doubled", "zero_form"):
                    assert path == "module" and not unitary, (g, name)
                elif name in ("t_not_bilinear", "t_plus_character", "relabelled"):
                    assert path == "refused", (g, name)
        both = {("module", True), ("module", False), ("refused", None)}
        assert seen["relations"] == both, seen
        assert seen["unitary"] == both, seen

    def test_invariants_expand_each_entry_once(self, monkeypatch):
        calls = []
        inner = Cyclotomic.canonical

        def counting(self):
            calls.append(self)
            return inner(self)

        monkeypatch.setattr(Cyclotomic, "canonical", counting)
        for g in (D4, direct_sum([[2]], [[-2]], [[2]]), direct_sum([[8]], [[-8]]),
                  direct_sum(*[[[2]]] * 6, [[-2]], [[-2]])):
            w = weil_matrices(discriminant_form(new_lattice(g)))
            n, one = len(w.t), Cyclotomic.from_rational(1, w.order)
            cols = [j for j in range(n) if w.t_mat[j] == one]
            distinct = {(w.s_entry(i, j), i == j) for i in range(n) for j in cols}
            calls.clear()
            invariants(w)
            assert len(calls) <= len(distinct) <= 2 * w.order, g
        assert "s_mat" not in w.__dict__

    def test_milgram(self):
        # sum_gamma e(Q(gamma)) = sqrt|L'/L| e((b^+ - b^-)/8)
        grams = [[[6]], [[2, -1], [-1, 2]], [[10]],
                 direct_sum([[2]], [[2]], [[2]], [[6]]), acceptance.FIXTURE_GRAM]
        for g in grams:
            lat = new_lattice(g)
            disc = discriminant_form(lat)
            order = weil_matrices(disc).order
            gauss = sum((Cyclotomic.e(disc.q_value(mu), order) for mu in disc.elements()),
                        Cyclotomic(order))
            want = (sqrt_int(disc.size, order)
                    * Cyclotomic.e(Fraction(lat.sig_pos - lat.sig_neg, 8) % 1, order))
            assert (gauss - want).is_zero(), g

    def test_large_disc(self):
        # |L'/L| = 256: the module path decides without a matrix product
        lat = new_lattice(direct_sum(*[[[2]]] * 6, [[-2]], [[-2]]))
        w = weil_matrices(discriminant_form(lat))
        assert verify_relations(w)
        assert is_unitary(w)
        basis = invariants(w)
        assert basis
        n = len(w.t_mat)
        for vec in basis:
            support = [j for j in range(n) if vec[j]]
            for i in range(n):
                if vec[i]:
                    assert (w.t_mat[i] - 1).is_zero()
                sv = sum((w.s_mat[i][j] * vec[j] for j in support), Cyclotomic(w.order))
                assert (sv - vec[i]).is_zero()

    def test_checks_build_no_dense_matrix(self):
        # |L'/L| = 2048: the checks read the module (t, c), and neither
        # dense view (4M entries of S) is built on the way
        w = weil_matrices(discriminant_form(new_lattice(direct_sum([[2048]], U, U))))
        assert len(w.t) == 2048
        assert verify_relations(w)
        assert is_unitary(w)
        assert invariants(w) == []
        assert "s_mat" not in w.__dict__ and "t_mat" not in w.__dict__


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def rational_systems(draw):
    """(width, rows): a random rational matrix with some of its rows
    repeated, scaled or replaced by zero rows."""
    width = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(fractions, min_size=width, max_size=width),
                         max_size=7))
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(["zero", "dup"]),
                                            st.integers(0, 7)), max_size=3)):
        if kind == "zero":
            rows.insert(at, [Fraction(0)] * width)
        elif rows:
            scale = draw(st.sampled_from([1, -1, 3, Fraction(-1, 2)]))
            rows.insert(at, [scale * x for x in rows[at % len(rows)]])
    return width, rows


class TestEchelon:
    """``linalg.Echelon`` against the Fraction reduced row echelon form."""

    @settings(max_examples=150, deadline=None)
    @given(rational_systems())
    @example((0, []))
    @example((0, [[], []]))
    @example((3, []))
    @example((3, [[1, 2, 3], [0, 1, 4], [5, 6, 0]]))  # full rank
    @example((4, [[Fraction(1, 2), 1, 0, 2], [1, 2, 0, 4], [0, 0, 0, 0]]))
    def test_rank_and_kernel_match_rref(self, system):
        width, rows = system
        ech = linalg.Echelon(width)
        for row in rows:
            ech.add(row)
        assert ech.rank == len(rref(rows)[1])
        ref = kernel(rows) if rows else [
            [Fraction(int(i == j)) for j in range(width)] for i in range(width)]
        got = ech.kernel()
        assert len(got) == len(ref)
        for vec, want in zip(got, ref):
            assert all(isinstance(x, int) for x in vec)
            assert gcd(*vec) == 1
            # a positive multiple of the reference vector, which is 1 at its
            # free column
            scale = next(x for x, y in zip(vec, want) if y == 1)
            assert scale > 0 and vec == [scale * y for y in want]

    @settings(max_examples=100, deadline=None)
    @given(rational_systems())
    def test_tail_records_the_combination(self, system):
        # an identity tail makes each vanishing row a dependency among the
        # rows added so far, with a nonzero coefficient on the row itself
        width, rows = system
        ech = linalg.Echelon(width)
        n = len(rows)
        for k, row in enumerate(rows):
            tail = ech.add(list(row) + [int(i == k) for i in range(n)])
            if tail is None:
                continue
            combo = tail[width:]
            assert all(x == 0 for x in tail[:width])
            assert combo[k] != 0 and not any(combo[k + 1:])
            for j in range(width):
                assert sum(c * r[j] for c, r in zip(combo, rows)) == 0
        assert ech.rank == len(rref(rows)[1])


class TestInvariants:
    def test_trivial_sig0(self):
        w = weil_matrices(discriminant_form(new_lattice(E8)))
        assert invariants(w) == [(Fraction(1),)]

    def test_hyperbolic_style_disc(self):
        # <2> + <-2>: isotropic diagonal subgroup gives the invariant vector
        lat = new_lattice(direct_sum([[2]], [[-2]]))
        disc = discriminant_form(lat)
        w = weil_matrices(disc)
        basis = invariants(w)
        assert len(basis) == 1
        vec = basis[0]
        els = disc.elements()
        for mu, c in zip(els, vec):
            expect = 1 if disc.q_value(mu) == 0 else 0
            assert c == expect

    def test_empty(self):
        lat = new_lattice(direct_sum([[-2]], [[-2]]))
        w = weil_matrices(discriminant_form(lat))
        assert invariants(w) == []

    def test_matches_full_system(self):
        grams = [
            [[2]], [[-2]], [[4]], [[-8]], E8, D4, direct_sum(U, U),
            direct_sum([[2]], [[-2]]), direct_sum([[4]], [[-4]]),
            direct_sum([[2]], [[2]], [[-2]], [[-2]]),  # kernel of dimension 2
            direct_sum([[2]], [[6]]), direct_sum([[2]], [[2]], [[2]], [[6]]),
            direct_sum(*[[[2]]] * 5), direct_sum([[-2]], [[-2]], [[2]], [[2]], [[2]]),
            direct_sum([[8]], [[-8]]),  # |L'/L| = 64, kernel of dimension 3
            direct_sum(*[[[2]]] * 6, [[-2]], [[-2]]),  # |L'/L| = 256, dimension 7
        ]
        dims = []
        for g in grams:
            w = weil_matrices(discriminant_form(new_lattice(g)))
            got = invariants(w)
            assert got == reference_invariants(w), g
            dims.append(len(got))
        assert dims[9] == 2 and dims[-2] == 3 and dims[-1] == 7, dims

    def test_invariants_are_fixed(self):
        for g in (direct_sum([[2]], [[-2]]), direct_sum(U, U), D4):
            disc = discriminant_form(new_lattice(g))
            w = weil_matrices(disc)
            for vec in invariants(w):
                n = len(vec)
                tv = [w.t_mat[i] * vec[i] for i in range(n)]
                sv = [sum((w.s_mat[i][j] * vec[j] for j in range(n)),
                          Cyclotomic(w.order)) for i in range(n)]
                for i in range(n):
                    assert (tv[i] - vec[i]).is_zero()
                    assert (sv[i] - vec[i]).is_zero()
