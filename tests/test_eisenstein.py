"""Eisenstein coefficients against theta-series oracles.

Every frozen count below comes from one of two independent sources, both
computed before the assembly code was trusted: classical divisor-sum
identities (E8: 240 sigma_3) or direct enumeration of dual-coset vectors
with a Cholesky-bounded recursive search.  Single-class genera only, so
theta equals the Eisenstein series exactly and the comparison is integer
against Fraction.
"""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from vveis import arith, eisenstein, repnums
from vveis.acceptance import D4, D5, E7, E8, U, diag, direct_sum
from vveis.eisenstein import (
    context,
    eis_coefficient,
    eis_expansion,
    lower_bound_report,
)
from vveis.errors import (
    BudgetExceeded,
    ConsistencyError,
    KappaTooSmall,
    NonRationalResidue,
    NotAdmissible,
    ParityMismatch,
    PreconditionError,
)
from vveis.lattice import discriminant_form, new_lattice

D6 = [
    [2, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, 0],
    [0, 0, -1, 2, -1, -1],
    [0, 0, 0, -1, 2, 0],
    [0, 0, 0, -1, 0, 2],
]


FIXTURE = direct_sum(E8, D4, [[-2]], [[-2]])

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)


def seeded_conjugate(name):
    """A GL_n(Z) conjugate of a perfbench base lattice, seeded by its name."""
    base = WORKLOADS.BASES[name]
    rng = random.Random(f"assembly:{name}")
    return WORKLOADS.conjugate(base, WORKLOADS.random_unimodular(rng, len(base)))


def sigma3(m):
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def ref_local_product(ctx, m, mu):
    """Reference: prod N / p^((2k-1)w), and in odd rank divided by
    1 - p^(1-2k), taken factor by factor in Fractions."""
    odd = ctx.kappa.denominator == 2
    want = Fraction(1)
    for p, w, n in repnums.local_counts(ctx.lattice, m, mu):
        want *= Fraction(n, p ** ((2 * ctx.kappa - 1) * w))
        if odd:
            want /= 1 - Fraction(p) ** (1 - 2 * ctx.kappa)
    return want


def ref_eis_coefficient(ctx, m, mu):
    """Reference: the Bruinier-Kuss assembly in Fractions, factor by factor:
    scale m^(k-1) sigma_{1-k}(m d_mu^2, chi) times the local product in even
    rank; in odd rank the Moebius sum with its d^-j, the local product and
    m^(j-1) r sqrt(2 m q / |det|)."""
    m = Fraction(m)
    n = arith.exact_int(m * ctx.disc.order_of(mu) ** 2)
    if ctx.kappa.denominator == 1:
        kappa = int(ctx.kappa)
        return (ctx.scale * m ** (kappa - 1) * arith.sigma(1 - kappa, n, ctx.chi)
                * ref_local_product(ctx, m, mu))
    j = ctx.lattice.rank // 2
    m0, f = eisenstein._split_square(ctx, n)
    chi = arith.QuadraticCharacter(2 * (-1) ** ((ctx.lattice.rank + 3) // 2) * m0
                                   * ctx.lattice.det)
    mob = Fraction(0)
    for d in arith.divisors(f):
        if md := arith.moebius(d):
            mob += md * chi(d) * Fraction(d) ** (-j) * arith.sigma(1 - 2 * j, f // d)
    rational_part = mob * ref_local_product(ctx, m, mu)
    if rational_part == 0:
        return Fraction(0)
    r, q = arith.l_value_exact(j, chi)
    return (ctx.scale * m ** (j - 1) * rational_part * r
            * eisenstein._sqrt_exact(2 * m * q / abs(ctx.lattice.det)))


class TestEvenRank:
    def test_e8_divisor_sum(self):
        lat = new_lattice(E8)
        ctx = context(lat)
        for m in range(1, 9):
            assert eis_coefficient(lat, m, (), ctx=ctx) == 240 * sigma3(m)

    def test_d6_all_cosets(self):
        # dual-coset enumeration, kappa = 3
        frozen = {
            (0, 0): [(1, 60), (2, 252), (3, 544)],
            (0, 1): [(Fraction(3, 4), 32), (Fraction(7, 4), 192),
                     (Fraction(11, 4), 480)],
            (1, 0): [(Fraction(1, 2), 12), (Fraction(3, 2), 160),
                     (Fraction(5, 2), 312)],
            (1, 1): [(Fraction(3, 4), 32), (Fraction(7, 4), 192),
                     (Fraction(11, 4), 480)],
        }
        lat = new_lattice(D6)
        ctx = context(lat)
        for mu, rows in frozen.items():
            for m, r in rows:
                assert eis_coefficient(lat, m, mu, ctx=ctx) == r

    def test_sum_of_four_squares_boundary(self):
        # kappa = 2: the boundary weight still matches the classical counts
        lat = new_lattice(diag([2, 2, 2, 2]))
        ctx = context(lat)
        assert ctx.hecke_boundary
        for m, r in enumerate([8, 24, 32, 24, 48, 96], start=1):
            assert eis_coefficient(lat, m, ctx.disc.zero(), ctx=ctx) == r
        mu = next(x for x in ctx.disc.elements() if x != ctx.disc.zero())
        q0 = ctx.disc.q_value(mu)
        for k, r in enumerate([2, 12, 26, 28]):
            assert eis_coefficient(lat, q0 + k, mu, ctx=ctx) == r

    def test_signature_12_2_sign_and_rationality(self):
        lat = new_lattice(FIXTURE)
        ctx = context(lat)
        assert ctx.kappa == 7
        cosets = ctx.disc.elements()[:3]
        for mu in cosets:
            base = ctx.disc.q_value(mu)
            m = base if base else Fraction(1)
            for _ in range(2):
                e = eis_coefficient(lat, m, mu, ctx=ctx)
                assert isinstance(e, Fraction)
                # b- = 2 flips the positivity direction
                assert e < 0
                m += 1


class TestOddRank:
    def test_d5_all_cosets(self):
        frozen = {
            (0,): [(1, 40), (2, 90), (3, 240), (4, 200), (5, 560),
                   (6, 400), (7, 800), (8, 730), (9, 1240), (10, 752)],
            (1,): [(Fraction(5, 8), 16), (Fraction(13, 8), 80),
                   (Fraction(21, 8), 160), (Fraction(29, 8), 240)],
            (2,): [(Fraction(1, 2), 10), (Fraction(3, 2), 80),
                   (Fraction(5, 2), 112), (Fraction(7, 2), 320)],
            (3,): [(Fraction(5, 8), 16), (Fraction(13, 8), 80),
                   (Fraction(21, 8), 160), (Fraction(29, 8), 240)],
        }
        lat = new_lattice(D5)
        ctx = context(lat)
        for mu, rows in frozen.items():
            for m, r in rows:
                assert eis_coefficient(lat, m, mu, ctx=ctx) == r

    def test_e7_both_cosets(self):
        frozen = {
            (0,): [(1, 126), (2, 756), (3, 2072)],
            (1,): [(Fraction(3, 4), 56), (Fraction(7, 4), 576),
                   (Fraction(11, 4), 1512)],
        }
        lat = new_lattice(E7)
        ctx = context(lat)
        for mu, rows in frozen.items():
            for m, r in rows:
                assert eis_coefficient(lat, m, mu, ctx=ctx) == r

    def test_five_squares(self):
        lat = new_lattice(diag([2, 2, 2, 2, 2]))
        ctx = context(lat)
        for m, r in enumerate([10, 40, 80, 90, 112, 240, 320, 200], start=1):
            assert eis_coefficient(lat, m, ctx.disc.zero(), ctx=ctx) == r

    def test_extended_space_discriminant_sign(self):
        # the character lives on the discriminant of the space extended
        # by <-m>; the opposite sign choice would give 48.82... here
        lat = new_lattice(D5)
        assert eis_coefficient(lat, 1, (0,)) == 40

    def test_parity_mismatch_is_consistency_error(self, monkeypatch):
        # the odd-rank character always has the parity of kappa - 1/2, so a
        # mismatch is a broken invariant (exit 4), not a precondition
        def raise_parity(s, chi):
            raise ParityMismatch("forced")

        monkeypatch.setattr(eisenstein, "l_value_exact", raise_parity)
        with pytest.raises(ConsistencyError):
            eis_coefficient(new_lattice(D5), 1, (0,))

    def test_moebius_term_with_odd_square_part(self):
        # m = 9 has f = 3 coprime to 2N: the divisor-sum correction is live
        lat = new_lattice(D5)
        assert eis_coefficient(lat, 9, (0,)) == 1240


class TestGeneralBehavior:
    def test_wrong_conductor_is_nonrational_residue(self, monkeypatch):
        # an L-value with sqrt(3q) for sqrt(q) leaves a radical: the exact
        # square root rejects it in the even-rank scale and in each
        # odd-rank coefficient
        exact = arith.l_value_exact

        def wrong_conductor(s, chi):
            r, q = exact(s, chi)
            return r, 3 * q

        monkeypatch.setattr(arith, "l_value_exact", wrong_conductor)
        monkeypatch.setattr(eisenstein, "l_value_exact", wrong_conductor)
        with pytest.raises(NonRationalResidue):
            context(new_lattice(direct_sum(E8, D4)))
        with pytest.raises(NonRationalResidue):
            eis_coefficient(new_lattice(D5), 1, (0,))

    def test_constant_term(self):
        lat = new_lattice(D5)
        disc = discriminant_form(lat)
        assert eis_coefficient(lat, 0, disc.zero()) == 1
        # m = 0 on a coset with q = 0 would be the only other legal case;
        # D5 has none, so the congruence guard fires instead
        with pytest.raises(PreconditionError):
            eis_coefficient(lat, 0, (1,))

    def test_congruence_guard(self):
        lat = new_lattice(D5)
        with pytest.raises(PreconditionError):
            eis_coefficient(lat, Fraction(1, 2), (1,))
        with pytest.raises(PreconditionError):
            eis_coefficient(lat, -1, (0,))

    def test_mu_negation_symmetry(self):
        for gram in (D5, D6):
            lat = new_lattice(gram)
            ctx = context(lat)
            for mu in ctx.disc.elements():
                neg = ctx.disc.neg(mu)
                m = ctx.disc.q_value(mu) + 1
                assert (eis_coefficient(lat, m, mu, ctx=ctx)
                        == eis_coefficient(lat, m, neg, ctx=ctx))

    @pytest.mark.parametrize("gram", [D5, D6, E7, direct_sum(U, U, [[6]]),
                                      direct_sum(U, U, [[6]], [[10]]), FIXTURE,
                                      seeded_conjugate("A2^3"),
                                      seeded_conjugate("U+U+A2+<2>")])
    def test_local_product_matches_fraction_reference(self, gram):
        # the int pair of the local product, and the coefficient built in one
        # Fraction, against the assembly in Fractions factor by factor; the
        # two conjugates have two bad primes, the second in odd rank
        ctx = context(new_lattice(gram))
        odd = ctx.kappa.denominator == 2
        for mu in ctx.disc.elements():
            for m in itertools.islice(ctx.disc.indices(mu), 3):
                got = eisenstein._local_product(ctx, m, mu, ctx.disc.order_of(mu),
                                                extra_odd=odd)
                assert Fraction(*got) == ref_local_product(ctx, m, mu), (gram, m, mu)
                got = eis_coefficient(ctx.lattice, m, mu, ctx=ctx)
                want = ref_eis_coefficient(ctx, m, mu)
                assert type(got) is Fraction and got == want, (gram, m, mu)

    @pytest.mark.parametrize("call, want", [
        (lambda lat: eis_coefficient(lat, -1, (0,)), "m must be non-negative"),
        (lambda lat: eis_coefficient(lat, Fraction(1, 2), (1,)),
         "m must be congruent to Q(mu) mod 1"),
        (lambda lat: eis_coefficient(lat, 1, (4,)), "not a discriminant element: (4,)"),
        (lambda lat: eis_coefficient(lat, 1, [0, 1]), "not a discriminant element: (0, 1)"),
        (lambda lat: eis_coefficient(lat, Fraction(13, 8), [1]),
         lambda lat: eis_coefficient(lat, Fraction(13, 8), (1,))),
        (lambda lat: eis_coefficient(lat, 1, (0,), ctx=context(new_lattice(E7))),
         "ctx does not belong to this lattice"),
        (lambda lat: repnums.count_gauss(lat, -1, (0,), 2, 3).count,
         lambda lat: repnums.count_gauss(lat, 7, (0,), 2, 3).count),
        (lambda lat: repnums.count_gauss(lat, Fraction(1, 2), (1,), 2, 3),
         "m must be congruent to Q(mu) mod 1"),
        (lambda lat: repnums.count_gauss(lat, 1, (4,), 2, 3),
         "not a discriminant element: (4,)"),
        (lambda lat: repnums.count_gauss(lat, 1, [0, 1], 2, 3),
         "not a discriminant element: (0, 1)"),
        (lambda lat: repnums.count_gauss(lat, 1, (0,), 2, 3,
                                         disc=discriminant_form(new_lattice(E7))),
         "disc does not belong to this lattice"),
        (lambda lat: repnums.count_gauss(lat, 1, (0,), 2, 0), "w must be >= 1"),
        (lambda lat: eis_coefficient(lat, Fraction(-1, 2), (1,)), "m must be non-negative"),
        (lambda lat: eis_coefficient(lat, -1, (4,)), "not a discriminant element: (4,)"),
        (lambda lat: eis_coefficient(lat, "x", [4]), "not a discriminant element: (4,)"),
    ], ids=["eis-negative-m", "eis-incongruent-m", "eis-mu-out-of-range",
            "eis-mu-list", "eis-mu-valid-list", "eis-foreign-ctx", "gauss-negative-m",
            "gauss-incongruent-m", "gauss-mu-out-of-range", "gauss-mu-list",
            "gauss-foreign-disc", "gauss-w-zero", "eis-negative-before-incongruent",
            "eis-mu-before-negative-m", "eis-mu-before-m-conversion"])
    def test_error_contract(self, call, want):
        # the checks at the entry points, in their order: each bad input
        # raises PreconditionError with this message, and the accepted
        # inputs (a valid mu as a list, a negative m in a count) compute
        lat = new_lattice(D5)
        if callable(want):
            assert call(lat) == want(lat)
            return
        with pytest.raises(PreconditionError) as err:
            call(lat)
        assert type(err.value) is PreconditionError and str(err.value) == want

    @pytest.mark.parametrize("gram", [D5, E7, seeded_conjugate("A2^3"),
                                      seeded_conjugate("U+U+A2+<2>"),
                                      seeded_conjugate("fixture")])
    @pytest.mark.parametrize("trunc", [2, Fraction(7, 2)])
    def test_integer_walk_matches_fraction_walk(self, gram, trunc):
        # numerators over the level from first_numerator, against the walk
        # over m = Q(mu), Q(mu) + 1, ... in Fractions: the same keys, values
        # and order
        lat = new_lattice(gram)
        ctx = context(lat)
        coefficient = eisenstein.coefficients(ctx)
        want = {}
        for mu in ctx.disc.elements():
            for m in itertools.takewhile(lambda m: m < trunc,
                                         itertools.count(ctx.disc.q_value(mu))):
                if c := coefficient(m, mu):
                    want[(int(m * lat.level), mu)] = c
        got = eis_expansion(lat, trunc)
        assert list(got.coeffs.items()) == list(want.items())
        assert got.den == lat.level and got.trunc == trunc

    def test_kappa_too_small(self):
        with pytest.raises(KappaTooSmall):
            context(new_lattice(diag([2, 2, 2])))

    def test_odd_negative_signature_rejected(self):
        with pytest.raises(PreconditionError):
            context(new_lattice(diag([2, 2, 2, 2, -2])))

    def test_expansion_matches_pointwise(self):
        lat = new_lattice(E8)
        series = eis_expansion(lat, 4)
        assert series.den == lat.level == 1
        assert series.sign == 1
        assert not series.hecke_flag
        assert series.coefficient(0, ()) == 1
        for m in range(1, 4):
            assert series.coefficient(m, ()) == 240 * sigma3(m)

    def test_huge_truncation_refused(self, monkeypatch):
        # |L'/L| ceil(trunc) slots past 10^6 are refused before any
        # coefficient is computed
        def no_coefficients(ctx):
            raise AssertionError("a coefficient was computed")

        monkeypatch.setattr(eisenstein, "coefficients", no_coefficients)
        for gram, trunc in ((E8, Fraction("1e999")), (E8, 10 ** 6 + 1),
                            (D5, Fraction(500001, 2)), (FIXTURE, 10 ** 7)):
            with pytest.raises(BudgetExceeded, match="10\\^6"):
                eis_expansion(new_lattice(gram), trunc)
        with pytest.raises(AssertionError, match="computed"):  # 4 * 250000
            eis_expansion(new_lattice(D5), 250000)

    def test_expansion_hecke_flag(self):
        lat = new_lattice(diag([2, 2, 2, 2]))
        series = eis_expansion(lat, 1)
        assert series.hecke_flag

    def test_expansion_coset_exponents(self):
        lat = new_lattice(D5)
        series = eis_expansion(lat, 2)
        assert series.den == 8
        assert series.coefficient(Fraction(5, 8), (1,)) == 16
        assert series.coefficient(Fraction(13, 8), (3,)) == 80
        assert series.coefficient(Fraction(1, 2), (2,)) == 10

    def test_ctx_must_match_lattice_and_disc(self):
        # a context carries its lattice's one form, so matching the lattice
        # is matching the form
        fixture = new_lattice(FIXTURE)
        ctx = context(fixture)
        zero = ctx.disc.zero()
        with pytest.raises(PreconditionError, match="ctx"):
            eis_coefficient(new_lattice(E8), 1, zero, ctx=ctx)
        with pytest.raises(PreconditionError, match="ctx"):
            eis_coefficient(fixture.negated(), 1, zero, ctx=ctx)
        # an equal lattice, built again, is the same lattice
        assert eis_coefficient(new_lattice(FIXTURE), 1, zero, ctx=ctx) == \
            eis_coefficient(fixture, 1, zero, ctx=ctx) == \
            eis_coefficient(fixture, 1, zero)


class TestLowerBoundReport:
    def test_e8_ratios(self):
        lat = new_lattice(E8)
        pairs = [(m, ()) for m in range(1, 9)]
        report = lower_bound_report(lat, pairs, bound_a=4)
        assert report.exponent == 3
        assert report.all_positive
        assert report.rows[0].ratio_exact == 240
        # prefix minima never increase
        for a, b in zip(report.running_min, report.running_min[1:]):
            assert b <= a

    def test_valuation_budget(self):
        lat = new_lattice(E8)
        with pytest.raises(NotAdmissible):
            lower_bound_report(lat, [(8, ())], bound_a=2)

    def test_unrepresented_coset(self):
        # doubling E8 makes every value even, so m = 1 cannot occur
        doubled = [[2 * x for x in row] for row in E8]
        lat = new_lattice(doubled)
        zero = discriminant_form(lat).zero()
        with pytest.raises(NotAdmissible):
            lower_bound_report(lat, [(1, zero)], bound_a=4)

    def test_boundary_uses_shaved_exponent(self):
        lat = new_lattice(diag([2, 2, 2, 2]))
        report = lower_bound_report(lat, [(m, (0, 0, 0, 0)) for m in (1, 2, 3)],
                                    bound_a=4, eps=Fraction(1, 10))
        assert report.exponent == Fraction(9, 10)
        assert report.rows[0].ratio_exact is None
        assert report.all_positive

    def test_huge_coefficient_does_not_overflow(self):
        # a 312-digit coefficient: the float ratio is advisory and must not
        # overflow; positivity is decided on the exact value
        lat = new_lattice(direct_sum(U, U, [[2]]))
        report = lower_bound_report(lat, [(3 ** 431, (0,))], bound_a=1)
        assert report.all_positive
        assert len(str(report.rows[0].coefficient)) == 312
        assert report.rows[0].ratio > 0

    def test_noncongruent_m_rejected(self):
        # Q((1,)) = 5/8 on D5, so m = 1 is off the coset's exponent grid
        with pytest.raises(NotAdmissible, match="not congruent"):
            lower_bound_report(new_lattice(D5), [(1, (1,))], bound_a=4)

    def test_nonpositive_m_rejected(self):
        with pytest.raises(NotAdmissible):
            lower_bound_report(new_lattice(E8), [(0, ())], bound_a=4)

    def test_half_integral_kappa_ratio(self):
        lat = new_lattice(D5)
        report = lower_bound_report(lat, [(1, (0,)), (2, (0,))], bound_a=4)
        assert report.exponent == Fraction(3, 2)
        assert report.rows[0].ratio_exact is None
        assert report.all_positive
