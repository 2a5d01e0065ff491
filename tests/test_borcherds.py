"""Constructive pipeline: auxiliary series, decompositions, prescriptions.

The structural guarantees are recomputed from scratch in every test (window
positivity against independently computed first-represented values, exact
subtraction f1 - f2 = f, vanishing cusp pairings, multiplier minimality by
exhaustion).  Frozen rationals are regression pins produced by the pipeline
after its Eisenstein layer passed the theta-series oracles; they guard
against silent drift, not correctness.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest

from vveis.arith import sigma
from vveis.borcherds import (
    AdmissibleSetSpec,
    ModularBasisFixture,
    Provider,
    aux_weight,
    build_h,
    check_admissible,
    constant_term,
    decompose,
    obstruction_check,
    prescribe,
    vanish_on,
)
from vveis.eisenstein import eis_coefficient, eis_expansion
from vveis.errors import (
    BudgetExhausted,
    FixtureNotABasis,
    HypothesisNotVerified,
    IncompatibleDiscriminantForms,
    NotAdmissible,
    PositivityViolation,
    PreconditionError,
    TruncationInsufficient,
    UnsupportedWeight,
)
from vveis import borcherds, eisenstein, lattice
from vveis.acceptance import D4, E8, U, diag, direct_sum
from vveis.lattice import (
    discriminant_form,
    new_lattice,
    t_mu,
    witt_rank_bounded,
)
from vveis.qseries import PrincipalPart, ScalarQSeries, VVQSeries, delta_power


@lru_cache(maxsize=None)
def fixture_lattice():
    """Signature (12, 2), discriminant group (Z/2)^4, level 4, T = 1."""
    return new_lattice(direct_sum(E8, D4, [[-2]], [[-2]]))


@lru_cache(maxsize=None)
def fixture_disc():
    return discriminant_form(fixture_lattice())


ZERO = (0, 0, 0, 0)
MU_A = (0, 0, 0, 1)    # q = 3/4, t = 1/4
MU_AB = (0, 0, 1, 1)   # q = 1/2, t = 1/2


@lru_cache(maxsize=None)
def negated_side():
    return fixture_lattice().negated(), fixture_disc().negated()


@lru_cache(maxsize=None)
def h_depth_one():
    lneg = negated_side()[0]
    return build_h(lneg, 1, 5)


@lru_cache(maxsize=None)
def weight19_provider():
    """Honest positive-coefficient weight-19 data: the weight-7 series times
    a cube of the weight-4 one-variable series (both have non-negative
    coefficients, so the product does too)."""
    lneg = negated_side()[0]
    base = eis_expansion(lneg, 4)
    e4 = ScalarQSeries({n: 1 if n == 0 else 240 * sigma(3, n)
                        for n in range(5)}, 5)
    fix = ModularBasisFixture(19, (base * (e4 * e4 * e4),), (False,),
                              "weight-7 expansion times E4^3")
    return Provider.fixture(fix)


@lru_cache(maxsize=None)
def empty_fixture(weight=7):
    return ModularBasisFixture(weight, (), (), "no cusp forms supplied")


@lru_cache(maxsize=None)
def uu_lattice():
    """Two hyperbolic planes: n = 2 with certified Witt rank 2."""
    return new_lattice(direct_sum(U, U))


@lru_cache(maxsize=None)
def aniso_lattice():
    """x^2 + y^2 = 3(z^2 + w^2) has no nonzero solution, so Witt rank 0;
    the bounded search cannot certify that."""
    return new_lattice(diag([2, 2, -6, -6]))


def reference_search(lattice, spec, fixture, budget=None):
    """prescribe's candidate search as Fraction Gaussian elimination on the
    cusp-pairing vectors, one dict combination per row.  Returns the first
    vanishing candidate's combination (coefficient 1 on itself) and its
    Eisenstein pairing, or (None, zero_evaluations) on exhaustion."""
    disc = discriminant_form(lattice)
    accepted = check_admissible(lattice, spec).accepted
    index = {mu: i for i, mu in enumerate(disc.elements())}
    folded = [(m, mu) for m, mu in accepted
              if index[mu] <= index[disc.neg(mu)]]
    limit = len(folded) if budget is None else min(budget, len(folded))
    witt2 = lattice.sig_pos == 2 and witt_rank_bounded(lattice).lower_bound >= 2
    gs = fixture.cusp_elements()
    rows, zero_evals = [], []
    for m, mu in folded[:limit]:
        factor = 1 if disc.neg(mu) == mu else 2
        vec = [factor * g.coefficient(m, mu) for g in gs]
        ev = factor * eis_coefficient(lattice, m, mu)
        combo = {(m, mu): Fraction(1)}
        for pivot, rvec, rcombo, rev in rows:
            if vec[pivot]:
                r = vec[pivot] / rvec[pivot]
                vec = [a - r * b for a, b in zip(vec, rvec)]
                ev -= r * rev
                for key, val in rcombo.items():
                    combo[key] = combo.get(key, Fraction(0)) - r * val
        if any(vec):
            pivot = next(i for i, x in enumerate(vec) if x)
            rows.append((pivot, vec, combo, ev))
        elif ev != 0 or witt2:
            return combo, ev
        else:
            zero_evals.append((m, mu))
    return None, tuple(zero_evals)


def check_prescribe_against_reference(lattice, spec, fixture, budget=None):
    """prescribe gives the reference combination scaled by the lcm of its
    denominators, with the constant slot minus the scaled pairing."""
    combo, ev = reference_search(lattice, spec, fixture, budget)
    if combo is None:
        with pytest.raises(BudgetExhausted) as err:
            prescribe(lattice, spec, fixture, budget=budget)
        assert err.value.zero_evaluations == ev
        return None
    pp = prescribe(lattice, spec, fixture, budget=budget)
    want = {}
    for (m, mu), t in combo.items():
        if t:
            want[(m, mu)] = want[(m, pp.disc.neg(mu))] = t
    lam = math.lcm(*[t.denominator for t in want.values()])
    assert pp.entries == {key: lam * t for key, t in want.items()}
    if ev:
        assert pp.const_term == -lam * ev
    return pp


def synthetic_fixture(lattice, weight, pairs, rng, n_cusp, dependent=False):
    """Cusp-flagged series with small random coefficients on the given
    (m, mu) pairs and their negatives (a coefficient of a form on rho_L is
    even in mu), the last one a combination of the first two when
    dependent."""
    disc = discriminant_form(lattice)
    den = math.lcm(*[Fraction(m).denominator for m, _ in pairs])
    trunc = max(Fraction(m) for m, _ in pairs) + 1
    rows = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in pairs]
            for _ in range(n_cusp)]
    if dependent and n_cusp > 1:
        a, b = rng.choice([1, -1, 2]), rng.choice([1, 3, Fraction(1, 2)])
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    elements = tuple(
        VVQSeries(disc, den, 1, trunc,
                  {(Fraction(m) * den, nu): c
                   for (m, mu), c in zip(pairs, row) if c
                   for nu in (mu, disc.neg(mu))})
        for row in rows)
    return ModularBasisFixture(weight, elements, (True,) * n_cusp, "synthetic")


class TestAdmissibleSpec:
    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            AdmissibleSetSpec(bound_a=0, members=((1, ZERO),))
        with pytest.raises(PreconditionError):
            AdmissibleSetSpec(bound_a=1)
        with pytest.raises(PreconditionError):
            AdmissibleSetSpec(bound_a=1, members=((1, ZERO),), ceiling=2)

    def test_congruence_rejected(self):
        spec = AdmissibleSetSpec(bound_a=1, members=((1, MU_A),))
        report = check_admissible(fixture_lattice(), spec)
        assert not report.accepted
        assert all("congruent" in why for _, why in report.rejected)

    def test_valuation_bound(self):
        spec = AdmissibleSetSpec(bound_a=1, members=((4, ZERO), (2, ZERO)))
        report = check_admissible(fixture_lattice(), spec)
        assert report.accepted == ((Fraction(2), ZERO),)
        ((pair, why),) = report.rejected
        assert pair == (Fraction(4), ZERO)
        assert "ord_2" in why

    def test_unrepresented_member_reported(self):
        lat = new_lattice(diag([2, 2]))
        spec = AdmissibleSetSpec(bound_a=2, members=((3, (0, 0)),))
        report = check_admissible(lat, spec)
        assert not report.accepted
        ((_, why),) = report.rejected
        assert "NOT_WITHIN_RADIUS" in why

    def test_spec_example_isotropic_lattice(self):
        lat = new_lattice(direct_sum(U, U, [[-2]]))
        zero = discriminant_form(lat).zero()
        report = check_admissible(
            lat, AdmissibleSetSpec(bound_a=1, members=((1, zero),)))
        assert report.ok and report.accepted == ((Fraction(1), zero),)

    def test_grid_enumeration_order_and_closure(self):
        lat = new_lattice([[4]])
        report = check_admissible(
            lat, AdmissibleSetSpec(bound_a=1, ceiling=2))
        assert report.accepted == (
            (Fraction(1, 8), (1,)), (Fraction(1, 8), (3,)),
            (Fraction(1, 2), (2,)),
            (Fraction(9, 8), (1,)), (Fraction(9, 8), (3,)),
            (Fraction(2), (0,)),
        )
        # 2x^2 represents neither 1 nor 3/2 on the relevant cosets
        assert tuple(pair for pair, _ in report.rejected) == (
            (Fraction(1), (0,)), (Fraction(3, 2), (2,)))

    def test_grid_predicate_filter(self):
        lat = new_lattice([[4]])
        report = check_admissible(
            lat, AdmissibleSetSpec(bound_a=1, ceiling=2,
                                   predicate=lambda m, mu: m < 1))
        assert report.accepted == (
            (Fraction(1, 8), (1,)), (Fraction(1, 8), (3,)),
            (Fraction(1, 2), (2,)),
        )

    def test_orbit_shares_one_reason(self):
        # Q((1,)) = Q((8,)) = 8/9 on [[2, 1], [1, -4]]: both records of the
        # orbit carry the one verdict, which names no element
        lat = new_lattice([[2, 1], [1, -4]])
        report = check_admissible(
            lat, AdmissibleSetSpec(bound_a=1, members=((1, (1,)),)))
        assert not report.accepted
        assert report.rejected == tuple(
            ((Fraction(1), mu), "1 is not congruent to Q(mu) mod 1")
            for mu in ((1,), (8,)))

    def test_orbit_shares_one_verdict(self):
        # L'/L = Z/9: the box around -mu's representative (8, 56)/9 misses
        # the witness that mu's box finds, so -mu alone is INCONCLUSIVE
        lat = new_lattice([[2, 1], [1, -4]])
        m = Fraction(53, 9)
        for mu in ((1,), (8,)):
            report = check_admissible(
                lat, AdmissibleSetSpec(bound_a=1, members=((m, mu),)))
            assert report.accepted == ((m, (1,)), (m, (8,)))
            assert report.ok

    @pytest.mark.parametrize("gram", [[[2, 1], [1, -4]], [[2, 0], [0, -6]],
                                      [[4]], diag([2, -2, -4])])
    def test_rule_even_in_mu(self, gram):
        # Q(-x) = Q(x): every pair and its negative get the same verdict
        lat = new_lattice(gram)
        disc = discriminant_form(lat)
        for mu in disc.elements():
            q, neg = disc.q_value(mu), disc.neg(mu)
            for m in (q + k for k in range(0 if q else 1, 12)):
                assert (lattice.admissibility(lat, m, mu) is None) \
                    == (lattice.admissibility(lat, m, neg) is None)

    def test_rule_order_and_texts(self):
        lat = fixture_lattice()
        rule = lattice.admissibility
        assert rule(lat, 0, ZERO) == rule(lat, -1, MU_A) \
            == "index must be positive"
        assert rule(lat, 1, MU_A, bound_a=1) == \
            "1 is not congruent to Q(mu) mod 1"
        assert rule(lat, 4, ZERO, bound_a=1) == \
            "ord_2(4) exceeds the valuation bound 1"
        assert rule(lat, 4, ZERO) is None
        doubled = new_lattice([[2 * x for x in row] for row in E8])
        assert rule(doubled, 1, discriminant_form(doubled).zero()) == \
            "representability check returned NOT_WITHIN_RADIUS"


class TestFixtureValidation:
    def _series(self, coeffs, trunc=3, sign=1, disc=None):
        disc = disc or discriminant_form(uu_lattice())
        return VVQSeries(disc, 1, sign, trunc, coeffs)

    def test_flag_count(self):
        with pytest.raises(FixtureNotABasis):
            ModularBasisFixture(2, (self._series({(1, ()): 1}),), ())

    def test_uniform_trunc(self):
        a = self._series({(1, ()): 1}, trunc=3)
        b = self._series({(1, ()): 1}, trunc=4)
        with pytest.raises(FixtureNotABasis, match="uniform"):
            ModularBasisFixture(2, (a, b), (True, True))

    def test_lattice_side_grid_required(self):
        bad = self._series({(1, ()): 1}, sign=-1)
        with pytest.raises(FixtureNotABasis, match="grid"):
            ModularBasisFixture(2, (bad,), (True,))

    def test_cusp_flag_constant_term(self):
        bad = self._series({(0, ()): 2, (1, ()): 1})
        with pytest.raises(FixtureNotABasis, match="constant"):
            ModularBasisFixture(2, (bad,), (True,))
        # the same element is fine when not flagged as cuspidal
        fix = ModularBasisFixture(2, (bad,), (False,))
        assert fix.cusp_elements() == []

    def test_mixed_discs_rejected(self):
        a = self._series({(1, ()): 1})
        b = self._series({(4, ZERO): 1}, disc=fixture_disc())
        b = VVQSeries(fixture_disc(), 4, 1, 3, {(4, ZERO): 1})
        with pytest.raises(FixtureNotABasis, match="discriminant"):
            ModularBasisFixture(2, (a, b), (True, True))

    def test_empty_fixture(self):
        fix = empty_fixture()
        assert fix.disc is None and fix.trunc is None
        assert fix.cusp_elements() == []


class TestBuildH:
    def test_depth_one_window_recomputed(self):
        """Positivity over [T-1, 5) rechecked from scratch per coset."""
        h = h_depth_one()
        lat, disc = fixture_lattice(), fixture_disc()
        dneg = negated_side()[1]
        for _, _, c in h.items():
            assert c >= 0
        worst = max(t_mu(lat, mu) for mu in disc.elements())
        assert worst == 1
        for mu in dneg.elements():
            base = dneg.q_value(mu)
            e = base + math.ceil((worst - 1) - base)
            count = 0
            while e < h.trunc:
                assert h.coefficient(e, mu) > 0, (e, mu)
                count += 1
                e += 1
            assert count >= 4

    def test_depth_one_pinned_values(self):
        h = h_depth_one()
        assert h.coefficient(-1, ZERO) == 1
        assert h.coefficient(0, ZERO) == Fraction(9652, 61)
        assert h.coefficient(Fraction(-3, 4), MU_A) == Fraction(2, 61)
        assert h.coefficient(Fraction(-1, 2), MU_AB) == Fraction(124, 61)
        assert h.coefficient(1, ZERO) == Fraction(740560, 61)

    def test_positive_depth_required(self):
        lneg = negated_side()[0]
        with pytest.raises(PreconditionError):
            build_h(lneg, 0, 3)

    def test_signature_order_enforced(self):
        with pytest.raises(PreconditionError):
            build_h(fixture_lattice(), 1, 3)

    def test_weight_floor(self):
        # rank 26 with b = 1 gives weight 1, below the convergent regime
        big = new_lattice(direct_sum(E8, E8, D4, D4, [[-2]], [[-2]]))
        with pytest.raises(PreconditionError, match="convergent"):
            build_h(big.negated(), 1, 3)

    def test_unsupported_weight(self):
        lneg = negated_side()[0]
        with pytest.raises(UnsupportedWeight, match="pole depth 2 needs "
                           "weight 19; the eisenstein series has weight 7"):
            build_h(lneg, 2, 3)

    def test_pole_depth_inverts_aux_weight(self):
        for n in range(41):
            for b in range(1, 5):
                assert Provider("k", aux_weight(n, b), None).pole_depth(n) == b
            # the Eisenstein series of the (2, n) lattice has weight 1 + n/2,
            # so its depth is n/12 exactly when 12 | n and n >= 12
            legacy = n // 12 if n > 0 and n % 12 == 0 else None
            eis = Provider.eisenstein(SimpleNamespace(rank=n + 2))
            assert eis.weight == 1 + Fraction(n, 2)
            assert eis.pole_depth(n) == legacy, n

    def test_only_the_pole_depth_builds(self):
        lneg = negated_side()[0]
        for provider, depth in ((Provider.eisenstein(lneg), 1),
                                (weight19_provider(), 2)):
            assert provider.pole_depth(lneg.sig_neg) == depth
            for b in range(1, 5):
                if b == depth:
                    h = build_h(lneg, b, 1, provider=provider)
                    assert h.coefficient(-b, ZERO) == 1
                else:
                    with pytest.raises(UnsupportedWeight):
                        build_h(lneg, b, 1, provider=provider)

    def test_fixture_provider_negative_coefficient(self):
        lneg, dneg = negated_side()
        bad = ModularBasisFixture(
            19, (VVQSeries(dneg, 4, 1, 4, {(0, ZERO): 1, (4, ZERO): -1}),),
            (False,), "negative control")
        with pytest.raises(PositivityViolation):
            build_h(lneg, 2, 1, provider=Provider.fixture(bad))

    def test_fixture_provider_index_out_of_range(self):
        with pytest.raises(FixtureNotABasis, match="no element 0"):
            Provider.fixture(ModularBasisFixture(19, (), (), "empty"))
        one = weight19_provider().fixture
        for index in (1, -1):
            with pytest.raises(FixtureNotABasis, match=f"no element {index}"):
                Provider.fixture(one, index)
        assert Provider.fixture(one, 0).element is one.elements[0]

    def test_fixture_provider_truncation(self):
        lneg, dneg = negated_side()
        short = ModularBasisFixture(
            19, (VVQSeries(dneg, 4, 1, 2, {(0, ZERO): 1}),),
            (False,), "too short")
        with pytest.raises(TruncationInsufficient):
            build_h(lneg, 2, 1, provider=Provider.fixture(short))


class TestDecompose:
    def _mixed_input(self):
        return PrincipalPart(
            fixture_disc(),
            {(Fraction(3, 4), MU_A): -3, (Fraction(1, 2), MU_AB): 5},
            0, sign=-1)

    def test_mixed_sign_split(self):
        f = self._mixed_input()
        res = decompose(f, fixture_lattice(), provider=weight19_provider())
        assert (res.b, res.c) == (2, 61)
        assert res.f1.integral and res.f2.integral
        assert all(v >= 0 for v in res.f1.entries.values())
        assert all(v >= 0 for v in res.f2.entries.values())
        assert res.f1.entries[(Fraction(3, 4), MU_A)] == 32785
        assert res.f1.entries[(Fraction(1, 2), MU_AB)] == 191333
        assert res.f1.const_term == 19931572
        # exact subtraction, recomputed here rather than trusted
        diff = dict(res.f1.entries)
        for key, v in res.f2.entries.items():
            diff[key] = diff.get(key, Fraction(0)) - v
        assert {k: v for k, v in diff.items() if v != 0} == f.entries
        assert res.f1.const_term - res.f2.const_term == f.const_term

    def test_t_computed_once(self, monkeypatch):
        # decompose asks for T on the lattice and build_h on the negation of
        # its negation: one memoized t_max serves both, one t_mu per element
        calls = []
        inner = lattice.t_mu

        def counting(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(lattice, "t_mu", counting)
        lattice.t_max.cache_clear()
        res = decompose(self._mixed_input(), fixture_lattice(),
                        provider=weight19_provider())
        assert (res.b, res.c) == (2, 61)
        assert sorted(calls) == fixture_disc().elements() and len(calls) == 16
        decompose(self._mixed_input(), fixture_lattice(),
                  provider=weight19_provider())
        assert len(calls) == 16

    def test_multiplier_minimal_by_exhaustion(self):
        f = self._mixed_input()
        res = decompose(f, fixture_lattice(), provider=weight19_provider())
        hpp = {(Fraction(-n, res.h.den), mu): c
               for (n, mu), c in res.h.coeffs.items() if n < 0}
        for smaller in range(1, res.c):
            nonneg = all(cf + smaller * hpp.get(k, Fraction(0)) >= 0
                         for k, cf in f.entries.items())
            integral = all((smaller * ch).denominator == 1
                           for ch in hpp.values())
            assert not (nonneg and integral), smaller

    def test_nonnegative_input_minimal_flag(self):
        f = PrincipalPart(fixture_disc(), {(Fraction(1, 2), MU_AB): 2},
                          7, sign=-1)
        res = decompose(f, fixture_lattice(), provider=weight19_provider(),
                        minimal=True)
        assert res.c == 0
        assert res.f1 == f
        assert not res.f2.entries and res.f2.const_term == 0

    def test_nonnegative_input_default_adds_h(self):
        f = PrincipalPart(fixture_disc(), {(Fraction(1, 2), MU_AB): 2},
                          0, sign=-1)
        res = decompose(f, fixture_lattice(), provider=weight19_provider())
        # nothing forces c above 1, so only integrality scaling remains
        assert res.c == 61
        assert res.f2.entries[(Fraction(2), ZERO)] == 61

    def test_no_legal_depth(self):
        # the exact-series provider only reaches b = 1 here and T = 1
        # leaves no room for any pole
        with pytest.raises(UnsupportedWeight, match="the eisenstein series "
                           "of weight 7 has pole depth 1"):
            decompose(self._mixed_input(), fixture_lattice(),
                      provider=Provider.eisenstein(negated_side()[0]))

    def test_series_provider_at_depths_two_and_three(self):
        # n = 24 and n = 36: the exact-series provider's only depth is
        # b = n / 12, and build_h needs Delta^-b just past the pole
        cases = [
            (direct_sum(E8, E8, E8, [[-2]], [[-2]]),
             {(Fraction(1, 2), (1, 1)): -1}, 2, 2702765),
            (direct_sum(E8, E8, E8, E8, D4, [[-2]], [[-2]]),
             {(Fraction(3, 2), (0, 0, 1, 1)): -1}, 3, 2404879675441),
        ]
        for gram, entries, b, c in cases:
            lat = new_lattice(gram)
            f = PrincipalPart(discriminant_form(lat), entries, 0, sign=-1)
            res = decompose(f, lat)
            assert (res.b, res.c) == (b, c)
            for part in (res.f1, res.f2):
                assert part.integral
                assert all(v >= 0 for v in part.entries.values())
            hpp = {(Fraction(-n, res.h.den), mu): ch
                   for (n, mu), ch in res.h.coeffs.items() if n < 0}
            assert res.f2.entries == {k: c * ch for k, ch in hpp.items()}
            diff = dict(res.f1.entries)
            for key, v in res.f2.entries.items():
                diff[key] = diff.get(key, Fraction(0)) - v
            assert {k: v for k, v in diff.items() if v != 0} == f.entries
            assert res.f1.const_term - res.f2.const_term == f.const_term

    def test_sign_tag_enforced(self):
        flipped = PrincipalPart(fixture_disc(), {(1, ZERO): 1}, 0, sign=1)
        with pytest.raises(PreconditionError, match="sign"):
            decompose(flipped, fixture_lattice(),
                      provider=weight19_provider())


class TestObstruction:
    def _delta_fixture(self, trunc=4):
        disc = discriminant_form(uu_lattice())
        d = delta_power(1, trunc)
        series = VVQSeries(disc, 1, 1, trunc,
                           {(e, ()): c for e, c in d.items()})
        return ModularBasisFixture(12, (series,), (True,), "discriminant form")

    def test_empty_cusp_basis_vacuous(self):
        disc = discriminant_form(uu_lattice())
        pp = PrincipalPart(disc, {(1, ()): 1}, 24, sign=-1)
        report = obstruction_check(pp, ModularBasisFixture(12, (), ()))
        assert report.ok and report.values == ()

    def test_pairing_violation_listed(self):
        disc = discriminant_form(uu_lattice())
        pp = PrincipalPart(disc, {(1, ()): 1}, 0, sign=-1)
        report = obstruction_check(pp, self._delta_fixture())
        assert not report.ok
        assert report.violations == ((0, Fraction(1)),)

    def test_kernel_combination_passes(self):
        # Delta has coefficient -24 at q^2, so 24*q^-1 + q^-2 pairs to zero
        disc = discriminant_form(uu_lattice())
        pp = PrincipalPart(disc, {(1, ()): 24, (2, ()): 1}, 0, sign=-1)
        report = obstruction_check(pp, self._delta_fixture())
        assert report.ok and report.values == (Fraction(0),)

    def test_truncation_guard(self):
        disc = discriminant_form(uu_lattice())
        pp = PrincipalPart(disc, {(4, ()): 1}, 0, sign=-1)
        with pytest.raises(TruncationInsufficient):
            obstruction_check(pp, self._delta_fixture(trunc=4))

    def test_disc_mismatch(self):
        pp = PrincipalPart(fixture_disc(), {(1, ZERO): 1}, 0, sign=-1)
        with pytest.raises(IncompatibleDiscriminantForms):
            obstruction_check(pp, self._delta_fixture())


@lru_cache(maxsize=None)
def a2uu_lattice():
    """A2 + U + U: signature (4, 2), L'/L = Z/3, Q = 1/3 on both nonzero
    elements, so {(1,), (2,)} is one orbit."""
    return new_lattice(direct_sum([[2, -1], [-1, 2]], U, U))


class TestOneCoefficientPerOrbit:
    """e(m, mu) = e(m, -mu): each (m, {mu, -mu}) coefficient is evaluated
    once per call, however many of the orbit's pairs the caller reads."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = Counter()
        inner = eisenstein._eis_even  # rank 6: every m > 0 evaluation

        def counted(ctx, m, mu, *checked):  # checked: mu's order and m d_mu^2
            calls[m, min(mu, ctx.disc.neg(mu))] += 1
            return inner(ctx, m, mu, *checked)

        monkeypatch.setattr(eisenstein, "_eis_even", counted)
        return calls

    def test_constant_term(self, computed):
        lat = a2uu_lattice()
        third, four = Fraction(1, 3), Fraction(4, 3)
        entries = {(m, mu): 1 for m in (third, four) for mu in ((1,), (2,))}
        value = constant_term(
            PrincipalPart(discriminant_form(lat), entries, 0, sign=-1), lat)
        assert computed == Counter({(third, (1,)): 1, (four, (1,)): 1})
        assert value == -2 * (eis_coefficient(lat, third, (1,))
                              + eis_coefficient(lat, four, (1,)))

    def test_prescribe(self, computed):
        lat, third = a2uu_lattice(), Fraction(1, 3)
        spec = AdmissibleSetSpec(bound_a=2, members=((third, (1,)),
                                                     (third + 1, (2,))))
        pp = prescribe(lat, spec, empty_fixture(weight=3))
        # the first candidate wins: its row and the constant slot read the
        # orbit's coefficient three times
        assert computed == Counter({(third, (1,)): 1})
        assert pp.entries == {(third, (1,)): 1, (third, (2,)): 1}

    def test_expansion(self, computed):
        series = eis_expansion(a2uu_lattice(), 4)
        assert computed and set(computed.values()) == {1}
        assert {m for m, _ in computed} == {
            Fraction(k, 3) for k in range(1, 12) if k % 3 != 2}
        assert series.coefficient(Fraction(1, 3), (1,)) == \
            series.coefficient(Fraction(1, 3), (2,)) != 0


class TestConstantTerm:
    def test_empty_is_zero(self):
        pp = PrincipalPart(fixture_disc(), {}, 0, sign=-1)
        assert constant_term(pp, fixture_lattice()) == 0

    def test_single_term_matches_series(self):
        pp = PrincipalPart(fixture_disc(), {(1, ZERO): 1}, 0, sign=-1)
        value = constant_term(pp, fixture_lattice())
        assert value == Fraction(8196, 61)
        assert value == -eis_coefficient(fixture_lattice(), 1, ZERO)

    def test_linearity(self):
        d = fixture_disc()
        p1 = PrincipalPart(d, {(1, ZERO): 2}, 0, sign=-1)
        p2 = PrincipalPart(d, {(Fraction(3, 4), MU_A): 3}, 0, sign=-1)
        merged = PrincipalPart(
            d, {(1, ZERO): 2, (Fraction(3, 4), MU_A): 3}, 0, sign=-1)
        lat = fixture_lattice()
        assert constant_term(merged, lat) == \
            constant_term(p1, lat) + constant_term(p2, lat)

    def test_isotropic_plane_pair_refused(self):
        disc = discriminant_form(uu_lattice())
        pp = PrincipalPart(disc, {(1, ()): 1}, 0, sign=-1)
        with pytest.raises(HypothesisNotVerified, match="hyperbolic"):
            constant_term(pp, uu_lattice())

    def test_anisotropic_needs_override(self):
        lat = aniso_lattice()
        disc = discriminant_form(lat)
        pp = PrincipalPart(disc, {(1, disc.zero()): 1}, 0, sign=-1)
        with pytest.raises(HypothesisNotVerified, match="certif"):
            constant_term(pp, lat)
        assert constant_term(pp, lat, override=True) == 4


class TestCuspBasisPin:
    def test_empty_cusp_basis_is_incomplete(self):
        """g = E4 E3 - E7 is a cusp form of weight 7 for the fixture's Weil
        representation with c_g(1, 0) = 20640/61 != 0, so the empty cusp
        basis that criterion 7 (like ``empty_fixture``) hands ``prescribe``
        is incomplete.

        E3 is the Eisenstein series of D4 + <-2>^2, signature (4, 2): both
        signatures are 2 mod 8, and E8 adds nothing to the discriminant
        form, so E4 E3 and E7 (the fixture's) have weight 7 for the same
        representation and constant term e_0, and g has none.  At (1, 0),
        c_g = e_{D4+<-2>^2}(1, 0) + 240 sigma_3(1) - e_fixture(1, 0), E3's
        constant term being 1.  An isometry of the two forms maps 0 to 0,
        so none is needed.
        """
        small = new_lattice(direct_sum(D4, [[-2]], [[-2]]))
        e3 = eis_coefficient(small, 1, discriminant_form(small).zero())
        e7 = eis_coefficient(fixture_lattice(), 1, ZERO)
        assert (e3, e7) == (-36, Fraction(-8196, 61))
        assert e3 + 240 * sigma(3, 1) - e7 == Fraction(20640, 61)


class TestPrescribe:
    def _spec(self, *pairs, bound=2):
        return AdmissibleSetSpec(bound_a=bound, members=tuple(pairs))

    def test_first_candidate_wins_on_empty_fixture(self):
        spec = self._spec((1, ZERO), (2, ZERO), (3, ZERO))
        pp = prescribe(fixture_lattice(), spec, empty_fixture())
        assert dict(pp.items()) == {(Fraction(1), ZERO): Fraction(1)}
        assert pp.const_term == Fraction(8196, 61)
        assert pp.const_term == -eis_coefficient(fixture_lattice(), 1, ZERO)
        # determinism: identical inputs, identical output
        assert prescribe(fixture_lattice(), spec, empty_fixture()) == pp

    def test_two_candidates_kill_cusp_projection(self):
        disc = fixture_disc()
        g = VVQSeries(disc, 4, 1, 4, {(4, ZERO): 1, (8, ZERO): 3})
        fix = ModularBasisFixture(7, (g,), (True,), "synthetic cusp data")
        pp = prescribe(fixture_lattice(), self._spec((1, ZERO), (2, ZERO)),
                       fix)
        assert pp.entries == {(Fraction(1), ZERO): Fraction(-3),
                              (Fraction(2), ZERO): Fraction(1)}
        assert pp.const_term == Fraction(499704, 61)
        assert obstruction_check(pp, fix).ok
        # support stayed inside the requested set
        assert set(pp.entries) <= {(Fraction(1), ZERO), (Fraction(2), ZERO)}

    def test_budget_exhausted_report(self):
        disc = fixture_disc()
        g = VVQSeries(disc, 4, 1, 4, {(4, ZERO): 1, (8, ZERO): 3})
        fix = ModularBasisFixture(7, (g,), (True,), "synthetic cusp data")
        with pytest.raises(BudgetExhausted) as err:
            prescribe(fixture_lattice(), self._spec((1, ZERO), (2, ZERO)),
                      fix, budget=1)
        assert err.value.zero_evaluations == ()

    def test_zero_pairings_reported(self):
        # cusp data proportional to the Eisenstein coefficients makes every
        # kernel combination pair to zero: exhaustion with itemized report,
        # also beside a second, unrelated cusp element
        lat, disc = fixture_lattice(), fixture_disc()
        pairs = [(1, ZERO), (2, ZERO), (3, ZERO), (Fraction(3, 4), MU_A)]
        matched = VVQSeries(disc, 4, 1, 4, {
            (Fraction(m) * 4, mu): eis_coefficient(lat, m, mu)
            for m, mu in pairs})
        other = VVQSeries(disc, 4, 1, 4, {(4, ZERO): 2, (3, MU_A): -1})
        cases = [((matched,), pairs[:2], ((Fraction(2), ZERO),)),
                 ((matched, other), pairs,
                  ((Fraction(2), ZERO), (Fraction(3), ZERO)))]
        for gs, members, zeros in cases:
            fix = ModularBasisFixture(7, gs, (True,) * len(gs), "matched")
            spec = self._spec(*members)
            with pytest.raises(BudgetExhausted) as err:
                prescribe(lat, spec, fix)
            assert err.value.zero_evaluations == zeros
            assert f"{len(gs)} independent cusp projections" in str(err.value)
            assert check_prescribe_against_reference(lat, spec, fix) is None

    def test_rejection_before_search(self):
        with pytest.raises(NotAdmissible, match="ord_2"):
            prescribe(fixture_lattice(), self._spec((4, ZERO), bound=1),
                      empty_fixture())

    def test_grid_searches_its_admissible_pairs(self):
        # ceiling 4 adds pairs with ord_2(4) = 2 > bound_a: a grid drops
        # them, where explicit members are refused
        lat = fixture_lattice()
        at3, at4 = (prescribe(lat, AdmissibleSetSpec(bound_a=1, ceiling=c),
                              empty_fixture()) for c in (3, 4))
        assert at4 == at3
        assert at3.const_term == Fraction(2, 61)
        report = check_admissible(lat, AdmissibleSetSpec(bound_a=1, ceiling=4))
        assert {m for (m, _), _ in report.rejected} == {4}
        assert all("ord_2" in why for _, why in report.rejected)

    def test_weight_mismatch(self):
        spec = self._spec((1, ZERO))
        with pytest.raises(FixtureNotABasis, match="weight"):
            prescribe(fixture_lattice(), spec, empty_fixture(weight=8))

    def test_truncation_guard(self):
        disc = fixture_disc()
        g = VVQSeries(disc, 4, 1, 2, {(4, ZERO): 1})
        fix = ModularBasisFixture(7, (g,), (True,), "short synthetic data")
        with pytest.raises(TruncationInsufficient):
            prescribe(fixture_lattice(), self._spec((3, ZERO)), fix)

    def test_isotropic_plane_pair_direct(self):
        pp = prescribe(uu_lattice(), self._spec((1, ())),
                       ModularBasisFixture(2, (), (), "empty"))
        assert pp.entries == {(Fraction(1), ()): Fraction(1)}
        assert pp.const_term == 24

    def test_isotropic_plane_constant_repair(self):
        # cusp data proportional to the series forces a zero pairing; the
        # split-hyperbolic case accepts it and repairs the constant slot
        # from the invariant vector
        lat = uu_lattice()
        disc = discriminant_form(lat)
        g = VVQSeries(disc, 1, 1, 3, {(1, ()): 1, (2, ()): 3})
        fix = ModularBasisFixture(2, (g,), (True,), "matched to the series")
        pp = prescribe(lat, self._spec((1, ()), (2, ())), fix)
        assert pp.entries == {(Fraction(1), ()): Fraction(-3),
                              (Fraction(2), ()): Fraction(1)}
        assert pp.const_term == 1
        assert obstruction_check(pp, fix).ok

    def test_matches_fraction_elimination(self):
        # random synthetic cusp data, some with a dependent element, some
        # cut by a budget, against the Fraction elimination it replaced
        cases = [
            (fixture_lattice(), 7,
             [(1, ZERO), (2, ZERO), (3, ZERO), (Fraction(3, 4), MU_A),
              (Fraction(7, 4), MU_A), (Fraction(1, 2), MU_AB),
              (Fraction(3, 2), MU_AB)]),
            (new_lattice(direct_sum([[4]], U, U)), Fraction(5, 2),
             [(Fraction(9, 8), (1,)), (Fraction(17, 8), (1,)),
              (Fraction(1, 2), (2,)), (Fraction(3, 2), (2,)), (1, (0,)),
              (2, (0,))]),
            (uu_lattice(), 2, [(1, ()), (2, ()), (3, ())]),
        ]
        rng = random.Random(16)
        outcomes = Counter()
        for lattice, weight, pairs in cases:
            spec = self._spec(*pairs)
            for trial in range(12):
                fix = synthetic_fixture(lattice, weight, pairs, rng,
                                        rng.randint(1, 4), trial % 3 == 0)
                budget = rng.choice([None, None, 1, 2, 3])
                pp = check_prescribe_against_reference(lattice, spec, fix,
                                                       budget)
                outcomes[pp is None] += 1
            with pytest.raises(FixtureNotABasis, match="weight"):
                prescribe(lattice, spec, synthetic_fixture(
                    lattice, weight + 1, pairs, rng, 2))
        assert outcomes[False] and outcomes[True], outcomes

    def test_orbit_symmetrization(self):
        lat = new_lattice(direct_sum([[4]], U, U))
        disc = discriminant_form(lat)
        pp = prescribe(lat, self._spec((Fraction(9, 8), (1,))),
                       ModularBasisFixture(Fraction(5, 2), (), (), "empty"))
        assert pp.entries == {(Fraction(9, 8), (1,)): Fraction(1),
                              (Fraction(9, 8), (3,)): Fraction(1)}
        assert pp.const_term == 100
        assert pp.const_term == -2 * eis_coefficient(lat, Fraction(9, 8), (1,))


class TestVanishOn:
    def test_composition_on_fixture_lattice(self):
        out = vanish_on(fixture_lattice(), Fraction(3, 4), MU_A,
                        empty_fixture(), provider=weight19_provider())
        assert out.integral
        assert all(v >= 0 for v in out.entries.values())
        assert out.entries[(Fraction(3, 4), MU_A)] == 32789
        assert len(out.entries) == 29
        assert out.const_term == Fraction(1215827348, 61)

    def test_congruence_rejected(self):
        with pytest.raises(NotAdmissible):
            vanish_on(fixture_lattice(), Fraction(1, 3), ZERO,
                      empty_fixture(), provider=weight19_provider())

    def test_unrepresented_rejected(self):
        doubled = new_lattice([[2 * x for x in row] for row in E8])
        zero = discriminant_form(doubled).zero()
        with pytest.raises(NotAdmissible, match="represent"):
            vanish_on(doubled, 1, zero, empty_fixture())

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_index_rejected(self, m):
        lat, disc = fixture_lattice(), fixture_disc()
        with pytest.raises(NotAdmissible, match="positive"):
            vanish_on(lat, m, ZERO, empty_fixture())
        pp = PrincipalPart(disc, {(1, ZERO): 1}, 0, sign=-1)
        with pytest.raises(NotAdmissible, match="positive"):
            vanish_on(lat, m, ZERO, empty_fixture(), pp=pp)

    def test_one_representability_search(self, monkeypatch):
        # prescribe's admissibility check is the only one; t_mu's searches
        # run on the negated lattice and are not counted.  Any name bound to
        # the search in borcherds is counted too.
        lat = fixture_lattice()
        calls = []
        search = lattice.coset_represents

        def counting(lat_, *args, **kwargs):
            if lat_ == lat:
                calls.append(args)
            return search(lat_, *args, **kwargs)

        monkeypatch.setattr(lattice, "coset_represents", counting)
        monkeypatch.setattr(borcherds, "coset_represents", counting,
                            raising=False)
        vanish_on(lat, Fraction(3, 4), MU_A, empty_fixture(),
                  provider=weight19_provider())
        assert len(calls) == 1

    def test_supplied_pp_validated(self):
        lat, disc = fixture_lattice(), fixture_disc()
        missing = PrincipalPart(disc, {(1, ZERO): 1}, 0, sign=-1)
        with pytest.raises(PreconditionError, match="positive entry"):
            vanish_on(lat, Fraction(3, 4), MU_A, empty_fixture(),
                      provider=weight19_provider(), pp=missing)
        ragged = PrincipalPart(
            disc, {(Fraction(3, 4), MU_A): Fraction(1, 2)}, 0, sign=-1)
        with pytest.raises(PreconditionError, match="integral"):
            vanish_on(lat, Fraction(3, 4), MU_A, empty_fixture(),
                      provider=weight19_provider(), pp=ragged)

    def test_supplied_pp_matches_seeded_run(self):
        lat = fixture_lattice()
        seeded = vanish_on(lat, Fraction(3, 4), MU_A, empty_fixture(),
                           provider=weight19_provider())
        seed = AdmissibleSetSpec(bound_a=1, members=(((Fraction(3, 4)), MU_A),))
        pp = prescribe(lat, seed, empty_fixture())
        manual = vanish_on(lat, Fraction(3, 4), MU_A, empty_fixture(),
                           provider=weight19_provider(), pp=pp)
        assert manual == seeded
