"""q-series arithmetic tests; Delta expansions are pinned classical values."""

import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from vveis.errors import IncompatibleDiscriminantForms, PreconditionError
from vveis.lattice import discriminant_form, new_lattice
from vveis.qseries import (
    PrincipalPart,
    ScalarQSeries,
    VVQSeries,
    delta_power,
    zero_series,
)

LAT = new_lattice([[-2]])
DISC = discriminant_form(LAT)
TRIV = discriminant_form(new_lattice([[0, 1], [1, 0]]))


def rand_series(rng, trunc=10):
    coeffs = {}
    for mu in DISC.elements():
        base = -DISC.q_value(mu)  # sign -1 congruence class
        lo = int(-2 - base) - 1
        for k in range(lo, int(trunc - base) + 1):
            if rng.random() < 0.4:
                e = base + k
                if e < trunc:
                    coeffs[(int(e * 4), mu)] = Fraction(rng.randint(-9, 9),
                                                        rng.randint(1, 4))
    # symmetry under mu <-> -mu holds automatically: both elements of Z/2
    # are self-negative, so nothing to repair
    return VVQSeries(DISC, 4, -1, Fraction(trunc), coeffs)


def rand_scalar(rng, trunc=10):
    return ScalarQSeries(
        {e: Fraction(rng.randint(-9, 9)) for e in range(-2, trunc)
         if rng.random() < 0.5},
        Fraction(trunc))


@lru_cache(maxsize=None)
def reference_eta24(n_terms):
    """Coefficients of prod_{j>=1} (1-q^j)^24 below q^n_terms, one binomial
    factor (1 - q^j)^24 at a time."""
    poly = [Fraction(0)] * max(n_terms, 1)
    if n_terms > 0:
        poly[0] = Fraction(1)
    for j in range(1, n_terms):
        binom = 1
        factor = [Fraction(1)]
        for i in range(1, 25):
            binom = binom * (24 - i + 1) // i
            if i * j >= n_terms:
                break
            factor.append(Fraction((-1) ** i * binom))
        new = [Fraction(0)] * n_terms
        for d, b in enumerate(factor):
            shift = d * j
            for e in range(n_terms - shift):
                if poly[e]:
                    new[e + shift] += poly[e] * b
        poly = new
    return tuple(poly)


def reference_delta_power(b, trunc):
    """Delta^b below trunc by the eta product to the 24th power, repeated
    convolution for |b| > 1 and power-series inversion for b < 0."""
    trunc = Fraction(trunc)
    if b == 0:
        return {0: Fraction(1)}
    n_unit = int(trunc) + abs(b) + 1
    unit = eta = reference_eta24(n_unit)
    for _ in range(abs(b) - 1):
        new = [Fraction(0)] * n_unit
        for i, x in enumerate(unit):
            if x:
                for j, y in enumerate(eta[:n_unit - i]):
                    new[i + j] += x * y
        unit = new
    if b < 0:
        inv = [Fraction(1)] + [Fraction(0)] * (n_unit - 1)
        for k in range(1, n_unit):
            inv[k] = -sum(unit[i] * inv[k - i] for i in range(1, k + 1) if unit[i])
        unit = inv
    return {e + b: c for e, c in enumerate(unit) if c and e + b < trunc}


class TestDeltaPower:
    def test_delta_frozen(self):
        d = delta_power(1, 6)
        assert [d.coefficient(e) for e in range(1, 6)] == \
            [1, -24, 252, -1472, 4830]

    def test_delta_inverse_frozen(self):
        d = delta_power(-1, 3)
        assert d.coefficient(-1) == 1
        assert d.coefficient(0) == 24
        assert d.coefficient(1) == 324
        assert d.coefficient(2) == 3200

    def test_product_is_one(self):
        for b in (1, 2, 3):
            pr = delta_power(b, 9) * delta_power(-b, 9)
            assert pr.coefficient(0) == 1
            assert all(c == 0 or e == 0 for e, c in pr.items())

    def test_inverse_positivity_window(self):
        # all coefficients of Delta^-2 with index >= -2 positive through 30
        d = delta_power(-2, 31)
        for e, c in d.items():
            if e >= -2:
                assert c > 0, (e, c)

    def test_integer_coefficients(self):
        d = delta_power(-3, 12)
        assert all(c.denominator == 1 for _, c in d.items())

    def test_trunc_precondition(self):
        with pytest.raises(PreconditionError):
            delta_power(-2, -2)

    def test_deep_inverse_short_truncation(self):
        # Delta^-2 starts at q^-2, so trunc 2 holds four terms
        d = delta_power(-2, 2)
        assert d.items() == [(-2, 1), (-1, 48), (0, 1224), (1, 21952)]

    def test_every_truncation_past_the_leading_term(self):
        # Delta^b starts at q^b: trunc b + 1 is the first that holds a term,
        # and each shorter expansion is a prefix of a longer one
        for b in (2, 3, -2, -3):
            full = delta_power(b, b + 8)
            for trunc in range(b + 1, b + 8):
                assert delta_power(b, trunc).items() == \
                    [(e, c) for e, c in full.items() if e < trunc]
            assert delta_power(b, b + 1).items() == [(b, 1)]
            with pytest.raises(PreconditionError, match="captures no terms"):
                delta_power(b, b)

    def test_zero_power(self):
        d = delta_power(0, 5)
        assert d.items() == [(0, Fraction(1))]

    def test_matches_eta_product_reference(self):
        # the pentagonal series and Miller's power recurrence against the
        # eta product with convolution and inversion, at every truncation
        # from b + 1 to b + 40 and at half-integer truncations
        for b in range(-6, 7):
            truncs = [Fraction(b + k) for k in range(1, 41)]
            truncs += [Fraction(2 * b + 2 * k + 1, 2) for k in range(0, 40, 7)]
            for trunc in truncs:
                got = delta_power(b, trunc)
                assert got.trunc == trunc
                assert got.coeffs == reference_delta_power(b, trunc), (b, trunc)


class TestScalarSeries:
    def test_reading_past_trunc(self):
        s = ScalarQSeries({0: 1}, 3)
        with pytest.raises(PreconditionError):
            s.coefficient(3)

    def test_mul_trunc_pessimistic(self):
        f = ScalarQSeries({-1: 1, 0: 2}, 5)
        g = ScalarQSeries({2: 3}, 7)
        h = f * g
        # min(f.trunc + g.min_exp, g.trunc + f.min_exp) = min(5+2, 7-1)
        assert h.trunc == 6
        assert h.coefficient(1) == 3
        assert h.coefficient(2) == 6

    def test_off_grid_coefficient_is_zero(self):
        s = ScalarQSeries({0: 1, 1: 240}, 3)
        assert s.coefficient(Fraction(1, 2)) == s.coefficient(Fraction(3, 2)) == 0
        assert s.coefficient(Fraction(1)) == s.coefficient(1.0) == 240

    def test_non_integral_exponent_rejected(self):
        with pytest.raises(PreconditionError, match="integers"):
            ScalarQSeries({Fraction(1, 2): 5, 0: 1}, 3)
        assert ScalarQSeries({Fraction(2): 5}, 3).coeffs == {2: 5}


class TestVVQSeries:
    def test_congruence_enforced(self):
        with pytest.raises(PreconditionError):
            VVQSeries(DISC, 4, -1, Fraction(5), {(2, (1,)): 1})  # 1/2 != 1/4 mod 1
        # Q((1,)) = 3/4 mod 1: at each sign one congruent exponent and one not
        for sign, good, bad in ((-1, 1, 2), (1, 3, 1)):
            f = VVQSeries(DISC, 4, sign, Fraction(5), {(good, (1,)): Fraction(2)})
            assert f.coefficient(Fraction(good, 4), (1,)) == 2
            msg = f"exponent {Fraction(bad, 4)} not congruent to {sign}*Q((1,)) mod 1"
            with pytest.raises(PreconditionError, match=re.escape(msg)):
                VVQSeries(DISC, 4, sign, Fraction(5), {(bad, (1,)): 1})

    def test_add_zero(self):
        rng = random.Random(1)
        f = rand_series(rng)
        z = zero_series(DISC, 4, -1, f.trunc)
        assert f + z == f

    def test_scale_zero(self):
        rng = random.Random(2)
        f = rand_series(rng)
        z = f.scale(0)
        assert z.coeffs == {}
        assert z.trunc == f.trunc

    def test_sign_mismatch(self):
        f = zero_series(DISC, 4, -1, Fraction(3))
        g = zero_series(DISC, 4, 1, Fraction(3))
        with pytest.raises(IncompatibleDiscriminantForms):
            f + g

    def test_disc_mismatch(self):
        f = zero_series(DISC, 4, -1, Fraction(3))
        g = zero_series(TRIV, 1, -1, Fraction(3))
        with pytest.raises(IncompatibleDiscriminantForms):
            f + g

    def test_nonscalar_product_rejected(self):
        rng = random.Random(3)
        f = rand_series(rng)
        with pytest.raises(IncompatibleDiscriminantForms):
            f * f

    def test_reading_past_trunc(self):
        f = zero_series(DISC, 4, -1, Fraction(3))
        with pytest.raises(PreconditionError):
            f.coefficient(3, (0,))

    def test_ring_axioms(self):
        rng = random.Random(20260814)
        for _ in range(50):
            f, g, h = rand_series(rng), rand_series(rng), rand_series(rng)
            assert (f + g) + h == f + (g + h)
            s1, s2 = rand_scalar(rng), rand_scalar(rng)
            left = f * (s1 + s2)
            right = f * s1 + f * s2
            # compare on the common truncation
            t = min(left.trunc, right.trunc)
            for exp, mu, c in left.items():
                if exp < t:
                    assert right.coefficient(exp, mu) == c
            for exp, mu, c in right.items():
                if exp < t:
                    assert left.coefficient(exp, mu) == c

    def test_mul_delta_identity(self):
        rng = random.Random(7)
        f = rand_series(rng)
        assert f.mul_delta_pow(0) is f
        g = f.mul_delta_pow(1).mul_delta_pow(-1)
        for exp, mu, c in g.items():
            assert f.coefficient(exp, mu) == c

    def test_pole_shift(self):
        rng = random.Random(8)
        f = rand_series(rng)
        po = f.pole_order()
        if po is None:
            return
        g = f.mul_delta_pow(1)
        shifted = g.pole_order()
        assert shifted is None or shifted <= po - 1


class TestPrincipalPart:
    def test_from_delta_inverse(self):
        d = delta_power(-1, 4)
        f = VVQSeries(TRIV, 1, -1, d.trunc,
                      {(e, ()): c for e, c in d.items()})
        pp = f.principal_part()
        assert pp.items() == [((Fraction(1), ()), Fraction(1))]
        assert pp.const_term == 24
        assert pp.integral
        assert pp.pole_order() == 1

    def test_holomorphic(self):
        f = VVQSeries(DISC, 4, -1, Fraction(3), {(0, (0,)): 5, (1, (1,)): 2})
        pp = f.principal_part()
        assert pp.entries == {}
        assert pp.pole_order() is None
        assert f.pole_order() is None

    def test_symmetry_enforced(self):
        lat = new_lattice([[-2, 0], [0, -4]])
        disc = discriminant_form(lat)
        mu = None
        for el in disc.elements():
            if disc.neg(el) != el:
                mu = el
                break
        assert mu is not None
        m = -(-disc.q_value(mu) % 1) + 1  # m = -sign*Q mod 1, sign=-1
        m = (disc.q_value(mu)) % 1
        if m == 0:
            m = Fraction(1)
        with pytest.raises(PreconditionError):
            PrincipalPart(disc, {(m, mu): Fraction(1)})
        ok = PrincipalPart(disc, {(m, mu): Fraction(1),
                                  (m, disc.neg(mu)): Fraction(1)})
        assert len(ok.entries) == 2

    def test_positive_index_required(self):
        with pytest.raises(PreconditionError):
            PrincipalPart(TRIV, {(Fraction(0), ()): Fraction(1)})

    def test_congruence_required(self):
        with pytest.raises(PreconditionError):
            PrincipalPart(DISC, {(Fraction(1, 2), (1,)): Fraction(1)})

    def test_integral_flag(self):
        pp = PrincipalPart(TRIV, {(Fraction(2), ()): Fraction(1, 2)})
        assert not pp.integral
