"""Characters, Bernoulli numbers, exact L-values and symbolic reals.

Expected values were frozen from hand derivations (finite sums, functional
equation instances) before implementation.  Exact L-values are also checked
against a test-local oracle: a truncated Dirichlet series with an explicit
tail bound, in rational arithmetic only.
"""

from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vveis import arith
from vveis.arith import (
    CHI_TRIVIAL,
    QuadraticCharacter,
    SymbolicReal,
    bernoulli,
    bernoulli_gen,
    factorize,
    gamma_half,
    kronecker,
    l_value_exact,
    moebius,
    sigma,
    valuation,
    zeta_exact,
)
from vveis.errors import BudgetExceeded, ConsistencyError, ParityMismatch, PreconditionError

# pi to 30 decimals, rounded down and up
PI_LO = Fraction(3141592653589793238462643383279, 10 ** 30)
PI_HI = PI_LO + Fraction(1, 10 ** 30)


def dirichlet_bracket(s, chi, n_terms):
    """Rationals lo <= L(s, chi) <= hi from sum_{n <= N} chi(n) n^-s, s >= 2.

    The tail is at most sum_{n > N} n^-s <= N^(1-s)/(s-1).  Each term is
    floored at scale 2^96, so the floored sum lies within N/2^96 below the
    true partial sum.
    """
    scale = 1 << 96
    floored = sum(chi(n) * scale // n ** s for n in range(1, n_terms + 1))
    tail = Fraction(1, (s - 1) * n_terms ** (s - 1))
    return (Fraction(floored, scale) - tail,
            Fraction(floored + n_terms, scale) + tail)


def symbolic_bracket(x):
    """Rationals lo <= q * pi^a * sqrt(d) <= hi for an integral pi-power a >= 0."""
    assert x.a.denominator == 1 and x.a >= 0
    digits = 10 ** 40
    root = isqrt(x.d * digits * digits)
    lo = PI_LO ** int(x.a) * Fraction(root, digits)
    hi = PI_HI ** int(x.a) * Fraction(root + 1, digits)
    return (x.q * lo, x.q * hi) if x.q > 0 else (x.q * hi, x.q * lo)


R23 = (10 ** 23 - 1) // 9  # the repunit 11...1 (23 ones), a prime


class TestFactorize:
    def test_frozen(self):
        assert factorize(-12) == {2: 2, 3: 1}
        assert factorize(1) == {}
        assert factorize(600851475143) == {71: 1, 839: 1, 1471: 1, 6857: 1}
        with pytest.raises(PreconditionError):
            factorize(0)

    @given(st.integers(1, 10 ** 7))
    @settings(max_examples=300, deadline=None)
    def test_product_of_ascending_primes(self, n):
        facs = factorize(n)
        assert list(facs) == sorted(facs)
        assert all(all(p % d for d in range(2, isqrt(p) + 1)) for p in facs)
        prod = 1
        for p, e in facs.items():
            prod *= p ** e
        assert prod == n

    def test_large_prime_cofactor(self):
        # trial division to sqrt(R23) ~ 3e11 would not finish
        assert factorize(10 ** 23 - 1) == {3: 2, R23: 1}

    def test_rho_splits_large_factors(self):
        m31, m61 = 2 ** 31 - 1, 2 ** 61 - 1
        assert factorize(m31 * m61) == {m31: 1, m61: 1}
        assert factorize(1000003 ** 2 * 1000033) == {1000003: 2, 1000033: 1}

    def test_unprovable_prime_is_budget(self):
        # 2^89 - 1 is prime, above the bound where the bases are a proof
        with pytest.raises(BudgetExceeded):
            factorize(2 ** 89 - 1)

    def test_rho_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_STEPS", 8)
        with pytest.raises(BudgetExceeded):
            factorize(1000003 * 1000033)


class TestKronecker:
    def test_trivial_top(self):
        assert all(kronecker(1, a) == 1 for a in range(1, 30))

    def test_minus4_mod3(self):
        assert kronecker(-4, 3) == -1

    def test_two_adic_convention(self):
        # (D|2) = 1 for D = 1 mod 8, -1 for D = 5 mod 8, 0 for even D
        assert kronecker(17, 2) == 1
        assert kronecker(-7, 2) == 1
        assert kronecker(5, 2) == -1
        assert kronecker(12, 2) == 0
        # cross-check by multiplicativity: (17|4) = (17|2)^2
        assert kronecker(17, 4) == kronecker(17, 2) ** 2

    def test_legendre_euler_criterion(self):
        for p in (3, 5, 7, 11, 13):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expect = 1 if euler == 1 else -1
                assert kronecker(a, p) == expect

    @given(st.integers(-50, 50).filter(lambda x: x != 0),
           st.integers(1, 50), st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_bottom_multiplicative(self, d, a, b):
        assert kronecker(d, a * b) == kronecker(d, a) * kronecker(d, b)

    @given(st.integers(-30, 30).filter(lambda x: x != 0),
           st.integers(-30, 30).filter(lambda x: x != 0),
           st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_top_multiplicative(self, a, b, n):
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


class TestCharacter:
    def test_fundamental_parts(self):
        assert QuadraticCharacter(-4).d0 == -4
        assert QuadraticCharacter(12).d0 == 12
        assert QuadraticCharacter(48).d0 == 12
        assert QuadraticCharacter(8).d0 == 8
        assert QuadraticCharacter(-8).d0 == -8
        assert QuadraticCharacter(9).d0 == 1
        assert QuadraticCharacter(2).d0 == 8  # chi_2 = chi_8 on odd arguments

    def test_parity(self):
        assert QuadraticCharacter(-4).parity == -1
        assert QuadraticCharacter(5).parity == 1

    def test_rejects_3_mod_4(self):
        with pytest.raises(PreconditionError):
            QuadraticCharacter(3)

    def test_zero_set(self):
        chi = QuadraticCharacter(12)
        for a in range(1, 40):
            from math import gcd
            assert (chi(a) == 0) == (gcd(a, 12) > 1)


class TestDivisorSums:
    def test_frozen(self):
        assert sigma(3, 1) == 1
        assert sigma(3, 2) == 9
        assert sigma(-3, 4, QuadraticCharacter(-4)) == 1

    def test_multiplicative(self):
        chi = QuadraticCharacter(-4)
        for a, b in ((3, 4), (5, 8), (9, 2), (25, 8)):
            assert sigma(-2, a * b, chi) == sigma(-2, a, chi) * sigma(-2, b, chi)

    def test_moebius(self):
        assert moebius(12) == 0
        assert moebius(6) == 1
        assert moebius(30) == -1
        assert moebius(1) == 1


def bernoulli_poly(n, x):
    """Reference: the Bernoulli polynomial B_n(x) in Fractions."""
    x = Fraction(x)
    return sum(comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1))


def ref_bernoulli_gen(n, chi):
    """Reference: B_{n,chi} = q^{n-1} sum_{a=1}^{q} chi(a) B_n(a/q)."""
    q = chi.conductor
    return Fraction(q) ** (n - 1) * sum(
        chi(a) * bernoulli_poly(n, Fraction(a, q)) for a in range(1, q + 1))


def fundamental_discriminants(bound):
    return [d for d in range(-bound + 1, bound) if d % 4 in (0, 1) and d != 0
            and QuadraticCharacter(d).is_primitive]


class TestBernoulli:
    def test_classical(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_generalized_frozen(self):
        assert bernoulli_gen(2, CHI_TRIVIAL) == Fraction(1, 6)
        assert bernoulli_gen(1, QuadraticCharacter(-4)) == Fraction(-1, 2)

    def test_power_sums_match_polynomial_sum(self):
        # every primitive chi with |d| < 160, n <= 8; a few larger conductors
        for d in fundamental_discriminants(160):
            chi = QuadraticCharacter(d)
            for n in range(1, 9):
                assert bernoulli_gen(n, chi) == ref_bernoulli_gen(n, chi), (d, n)
        for d in (-399, 377, -391, 1020, -2036):
            chi = QuadraticCharacter(d)
            assert chi.is_primitive
            for n in (1, 2, 3, 4):
                assert bernoulli_gen(n, chi) == ref_bernoulli_gen(n, chi), (d, n)

    def test_parity_violation_is_a_consistency_error(self, monkeypatch):
        # wrong Bernoulli numbers break the vanishing at the wrong parity;
        # the check raises, also under python -O
        monkeypatch.setattr(arith, "bernoulli", lambda k: Fraction(1))
        arith.bernoulli_gen.cache_clear()
        try:
            with pytest.raises(ConsistencyError):
                bernoulli_gen(2, QuadraticCharacter(-4))
        finally:
            arith.bernoulli_gen.cache_clear()

    def test_parity_vanishing(self):
        for d in (-4, 5, 8, -8, 12, -3 * 4, 13, -20, 21, 24):
            chi = QuadraticCharacter(d).primitive_part()
            for n in range(1, 9):
                if chi.parity != (-1) ** n and not (chi.conductor == 1 and n == 1):
                    assert bernoulli_gen(n, chi) == 0


class TestValuation:
    def test_integers_and_rationals(self):
        assert valuation(48, 2) == 4
        assert valuation(-48, 3) == 1
        assert valuation(Fraction(9, 8), 2) == -3
        assert valuation(Fraction(9, 8), 3) == 2
        assert valuation(Fraction(9, 8), 5) == 0
        assert valuation(0, 7) is None


class TestLValues:
    def test_zeta2(self):
        assert zeta_exact(2) == SymbolicReal.make(Fraction(1, 6), 2, 1)

    def test_zeta4(self):
        assert zeta_exact(4) == SymbolicReal.make(Fraction(1, 90), 4, 1)

    def test_l1_chi_minus4(self):
        v = l_value_exact(1, QuadraticCharacter(-4))
        assert v == SymbolicReal.make(Fraction(1, 4), 1, 1)

    def test_parity_mismatch(self):
        with pytest.raises(ParityMismatch):
            l_value_exact(2, QuadraticCharacter(-4))
        with pytest.raises(ParityMismatch):
            l_value_exact(1, QuadraticCharacter(5))

    def test_interval_zeta2(self):
        # zeta(2) = pi^2/6 inside a rational enclosure of the Dirichlet series
        lo, hi = dirichlet_bracket(2, CHI_TRIVIAL, 4000)
        ex_lo, ex_hi = symbolic_bracket(zeta_exact(2))
        assert lo <= ex_lo <= ex_hi <= hi
        assert hi - lo < Fraction(1, 1000)

    def test_exact_vs_interval_battery(self):
        # every (D, s) pair against a rational enclosure of the Dirichlet
        # series, D = 1 being zeta(s)
        pairs = 0
        for d in (1, -4, 5, 8, -8, 12, 13, -20, 24, -24, 40):
            chi = QuadraticCharacter(d)
            for s in range(2, 9):
                if chi.primitive_part().parity != (-1) ** s:
                    continue
                lo, hi = dirichlet_bracket(s, chi, 4000 if s == 2 else 1000)
                ex_lo, ex_hi = symbolic_bracket(l_value_exact(s, chi))
                assert lo <= ex_hi and ex_lo <= hi, (d, s)
                pairs += 1
        assert pairs >= 30

    def test_dirichlet_catalan(self):
        # the oracle itself, on a value with no closed form:
        # L(2, chi_-4) = Catalan's constant
        lo, hi = dirichlet_bracket(2, QuadraticCharacter(-4), 4000)
        catalan = Fraction(915965594177219015054603514932384110774, 10 ** 39)
        assert lo <= catalan <= hi
        assert hi - lo < Fraction(1, 1000)

    def test_imprimitive_reduction(self):
        # chi_48 is chi_12 with the Euler factor at 2 already dead (2 | 12)
        a = l_value_exact(2, QuadraticCharacter(48))
        b = l_value_exact(2, QuadraticCharacter(12))
        assert a == b


class TestSymbolicReal:
    def test_normalization(self):
        x = SymbolicReal.make(1, 0, 12)
        assert (x.q, x.d) == (Fraction(2), 3)

    def test_mul_div(self):
        a = SymbolicReal.make(Fraction(3, 2), 1, 2)
        b = SymbolicReal.make(Fraction(1, 3), -1, 2)
        assert (a * b) == SymbolicReal.make(1, 0, 1)
        assert (a / a).rational_value() == 1

    def test_gamma(self):
        assert gamma_half(Fraction(5)) == SymbolicReal.make(24)
        assert gamma_half(Fraction(1, 2)) == SymbolicReal.make(1, Fraction(1, 2), 1)
        assert gamma_half(Fraction(7, 2)) == SymbolicReal.make(
            Fraction(15, 8), Fraction(1, 2), 1)
        assert gamma_half(Fraction(-1, 2)) == SymbolicReal.make(
            -2, Fraction(1, 2), 1)
