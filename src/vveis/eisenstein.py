"""Exact Fourier coefficients of the weight-(rank/2) Eisenstein series.

Both ranks assemble in Fractions: the Bruinier-Kuss formula (manuscripta
math. 106 (2001)) carries pi powers, Gamma values at half-integers and
square roots that cancel for every input, and ``context`` cancels them on
paper, with each L-value given as r * pi^s * sqrt(q).  What is left is
one square root of a rational, once per lattice in even rank and once per
coefficient in odd rank; ``_sqrt_exact`` takes it and raises
NonRationalResidue if it is not rational.  In odd rank the L-value is
taken at s = kappa - 1/2 for the character of the quadratic space
extended by <-m>.  That character always has the parity of s (the
negative signature is even, so the Gram determinant is positive), so the
Bernoulli closed form applies.  A parity mismatch there is a broken
invariant and raises ConsistencyError.  Every returned coefficient is an
exact Fraction, built once from ints: with n = m d_mu^2 (d_mu the order
of mu) the divisor sum cancels against m^(kappa-1), m^(k-1) sigma_{1-k}(n,
chi) = S(n) / d_mu^(2(k-1)) for the int S(n) = sum_{d | n} chi(d)
(n/d)^(k-1), and the local product stays a pair of ints.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import exp, factorial, isqrt, log

from . import repnums
from .arith import (
    QuadraticCharacter,
    divisor_sum,
    divisors,
    factorize,
    l_value_exact,
    moebius,
    zeta_exact,
)
from .errors import (
    BudgetExceeded,
    ConsistencyError,
    KappaTooSmall,
    NonRationalResidue,
    NotAdmissible,
    ParityMismatch,
    PositivityViolation,
    PreconditionError,
)
from .lattice import admissibility, bad_primes, disc_of, discriminant_form
from .qseries import VVQSeries


class EisensteinContext(namedtuple("EisensteinContext", [
        "lattice", "disc", "kappa", "b_minus",
        "primes",  # primes dividing 2N
        "hecke_boundary",  # kappa == 2: constant term needs the Hecke trick
        "chi",  # even rank: the character of (-1)^kappa det; None in odd rank
        "scale",  # the Fraction factor of every coefficient free of m (see context)
])):
    __slots__ = ()


def context(lattice):
    """The lattice's data for its coefficients, with the factors that do not
    depend on m computed once.

    Bruinier-Kuss give every coefficient the factor (-1)^(b-/2)
    2^(rank//2) pi^kappa / (Gamma(kappa) sqrt|det|), divided by
    L(kappa, chi) in even rank and multiplied by sqrt(2) / zeta(2 kappa - 1)
    in odd rank.  With each L-value as r pi^s sqrt(q) (``l_value_exact``):

    - even kappa = k: Gamma(k) = (k-1)! and L(k, chi) = r pi^k sqrt(q), so
      the pi^k cancels and scale = (-1)^(b-/2) 2^k / ((k-1)! r
      sqrt(|det| q)).  |det| q is a square, since q is the conductor of
      4 (-1)^k det.
    - odd kappa = j + 1/2: Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!) and
      zeta(2j) = r_zeta pi^(2j), so the factor is scale * pi^(-j)
      sqrt(2/|det|) with scale = (-1)^(b-/2) 2^j 4^j j! / ((2j)! r_zeta).
      ``_eis_odd`` cancels pi^(-j) with the pi^j of its own L-value.
    """
    disc = discriminant_form(lattice)
    kappa = Fraction(lattice.rank, 2)
    if kappa < 2:
        raise KappaTooSmall(f"kappa = {kappa} < 2")
    if lattice.sig_neg % 2:
        raise PreconditionError(
            "negative signature must be even for a nonzero series of this weight")
    sign = (-1) ** (lattice.sig_neg // 2)
    if kappa.denominator == 1:
        k = int(kappa)
        chi = QuadraticCharacter(4 * (-1) ** k * lattice.det)
        r, q = l_value_exact(k, chi)
        scale = sign * 2 ** k / (
            factorial(k - 1) * r * _sqrt_exact(abs(lattice.det) * q))
    else:
        j = lattice.rank // 2
        chi = None
        scale = sign * 2 ** j * 4 ** j * factorial(j) / (
            factorial(2 * j) * zeta_exact(2 * j))
    return EisensteinContext(lattice, disc, kappa, lattice.sig_neg,
                             bad_primes(lattice), kappa == 2, chi, scale)


def _sqrt_exact(x):
    """The square root of a positive rational x, which the assembly has
    proved to be a square; NonRationalResidue when it is not one."""
    x = Fraction(x)
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise NonRationalResidue(f"sqrt({x}) is not rational")
    return Fraction(num, den)


def _local_product(ctx, m, mu, d_mu, extra_odd=False):
    """prod over p | 2N of N_{m,mu}(p^{w_p}) / p^{(2k-1)w_p}, as an int pair
    (numerator, denominator); in odd rank each prime also contributes
    1 / (1 - p^(1-2k)) = p^(2k-1) / (p^(2k-1) - 1).
    """
    e = ctx.lattice.rank - 1  # 2 kappa - 1
    num = den = 1
    for p, wp, n_p in repnums.local_counts(ctx.lattice, m, mu, d_mu):
        num *= n_p
        den *= p ** (e * wp)
        if extra_odd:
            pe = p ** e
            num *= pe
            den *= pe - 1
    return num, den


def _eis_even(ctx, m, mu, d_mu, n):
    """scale m^(k-1) sigma_{1-k}(n, chi) N / P in one Fraction: with n = m
    d_mu^2, m^(k-1) sigma_{1-k}(n, chi) = S(n) / d_mu^(2(k-1)) for the int
    S(n) = sum_{d | n} chi(d) (n/d)^(k-1) (``divisor_sum``)."""
    k1 = int(ctx.kappa) - 1
    div_sum = divisor_sum(-k1, n, ctx.chi)
    num, den = _local_product(ctx, m, mu, d_mu)
    scale = ctx.scale
    return Fraction(scale.numerator * div_sum * num,
                    scale.denominator * d_mu ** (2 * k1) * den)


def _split_square(ctx, n):
    """n = m0 f^2 with (f, 2N) = 1 and m0 squarefree away from 2N."""
    f = 1
    for p, e in factorize(n).items():
        if p not in ctx.primes:
            f *= p ** (e // 2)
    return n // (f * f), f


def _eis_odd(ctx, m, mu, d_mu, n):
    j = ctx.lattice.rank // 2  # kappa = j + 1/2
    m0, f = _split_square(ctx, n)
    # sign pinned by theta-series oracles on definite lattices (D5, E7, Z^5);
    # it is the discriminant of the quadratic space extended by <-m>
    sign_pow = (ctx.lattice.rank + 3) // 2
    d_val = 2 * (-1) ** sign_pow * m0 * ctx.lattice.det
    chi = QuadraticCharacter(d_val)
    # sum_{d | f} moebius(d) chi(d) d^(1/2-kappa) sigma_{1-2j}(f/d) = mob / f^(2j-1),
    # since d^-j sigma_{1-2j}(g) f^(2j-1) = d^(j-1) S(g), g = f/d
    mob = sum(md * chi(d) * d ** (j - 1) * divisor_sum(1 - 2 * j, f // d)
              for d in divisors(f) if (md := moebius(d)))
    num, den = _local_product(ctx, m, mu, d_mu, extra_odd=True)
    if mob * num == 0:
        return Fraction(0)
    try:
        r, q = l_value_exact(j, chi)  # s = kappa - 1/2
    except ParityMismatch as err:
        raise ConsistencyError(
            f"odd-rank character has the wrong parity at (m={m}, mu={mu}): "
            f"{err}") from err
    # m^(kappa-1) L(j, chi) pi^(-j) sqrt(2/|det|) = m^(j-1) r sqrt(2 m q/|det|),
    # a square since q is the conductor of 2 m0 det up to sign; with m =
    # m0 f^2 / d_mu^2, m^(j-1) / f^(2j-1) = m0^(j-1) / (f d_mu^(2(j-1)))
    root = _sqrt_exact(2 * m * q / abs(ctx.lattice.det))
    scale = ctx.scale
    return Fraction(
        scale.numerator * m0 ** (j - 1) * mob * num * r.numerator * root.numerator,
        scale.denominator * f * d_mu ** (2 * (j - 1)) * den * r.denominator
        * root.denominator)


def eis_coefficient(lattice, m, mu, ctx=None):
    """Coefficient e(m, mu) of the Eisenstein series, as an exact rational.

    m = 0 is the documented constant term (1 at mu = 0, else 0), not a
    formula evaluation.  A supplied ``ctx`` must be that of ``lattice``,
    or PreconditionError is raised.
    """
    if ctx is None:
        ctx = context(lattice)
    elif not (ctx.lattice is lattice or ctx.lattice == lattice):
        raise PreconditionError("ctx does not belong to this lattice")
    m, mu = ctx.disc.check_pair(m, mu, nonnegative=True)
    if m == 0:
        return Fraction(1) if mu == ctx.disc.zero() else Fraction(0)
    d_mu = ctx.disc.order_of(mu)  # m, mu, d_mu and n = m d_mu^2 go down checked
    n, rem = divmod(m.numerator * d_mu * d_mu, m.denominator)
    if rem:  # n = Q(d_mu mu) mod d_mu^2, and d_mu mu lies in the even lattice
        raise ConsistencyError(f"{m} * {d_mu}^2 is not an integer")
    return (_eis_even if ctx.kappa.denominator == 1 else _eis_odd)(ctx, m, mu, d_mu, n)


def coefficients(ctx):
    """e(m, mu) = e(m, -mu), computed once per (m, ``disc.orbit(mu)``) and
    each mu's orbit once; the memos live as long as the returned function."""
    orbit = lru_cache(maxsize=None)(ctx.disc.orbit)
    at_orbit = lru_cache(maxsize=None)(partial(eis_coefficient, ctx.lattice, ctx=ctx))
    return lambda m, mu: at_orbit(m, orbit(mu))


def eis_expansion(lattice, trunc, disc=None):
    """Assemble the series up to exponent trunc (exclusive); sign tag +1.

    Each mu's exponents below trunc are walked as their integer numerators
    over the level N, the key the series stores: n = N m from
    ``disc.first_numerator`` in steps of N, with one Fraction per
    coefficient.  Each (m, {mu, -mu}) is computed once (``coefficients``);
    the kappa = 2 boundary is recorded on the series as hecke_flag.
    |L'/L| ceil(trunc) bounds the slots the series fills; past 10^6 the
    expansion raises BudgetExceeded before computing any coefficient.
    ``disc``, when given, must be the lattice's own form (``disc_of``).
    """
    disc_of(lattice, disc)
    ctx = context(lattice)
    trunc = Fraction(trunc)
    if trunc <= 0:
        raise PreconditionError("trunc must be positive")
    if ctx.disc.size * -(-trunc.numerator // trunc.denominator) > 10 ** 6:
        raise BudgetExceeded(f"|L'/L| ceil(trunc) exceeds 10^6 coefficient "
                             f"slots (|L'/L| = {ctx.disc.size})")
    den = lattice.level
    stop = -(-trunc.numerator * den // trunc.denominator)  # n / den < trunc
    coefficient = coefficients(ctx)
    coeffs = {}
    for mu in ctx.disc.elements():
        for n in range(ctx.disc.first_numerator(mu, den), stop, den):
            if c := coefficient(Fraction(n, den), mu):
                coeffs[(n, mu)] = c
    return VVQSeries(ctx.disc, den, 1, trunc, coeffs,
                     hecke_flag=ctx.hecke_boundary)


class LowerBoundRow(namedtuple("LowerBoundRow", [
        "m", "mu", "coefficient", "ratio",
        "ratio_exact",  # Fraction for integer kappa, None otherwise
])):
    __slots__ = ()


class LowerBoundReport(namedtuple("LowerBoundReport", [
        "kappa",
        "exponent",  # kappa - 1, or kappa - 1 - eps at the boundary
        "rows",
        "running_min",  # prefix minima of the float ratios
])):
    __slots__ = ()

    @property
    def all_positive(self):
        return all(r.ratio > 0 for r in self.rows)


def _log(x):
    """Natural logarithm of a positive rational of any size."""
    return log(x.numerator) - log(x.denominator)


def lower_bound_report(lattice, pairs, bound_a, eps=Fraction(1, 10)):
    """Ratios (-1)^(b-/2) e(m,mu) / m^(kappa-1) with admissibility checks.

    Every pair must pass ``lattice.admissibility`` with bound_a, or
    NotAdmissible names its reason.  Strict positivity of every ratio is
    decided exactly; the float ratios are advisory.
    """
    ctx = context(lattice)
    exponent = ctx.kappa - 1 - (eps if ctx.hecke_boundary else 0)
    sign = (-1) ** (ctx.b_minus // 2)
    rows = []
    for m, mu in pairs:
        m = Fraction(m)
        mu = ctx.disc.check(mu)
        why = admissibility(lattice, m, mu, bound_a)
        if why is not None:
            raise NotAdmissible(f"({m}, {mu}): {why}")
        e = eis_coefficient(lattice, m, mu, ctx=ctx)
        num = sign * e
        if num <= 0:
            raise PositivityViolation(
                f"(-1)^(b-/2) e(m, mu) <= 0 at (m={m}, mu={mu})")
        if exponent.denominator == 1:
            ratio_exact = num / m ** int(exponent)
            ratio = float(ratio_exact)
        else:
            ratio_exact = None
            ratio = exp(_log(num) - float(exponent) * _log(m))
        rows.append(LowerBoundRow(m, mu, e, ratio, ratio_exact))
    return LowerBoundReport(ctx.kappa, exponent, tuple(rows),
                            tuple(accumulate((r.ratio for r in rows), min)))
