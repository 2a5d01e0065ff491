"""Factorization, quadratic characters, Bernoulli numbers and exact L-values.

L(s, chi) is evaluated for quadratic chi whose primitive part has the
parity of s, through the functional equation and generalized Bernoulli
numbers.  pi-powers and square roots are carried symbolically
(SymbolicReal), so that the Eisenstein assembly can assert an exactly
rational outcome.  The Eisenstein series only asks for L-values of that
parity (see vveis.eisenstein), so no approximate route exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .errors import (
    BudgetExceeded,
    ConsistencyError,
    NonPrimitive,
    ParityMismatch,
    PreconditionError,
)


_TRIAL_BOUND = 1 << 10
# Miller-Rabin to these bases is deterministic below _MR_LIMIT
# (Sorenson-Webster, Math. Comp. 86 (2017); OEIS A014233)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_RHO_STEPS = 1 << 22


def factorize(n):
    """{prime: exponent} for |n|, n != 0, in ascending order of primes.

    Trial division up to 2^10, then Miller-Rabin (a proof below 3.3e24) and
    Pollard rho.  A cofactor that can be neither proved prime nor split
    within the rho budget raises BudgetExceeded.
    """
    n = abs(int(n))
    if n == 0:
        raise PreconditionError("cannot factor 0")
    out = {}
    e = (n & -n).bit_length() - 1
    if e:
        out[2] = e
        n >>= e
    d = 3
    while d * d <= n:
        if d > _TRIAL_BOUND:
            _factor_large(n, d, out)
            return dict(sorted(out.items()))
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
        d += 2
    if n > 1:
        out[n] = 1
    return out


def _factor_large(n, d, out):
    """Add to out the factorization of n, which has no prime factor below d."""
    stack = [n]
    while stack:
        n = stack.pop()
        if n < d * d or _is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            f = _rho(n)
            stack += [f, n // f]


def _is_prime(n):
    """Miller-Rabin to _MR_BASES for n without prime factors up to 41;
    BudgetExceeded if n passes every base but is too large for that to be
    a proof."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise BudgetExceeded(f"{n} passes Miller-Rabin but is too large to prove prime")
    return True


def _rho(n):
    """A proper factor of the odd composite n (Pollard rho, Brent's cycle
    search); BudgetExceeded after _RHO_STEPS steps."""
    steps, c = 0, 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            acc, k = 1, 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += 64
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise BudgetExceeded(f"no factor of {n} within {_RHO_STEPS} rho steps")
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def exact_int(x):
    """The rational x as an int; ConsistencyError when it is not one."""
    if x.denominator != 1:
        raise ConsistencyError(f"{x} is not an integer")
    return int(x)


def valuation(x, p):
    """ord_p(x) of an integer or rational x; None for x = 0."""
    if x == 0:
        return None
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def divisors(n):
    facs = factorize(n)
    out = [1]
    for p, e in facs.items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def moebius(n):
    n = int(n)
    if n < 1:
        raise PreconditionError("moebius needs n >= 1")
    facs = factorize(n) if n > 1 else {}
    if any(e > 1 for e in facs.values()):
        return 0
    return (-1) ** len(facs)


def kronecker(a, n):
    """Kronecker symbol (a|n), full convention (n = 0, negative, even)."""
    a, n = int(a), int(n)
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -k
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def _fundamental_discriminant(d):
    """D0 with chi_d = chi_{D0} as characters (primitive part)."""
    d = int(d)
    if d == 0:
        raise PreconditionError("character discriminant must be nonzero")
    if d % 4 not in (0, 1):
        d *= 4  # (d|.) and (4d|.) agree as functions
    s = 1 if d > 0 else -1
    for p, e in factorize(d).items():
        if e % 2:
            s *= p
    return s if s % 4 == 1 else 4 * s


class QuadraticCharacter:
    """chi_D(a) = (D|a) with Kronecker-symbol semantics."""

    def __init__(self, d):
        self.d = int(d)
        if self.d == 0:
            raise PreconditionError("character discriminant must be nonzero")
        if self.d % 4 == 3:
            # (d|.) with d = 3 mod 4 is nonzero at even arguments, so it is
            # not induced by its fundamental part; the discriminant 4d is.
            raise PreconditionError(
                f"{self.d} = 3 mod 4 is not a character discriminant; use {4 * self.d}")
        self.d0 = _fundamental_discriminant(self.d)
        self.conductor = abs(self.d0)
        self.parity = 1 if self.d0 > 0 else -1  # chi(-1)

    def __call__(self, a):
        return kronecker(self.d, a)

    @property
    def is_primitive(self):
        return self.d == self.d0 or (self.d == 1 and self.d0 == 1)

    def primitive_part(self):
        return QuadraticCharacter(self.d0)

    @property
    def modulus(self):
        d = self.d
        return abs(d) if d % 4 in (0, 1) else 4 * abs(d)

    def __repr__(self):
        return f"QuadraticCharacter({self.d})"

    def __eq__(self, other):
        return isinstance(other, QuadraticCharacter) and self.d == other.d

    def __hash__(self):
        return hash(("QuadraticCharacter", self.d))


CHI_TRIVIAL = QuadraticCharacter(1)


def sigma(s, a, chi=None):
    """Divisor sum sum_{d | a} chi(d) d^s, exact rational (s may be negative)."""
    a = int(a)
    if a < 1:
        raise PreconditionError("sigma needs a >= 1")
    total = Fraction(0)
    for d in divisors(a):
        c = chi(d) if chi is not None else 1
        if c:
            total += c * Fraction(d) ** s
    return total


@lru_cache(maxsize=None)
def bernoulli(n):
    """Classical Bernoulli number B_n (B_1 = -1/2)."""
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    return -sum(comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_gen(n, chi):
    """Generalized Bernoulli number B_{n,chi} for primitive chi.

    B_{n,chi} = q^{n-1} sum_{a=1}^{q} chi(a) B_n(a/q) = sum_k C(n,k) B_k
    q^{k-1} S_{n-k}, with the power sums S_j = sum_{a=1}^{q} chi(a) a^j
    taken in Python ints, so the O(q) part is integer arithmetic.  The
    parity vanishing B_{n,chi} = 0 for chi(-1) != (-1)^n is checked
    (except the classical B_1 = -1/2 edge at the trivial character).
    """
    if n < 1:
        raise PreconditionError("bernoulli_gen needs n >= 1")
    if not chi.is_primitive:
        raise NonPrimitive(f"chi_{chi.d} is not primitive (D0 = {chi.d0})")
    q = chi.conductor
    sums = [0] * (n + 1)
    for a in range(1, q + 1):
        x = chi(a)
        if x:
            for j in range(n + 1):
                sums[j] += x
                x *= a
    val = sum(comb(n, k) * bernoulli(k) * q ** k * sums[n - k]
              for k in range(n + 1)) / q
    if not (q == 1 and n == 1):
        if chi.parity != (-1) ** n and val != 0:
            raise ConsistencyError("parity vanishing violated")
    return val


# ---------------------------------------------------------------------------
# SymbolicReal: q * pi^a * sqrt(d)


def _squarefree_split(d):
    """d = s * f^2 with s squarefree; returns (s, f)."""
    s, f = 1, 1
    for p, e in factorize(d).items():
        f *= p ** (e // 2)
        if e % 2:
            s *= p
    return s, f


@dataclass(frozen=True)
class SymbolicReal:
    """Exact real of the form q * pi^a * sqrt(d), d squarefree positive.

    a is a Fraction with denominator at most 2 (half pi-powers arise from
    Gamma at half-integers); normalization extracts square factors of the
    radicand into q.
    """

    q: Fraction
    a: Fraction
    d: int

    @staticmethod
    def make(q, a=0, d=1):
        q = Fraction(q)
        a = Fraction(a)
        d = int(d)
        if d <= 0:
            raise PreconditionError("radicand must be positive")
        if a.denominator > 2:
            raise PreconditionError("pi-exponent denominator must divide 2")
        if q == 0:
            return SymbolicReal(Fraction(0), Fraction(0), 1)
        s, f = _squarefree_split(d)
        return SymbolicReal(q * f, a, s)

    def __mul__(self, other):
        if isinstance(other, SymbolicReal):
            return SymbolicReal.make(self.q * other.q, self.a + other.a,
                                     self.d * other.d)
        return SymbolicReal.make(self.q * Fraction(other), self.a, self.d)

    __rmul__ = __mul__

    def inverse(self):
        if self.q == 0:
            raise ZeroDivisionError("SymbolicReal zero")
        return SymbolicReal.make(Fraction(1) / (self.q * self.d), -self.a, self.d)

    def __truediv__(self, other):
        if isinstance(other, SymbolicReal):
            return self * other.inverse()
        return SymbolicReal.make(self.q / Fraction(other), self.a, self.d)

    @property
    def is_rational(self):
        return self.q == 0 or (self.a == 0 and self.d == 1)

    def rational_value(self):
        if not self.is_rational:
            raise PreconditionError(f"not rational: {self}")
        return self.q

    def __repr__(self):
        return f"SymbolicReal({self.q}, pi^{self.a}, sqrt({self.d}))"


def gamma_half(z):
    """Gamma(z) for z in (1/2)Z, z not a non-positive integer, as SymbolicReal."""
    z = Fraction(z)
    if z.denominator == 1:
        if z < 1:
            raise PreconditionError("Gamma pole at non-positive integer")
        val = Fraction(1)
        for k in range(2, int(z)):
            val *= k
        return SymbolicReal.make(val)
    if z.denominator != 2:
        raise PreconditionError("gamma_half handles (1/2)Z only")
    # walk to Gamma(1/2) = sqrt(pi)
    coeff = Fraction(1)
    zz = z
    while zz > Fraction(1, 2):
        zz -= 1
        coeff *= zz
    while zz < Fraction(1, 2):
        coeff /= zz
        zz += 1
    return SymbolicReal.make(coeff, Fraction(1, 2), 1)


# ---------------------------------------------------------------------------
# L-values


def _euler_correction_exact(chi, s):
    """Finite Euler factors converting L(s, chi_{D0}) to L(s, chi_D), exact."""
    chi0 = chi.primitive_part()
    corr = Fraction(1)
    for p in factorize(chi.modulus):
        if chi0.conductor % p != 0:
            corr *= 1 - chi0(p) * Fraction(1, p) ** s
    return corr


def l_value_exact(s, chi):
    """L(s, chi_D) as SymbolicReal, for integer s >= 1 with matching parity.

    Functional equation route: L(s, chi) = (q/pi)^(1/2-s) *
    Gamma((1-s+a)/2)/Gamma((s+a)/2) * (-B_{s,chi}/s) for the primitive part,
    times the finite Euler corrections for imprimitivity.  Root numbers of
    real primitive characters are +1, so no radicand beyond sqrt(q) appears.
    """
    s = int(s)
    if s < 1:
        raise PreconditionError("l_value_exact needs s >= 1")
    chi0 = chi.primitive_part()
    if chi0.parity != (-1) ** s:
        raise ParityMismatch(
            f"chi_{chi.d} has parity {chi0.parity}, needs (-1)^{s}")
    q = chi0.conductor
    a = 0 if chi0.parity == 1 else 1
    b = bernoulli_gen(s, chi0)
    qpi = SymbolicReal.make(Fraction(1, q) ** s, Fraction(s) - Fraction(1, 2), q)
    num = gamma_half(Fraction(1 - s + a, 2))
    den = gamma_half(Fraction(s + a, 2))
    val = qpi * num / den * Fraction(-b, s)
    return val * _euler_correction_exact(chi, s)


def zeta_exact(s):
    """zeta(s) for positive even integer s, as SymbolicReal."""
    return l_value_exact(s, CHI_TRIVIAL)
