"""Factorization, quadratic characters, Bernoulli numbers and exact L-values.

L(s, chi) is evaluated for quadratic chi whose primitive part has the
parity of s, from the closed form in generalized Bernoulli numbers, as
the pair (r, q) with L(s, chi) = r * pi^s * sqrt(q): r rational, q the
conductor.  The Eisenstein assembly cancels pi^s and sqrt(q) on paper
(see vveis.eisenstein).  It only asks for L-values of that parity, so no
approximate route exists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb, factorial, gcd, isqrt
from operator import mul, neg

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
    if n % 2 == 0:
        out[2] = e = valuation(n, 2)
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
    s = valuation(n - 1, 2)
    d = (n - 1) >> s
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
    """ord_p(x) of an integer or rational x; None for x = 0.  An int at p = 2
    is read off its lowest set bit."""
    if x == 0:
        return None
    if p == 2 and type(x) is int:
        return (x & -x).bit_length() - 1
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
    v = valuation(n, 2) if n % 2 == 0 else 0
    n >>= v
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -k
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a != 0:
        v = valuation(a, 2) if a % 2 == 0 else 0
        a >>= v
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
        return self if self.is_primitive else QuadraticCharacter(self.d0)

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


def divisor_sum(s, a, chi=None):
    """sum_{d | a} chi(d) d^s times a^max(-s, 0), an int.

    chi is a character (completely multiplicative; None is the trivial
    one), so the sum is the product over p^e || a of sum_k chi(p)^k p^(ks),
    one chi value per prime; for s < 0 it is sum_{d | a} chi(d) (a/d)^(-s),
    whose factors are sum_k chi(p)^k p^((e-k)(-s)).
    """
    a = int(a)
    if a < 1:
        raise PreconditionError("sigma needs a >= 1")
    if s != int(s):
        raise PreconditionError(f"sigma needs an integer exponent, got {s}")
    s = int(s)
    t = max(-s, 0)
    total = 1
    for p, e in factorize(a).items():
        c = chi(p) if chi is not None else 1
        total *= sum(c ** k * p ** ((e - k) * t if t else k * s) for k in range(e + 1))
    return total


def sigma(s, a, chi=None):
    """sum_{d | a} chi(d) d^s as an exact Fraction: ``divisor_sum`` / a^max(-s, 0)."""
    return Fraction(divisor_sum(s, a, chi), int(a) ** max(-int(s), 0))


@lru_cache(maxsize=None)
def bernoulli(n):
    """Classical Bernoulli number B_n (B_1 = -1/2)."""
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    return -sum(comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


def character_table(d, n):
    """[(d|a) for 0 <= a <= n], evaluated only at the primes.

    (d|.) is completely multiplicative on the positive integers: (d|a) is
    the product of (d|p) over the prime powers p^k dividing a.  A sieve
    lists the primes up to n; each p with (d|p) = 0 zeroes its multiples,
    and each with (d|p) = -1 negates the multiples of every p^k <= n, as
    slice operations.  At an odd prime p, (d|p) is Euler's criterion
    d^((p-1)/2) mod p, one built-in ``pow``.
    """
    prime = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    table = [kronecker(d, 0)] + [1] * n
    for p in compress(range(n + 1), prime):
        c = kronecker(d, 2) if p == 2 else pow(d, (p - 1) // 2, p)
        if c == 0:
            table[p::p] = bytes(len(range(p, n + 1, p)))
        elif c != 1:  # -1, or p - 1 from Euler's criterion
            pk = p
            while pk <= n:
                table[pk::pk] = map(neg, table[pk::pk])
                pk *= p
    return table


@lru_cache(maxsize=None)
def bernoulli_gen(n, chi):
    """Generalized Bernoulli number B_{n,chi} for primitive chi.

    B_{n,chi} = q^{n-1} sum_{a=1}^{q} chi(a) B_n(a/q) = sum_k C(n,k) B_k
    q^{k-1} S_{n-k}, with the power sums S_j = sum_{a=1}^{q} chi(a) a^j
    taken in Python ints.  The residues pair up, chi(q - a) = chi(-1)
    chi(a), so the O(q) work, a ``character_table`` of chi and its power
    sums, covers a <= q/2 only: with T_i = sum_{a<q/2} chi(a) a^i, S_j =
    T_j + chi(-1) sum_i C(j,i) q^(j-i) (-1)^i T_i plus the unpaired a = q/2
    and a = q.  The parity vanishing B_{n,chi} = 0 for chi(-1) != (-1)^n
    is checked (except the classical B_1 = -1/2 edge at the trivial
    character).
    """
    if n < 1:
        raise PreconditionError("bernoulli_gen needs n >= 1")
    if not chi.is_primitive:
        raise NonPrimitive(f"chi_{chi.d} is not primitive (D0 = {chi.d0})")
    q = chi.conductor
    table = character_table(chi.d0, q // 2)
    half = (q - 1) // 2

    def power_sums(lo, hi):  # sum_{lo <= a < hi} chi(a) a^j, j = 0..n
        terms, sums = table[lo:hi], []
        for _ in range(n + 1):
            sums.append(sum(terms))
            terms = list(map(mul, terms, range(lo, hi)))
        return sums

    low, mid = power_sums(1, half + 1), power_sums(half + 1, q - half)
    sums = [low[j] + mid[j] + chi(q) * q ** j + chi.parity * sum(
        comb(j, i) * q ** (j - i) * (-1) ** i * low[i] for i in range(j + 1))
        for j in range(n + 1)]
    val = sum(comb(n, k) * bernoulli(k) * q ** k * sums[n - k]
              for k in range(n + 1)) / q
    if not (q == 1 and n == 1):
        if chi.parity != (-1) ** n and val != 0:
            raise ConsistencyError("parity vanishing violated")
    return val


# ---------------------------------------------------------------------------
# L-values


@lru_cache(maxsize=None)
def l_value_exact(s, chi):
    """L(s, chi_D) = r * pi^s * sqrt(q) as the pair (r, q), memoized on (s, chi).

    s is an integer >= 1 and chi's primitive part chi0, of conductor q, has
    the parity (-1)^s.  A real primitive chi0 with chi0(-1) = (-1)^a has the
    Gauss sum i^a sqrt(q), so the closed form of Washington, Cyclotomic
    Fields, Thm 4.2, reads L(s, chi0) = (-1)^(1+(s-a)/2) 2^(s-1) B_{s,chi0}
    / (s! q^s) * pi^s sqrt(q).  The rational r also carries the finite Euler
    factors 1 - chi0(p) p^-s at the primes of chi's modulus outside q, which
    turn L(s, chi0) into L(s, chi_D).
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
    r = (-1) ** (1 + (s - a) // 2) * 2 ** (s - 1) * bernoulli_gen(s, chi0) / (
        factorial(s) * q ** s)
    for p in factorize(chi.modulus):
        if q % p:
            r *= 1 - Fraction(chi0(p), p ** s)
    return r, q


def zeta_exact(s):
    """The rational zeta(s) / pi^s, for a positive even integer s."""
    return l_value_exact(s, CHI_TRIVIAL)[0]
