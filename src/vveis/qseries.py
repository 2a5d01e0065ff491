"""Formal q-expansions: scalar series, vector-valued series, principal parts.

Exponents are rationals with a fixed denominator; each component mu only
carries exponents congruent to sign * Q(mu) mod 1 (sign +1 for Eisenstein
series on the lattice itself, -1 for inputs living on the negated lattice).
Truncation is tracked pessimistically through every operation and reading at
or past it raises rather than silently returning 0.  Delta^b, for every
integer b, comes from one recurrence: Euler's pentagonal series raised to
the power 24b by J. C. P. Miller's recurrence, in Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm

from .errors import (
    ConsistencyError,
    IncompatibleDiscriminantForms,
    PreconditionError,
)


class ScalarQSeries:
    """Laurent q-series with integer exponents and exact rational
    coefficients; a non-integral exponent is refused, and reads 0."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc):
        self.trunc = Fraction(trunc)
        if any(int(e) != e for e in coeffs):
            raise PreconditionError("scalar series exponents must be integers")
        self.coeffs = {int(e): Fraction(c) for e, c in coeffs.items()
                       if c != 0 and e < self.trunc}

    def coefficient(self, e):
        if e >= self.trunc:
            raise PreconditionError(f"exponent {e} is beyond truncation {self.trunc}")
        return self.coeffs.get(e, Fraction(0))  # an integral e hashes as its int

    def min_exp(self):
        return min(self.coeffs, default=self.trunc)

    def items(self):
        return sorted(self.coeffs.items())

    def __add__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ScalarQSeries(out, trunc)

    def __mul__(self, other):
        if isinstance(other, VVQSeries):
            return other * self
        t1 = min(self.trunc + other.min_exp(), other.trunc + self.min_exp())
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < t1:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ScalarQSeries(out, t1)

    def __repr__(self):
        head = " + ".join(f"{c}*q^{e}" for e, c in self.items()[:6])
        return f"ScalarQSeries({head or '0'} + O(q^{self.trunc}))"


def _pentagonal(n):
    """(k, a_k) for the nonzero coefficients a_k of prod_{j>=1} (1 - q^j) with
    0 < k < n: Euler's pentagonal number theorem gives a_k = (-1)^j at
    k = j(3j - 1)/2 for j = +-1, +-2, ..."""
    out = []
    j = 1
    while j * (3 * j - 1) // 2 < n:
        sign = -1 if j % 2 else 1
        for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if k < n:
                out.append((k, sign))
        j += 1
    return out


def delta_power(b, trunc):
    """Delta^b as an exact integer-coefficient series valid below trunc.

    Delta^b = q^b * f^(24b) with f = prod (1 - q^j) for every integer b.  The
    coefficients of f come from the pentagonal number theorem and the power
    g = f^(24b) from J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2,
    section 4.7): g_0 = 1 and n g_n = sum_{k=1..n} ((24b + 1)k - n) a_k
    g_(n-k), in Python ints; every division by n must be exact.
    """
    b = int(b)
    trunc = Fraction(trunc)
    if trunc <= b:  # Delta^b starts at q^b
        raise PreconditionError(f"trunc {trunc} <= {b} captures no terms")
    n_terms = ceil(trunc - b)
    a = _pentagonal(n_terms)
    alpha = 24 * b + 1
    g = [1]
    for n in range(1, n_terms):
        s = 0
        for k, ak in a:
            if k > n:
                break
            s += (alpha * k - n) * ak * g[n - k]
        if s % n:
            raise ConsistencyError("delta powers have integer coefficients")
        g.append(s // n)
    return ScalarQSeries({b + n: c for n, c in enumerate(g)}, trunc)


class VVQSeries:
    """Vector-valued q-series over a discriminant form.

    coeffs maps (exponent numerator over den, element tuple) to a rational;
    sign fixes the congruence class: exponent = sign * Q(mu) mod 1.
    """

    __slots__ = ("disc", "den", "sign", "trunc", "coeffs", "hecke_flag")

    def __init__(self, disc, den, sign, trunc, coeffs, hecke_flag=False):
        if sign not in (1, -1):
            raise PreconditionError("sign tag must be +1 or -1")
        self.disc = disc
        self.den = int(den)
        if self.den < 1:
            raise PreconditionError("den must be positive")
        self.sign = sign
        self.trunc = Fraction(trunc)
        self.hecke_flag = bool(hecke_flag)
        clean = {}
        t = self.trunc
        for (num, mu), c in coeffs.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c == 0:
                continue
            num = int(num)
            mu = disc.check(mu)
            if num * t.denominator >= t.numerator * self.den:  # num / den >= trunc
                continue
            q = disc.q_value(mu)  # num / den - sign q is an integer, in ints
            if (num * q.denominator - sign * q.numerator * self.den) % (self.den * q.denominator):
                raise PreconditionError(f"exponent {Fraction(num, self.den)} not "
                                        f"congruent to {sign}*Q({mu}) mod 1")
            clean[(num, mu)] = c
        self.coeffs = clean

    def coefficient(self, exp, mu):
        exp = Fraction(exp)
        mu = self.disc.check(mu)
        if exp >= self.trunc:
            raise PreconditionError(
                f"exponent {exp} is beyond truncation {self.trunc}")
        num = exp * self.den
        if num.denominator != 1:
            return Fraction(0)
        return self.coeffs.get((int(num), mu), Fraction(0))

    def items(self):
        """Deterministic (exponent, mu, coefficient) iteration."""
        return [(Fraction(num, self.den), mu, c) for (num, mu), c in
                sorted(self.coeffs.items())]

    def min_exp(self):
        return min((Fraction(num, self.den) for num, _ in self.coeffs),
                   default=self.trunc)

    def _compat(self, other):
        if self.disc is not other.disc and self.disc != other.disc:
            raise IncompatibleDiscriminantForms("different discriminant forms")
        if self.sign != other.sign:
            raise IncompatibleDiscriminantForms("different exponent sign tags")

    def __add__(self, other):
        self._compat(other)
        den = lcm(self.den, other.den)
        trunc = min(self.trunc, other.trunc)
        out = {}
        for (num, mu), c in self.coeffs.items():
            out[(num * (den // self.den), mu)] = c
        for (num, mu), c in other.coeffs.items():
            k = (num * (den // other.den), mu)
            out[k] = out.get(k, Fraction(0)) + c
        return VVQSeries(self.disc, den, self.sign, trunc, out,
                         self.hecke_flag or other.hecke_flag)

    def scale(self, c):
        c = Fraction(c)
        return VVQSeries(self.disc, self.den, self.sign, self.trunc,
                         {k: v * c for k, v in self.coeffs.items()},
                         self.hecke_flag)

    def __mul__(self, other):
        if isinstance(other, VVQSeries):
            raise IncompatibleDiscriminantForms(
                "one factor must be scalar-valued")
        if not isinstance(other, ScalarQSeries):
            return self.scale(other)
        trunc = min(self.trunc + other.min_exp(), other.trunc + self.min_exp())
        out = {}
        for (num, mu), c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                n = num + e2 * self.den
                if Fraction(n, self.den) < trunc:
                    k = (n, mu)
                    out[k] = out.get(k, Fraction(0)) + c1 * c2
        return VVQSeries(self.disc, self.den, self.sign, trunc, out,
                         self.hecke_flag)

    __rmul__ = __mul__

    def mul_delta_pow(self, ell):
        """Multiply by Delta^ell; the pole order shifts by -ell."""
        ell = int(ell)
        if ell == 0:
            return self
        need = self.trunc + ell - self.min_exp() + 1
        d = delta_power(ell, max(need, ell + 1))
        return self * d

    def pole_order(self):
        """Largest m with a nonzero coefficient at exponent -m; None if holomorphic."""
        neg = [-Fraction(num, self.den) for (num, mu) in self.coeffs
               if num < 0]
        return max(neg) if neg else None

    def principal_part(self):
        entries = {}
        const = Fraction(0)
        zero = self.disc.zero()
        for (num, mu), c in self.coeffs.items():
            if num < 0:
                entries[(Fraction(-num, self.den), mu)] = c
            elif num == 0 and mu == zero:
                const = c
        return PrincipalPart(self.disc, entries, const, sign=self.sign)

    def __eq__(self, other):
        return isinstance(other, VVQSeries) and self.disc == other.disc and \
            self.sign == other.sign and self.trunc == other.trunc and \
            {(Fraction(n, self.den), mu): c for (n, mu), c in self.coeffs.items()} \
            == {(Fraction(n, other.den), mu): c
                for (n, mu), c in other.coeffs.items()}

    def __repr__(self):
        return (f"VVQSeries(den={self.den}, sign={'+' if self.sign > 0 else '-'}, "
                f"{len(self.coeffs)} terms, trunc={self.trunc})")


def zero_series(disc, den, sign, trunc):
    return VVQSeries(disc, den, sign, trunc, {})


class PrincipalPart:
    """Negative-exponent data (m, mu) -> c(-m, mu) plus the c(0,0) slot.

    Entries must be symmetric under mu <-> -mu and satisfy the congruence
    m = -sign * Q(mu) mod 1; both are construction-time requirements.
    """

    __slots__ = ("disc", "entries", "const_term", "sign")

    def __init__(self, disc, entries, const_term=0, sign=-1):
        if sign not in (1, -1):
            raise PreconditionError("sign tag must be +1 or -1")
        self.disc = disc
        self.sign = sign
        self.const_term = Fraction(const_term)
        clean = {}
        for (m, mu), c in entries.items():
            m = Fraction(m)
            mu = disc.check(mu)
            c = Fraction(c)
            if c == 0:
                continue
            if m <= 0:
                raise PreconditionError(f"principal-part index {m} must be > 0")
            if (m + sign * disc.q_value(mu)).denominator != 1:
                raise PreconditionError(
                    f"index {m} not congruent to {-sign}*Q({mu}) mod 1")
            clean[(m, mu)] = c
        for (m, mu), c in clean.items():
            neg = disc.neg(mu)
            if clean.get((m, neg)) != c:
                raise PreconditionError(
                    f"principal part not symmetric under mu <-> -mu at ({m}, {mu})")
        self.entries = clean

    @property
    def integral(self):
        return all(c.denominator == 1 for c in self.entries.values())

    def items(self):
        return sorted(self.entries.items())

    def pole_order(self):
        return max((m for m, _ in self.entries), default=None)

    def __eq__(self, other):
        return isinstance(other, PrincipalPart) and self.disc == other.disc \
            and self.entries == other.entries \
            and self.const_term == other.const_term and self.sign == other.sign

    def __repr__(self):
        return (f"PrincipalPart({len(self.entries)} entries, "
                f"const={self.const_term})")
