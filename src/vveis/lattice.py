"""Even lattices, their discriminant forms, and coset representation tests.

An even lattice is held as an integer Gram matrix of its bilinear form
(so the quadratic form is Q(x) = x^T G x / 2 and the diagonal must be even).
All derived invariants are computed in exact arithmetic.  One symmetric
Bareiss pass in Python ints (``linalg.sym_eliminate``) gives the
determinant, the signature and the LDL^T frame of the enumeration walk;
the discriminant group comes from the Smith normal form, bounded by
D = |det| (``linalg.smith_normal_form``), whose element encoding is that
of the unbounded elimination wherever its entries stay within +-D^2; a
lattice and its negation share one encoding (``discriminant_form``), which
gives the level.  The certified search radius reads G^-1 by Cramer's rule.
Vector searches (coset representation, theta counts, Witt witnesses)
share that one walk: Fincke-Pohst intervals on the scaled LDL^T frame for
definite lattices, a sup-norm box for indefinite ones (U. Fincke and
M. Pohst, Math. Comp. 44 (1985); H. Cohen, GTM 138, 2.7).  A definite coset query without a radius
is one walk, to the certified radius or to the widest box under its cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from operator import mul

from . import linalg
from .arith import factorize, valuation
from .errors import (
    BudgetExceeded,
    ConsistencyError,
    InconclusiveBoundedSearch,
    NotEven,
    NotSymmetric,
    PreconditionError,
    Singular,
)

class EvenLattice:
    """Non-degenerate even lattice given by an integer Gram matrix.

    Attributes: ``gram`` (tuple of tuples), ``rank``, ``sig_pos``/``sig_neg``
    (real signature) and ``det`` (determinant of the Gram matrix, sign
    included), read off one fraction-free elimination (``linalg.sym_eliminate``,
    also the walk's LDL^T frame): det = D_n, and the signs of D_k D_{k+1}
    give the signature.  ``level`` and ``_inv_diag`` are built when first read,
    into attributes set here: a cached_property would write ``__dict__``, which
    on CPython 3.11 slows every later attribute read of the lattice.
    """

    def __init__(self, gram):
        try:  # int() refuses "2.5", None and inf, Fraction() refuses b"2"
            rows = [tuple(map(int, row)) for row in gram]
            exact = all(type(x) is int or Fraction(x) == y
                        for row, r in zip(gram, rows) for x, y in zip(row, r))
        except (TypeError, ValueError, OverflowError):
            raise PreconditionError("gram entries must be integers") from None
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise PreconditionError("gram matrix must be square and non-empty")
        for i, (row, col) in enumerate(zip(rows, zip(*rows))):
            if row != col:
                raise NotSymmetric("gram matrix is not symmetric")
            if row[i] % 2 != 0:
                raise NotEven("gram diagonal must be even")
        if not exact:  # 2.5: after the shape, symmetry and parity checks
            raise PreconditionError("gram entries must be integers")
        self.gram = tuple(rows)
        self._hash = hash(self.gram)  # every lattice-keyed cache hashes it
        self.rank = n
        minors, _ = self._elim = linalg.sym_eliminate(rows)
        self.det = minors[-1]
        self.sig_pos = sum((a < 0) == (b < 0) for a, b in zip(minors, minors[1:]))
        self.sig_neg = n - self.sig_pos
        self._neg = self._level = self._inv = None

    @property
    def level(self):
        """The least N with N*Q integral on L'.  Q(l + g) = Q(l) + (l, g) + Q(g)
        with Q(l), (l, g) in Z for l in L, g in L', so the discriminant form's
        generators decide: Q(sum mu_k g_k) = mu^T M mu / (2 den^2), M its ``_gram``,
        so N = 2 den^2 / gcd(2 den^2, M_kk, 2 M_kl) over k < l (1 if L' = L)."""
        if self._level is None:
            disc = discriminant_form(self)
            big, m = 2 * disc._den ** 2, disc._gram
            self._level = big // gcd(big, *(row[k] for k, row in enumerate(m)),
                                     *(2 * x for k, row in enumerate(m) for x in row[k + 1:]))
        return self._level

    @property
    def _inv_diag(self):
        """The diagonal of G^-1 by Cramer's rule, (G^-1)_ii = det G_ii / det G as
        Fractions, G_ii being G without row and column i (0 if G_ii is singular)."""
        if self._inv is None:
            out = []
            for i in range(self.rank):
                minor = [row[:i] + row[i + 1:] for k, row in enumerate(self.gram) if k != i]
                try:
                    out.append(Fraction(linalg.sym_eliminate(minor)[0][-1], self.det))
                except Singular:
                    out.append(Fraction(0))
            self._inv = tuple(out)
        return self._inv

    def gram_times(self, s):
        """G s, for an integer vector s."""
        return [sum(map(mul, row, s)) for row in self.gram]

    def form(self, s, t):
        """s^T G t for integer vectors: the one evaluation of the form, behind
        ``q_value``, ``bilinear`` and the discriminant form."""
        return sum(map(mul, t, self.gram_times(s)))

    def q_value(self, vec):
        """Q(vec) for a rational vector in basis coordinates."""
        return self.bilinear(vec, vec) / 2

    def bilinear(self, v, w):
        if len(v) != self.rank or len(w) != self.rank:
            raise PreconditionError(f"vectors must have {self.rank} coordinates")
        dv, sv = linalg.integral([Fraction(x) for x in v])
        dw, sw = linalg.integral([Fraction(x) for x in w])
        return Fraction(self.form(sv, sw), dv * dw)

    def negated(self):
        """The lattice with Gram matrix -G (det (-1)^rank, signature swapped),
        built once from this one; negating that returns this lattice."""
        if self._neg is None:
            neg = object.__new__(EvenLattice)
            neg.gram = tuple(tuple(-x for x in row) for row in self.gram)
            neg._hash = hash(neg.gram)
            neg.rank = self.rank
            neg.det = self.det * (-1) ** self.rank
            neg.sig_pos, neg.sig_neg = self.sig_neg, self.sig_pos
            neg._elim = self._elim  # _frame reads only l and |d|, the same for -G
            neg._neg, neg._level, neg._inv = self, None, None
            self._neg = neg
        return self._neg

    @property
    def is_definite(self):
        return self.sig_pos == 0 or self.sig_neg == 0

    def __eq__(self, other):
        return isinstance(other, EvenLattice) and self.gram == other.gram

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"EvenLattice(rank={self.rank}, sig=({self.sig_pos},{self.sig_neg}), det={self.det})"


def new_lattice(gram):
    """Validate a Gram matrix and build the lattice."""
    return EvenLattice(gram)


@lru_cache(maxsize=None)
def bad_primes(lattice):
    """The primes dividing 2N (N the level), ascending; factored once per
    lattice."""
    return tuple(sorted(factorize(2 * lattice.level)))


class DiscriminantForm:
    """The finite quadratic module L'/L with a fixed element encoding.

    Elements are residue tuples against ``orders``, the coordinates of an
    element on ``gens``.  ``discriminant_form`` builds the one form of each
    lattice and so fixes its labels: the lattice or its negation, whichever
    has more positive directions (on equal signature, the larger Gram
    matrix as a tuple of rows), takes the generators of its Smith normal
    form, and the other side reuses them through ``negated()``, so L and
    L(-1) label their cosets alike however either was built.  The tuple of
    all zeros is the zero element, enumeration is lexicographic and
    ``index`` is the position in it.  Each element has one representative
    sum_k mu_k gens[k] in L', held as s / den in integers with den minimal
    (``coset``); Q(mu), the exact Q of that representative (``q_exact``)
    and ``bilinear`` come from the integer Gram matrix of the generators,
    Q(sum_k mu_k gens[k]) = mu^T M mu / (2 den^2) with M = den^2 (gens[k],
    gens[l]), in O(gens^2) per element.  The index-pair grid is decided
    here alone: ``first_numerator`` holds the rule m = Q(mu) mod 1, m >=
    low, which ``exponents`` and ``indices`` walk, and ``orbit`` names the
    one of {mu, -mu} standing for both.  ``strides[k]`` is the index of
    the k-th generator; the tables ``shifts`` and ``negs`` are built when
    first read, into attributes set in ``__init__``, as ``EvenLattice.level``.
    ``check`` validates an element once: after that the element is one
    dict lookup, and every method that takes an element goes through it.
    """

    def __init__(self, lattice, orders, gens):
        self.lattice = lattice
        self.orders = tuple(orders)
        self.gens = tuple(gens)
        # vector(mu)_r = sum_k mu_k cols[r][k] / den, gens[k][r] = cols[r][k] / den
        self._den, flat = linalg.integral([x for g in self.gens for x in g])
        self._cols = tuple(tuple(flat[r::lattice.rank]) for r in range(lattice.rank))
        vecs = [flat[k:k + lattice.rank] for k in range(0, len(flat), lattice.rank)]
        self._gram = tuple(tuple(lattice.form(a, b) for b in vecs) for a in vecs)  # M
        self.strides = tuple(prod(self.orders[k + 1:]) for k in range(len(self.orders)))
        self._elements = self._shifts = self._negs = self._neg = None
        self._checked = {}
        self._reps = {}

    @property
    def size(self):
        return prod(self.orders)

    def elements(self):
        """All elements in lexicographic order, each recorded as checked."""
        if self._elements is None:
            self._elements = [tuple(t) for t in itertools.product(
                *[range(d) for d in self.orders])] or [()]
            self._checked.update(zip(self._elements, self._elements))
        return self._elements

    def zero(self):
        return tuple(0 for _ in self.orders)

    def check(self, mu):
        """mu as the canonical int tuple of an element, or PreconditionError.

        An element seen before is one lookup in ``_checked``, which maps
        each validated tuple to itself.  An input tuple equal to it (bools,
        integral floats and Fractions, other int types) finds it and gets
        the int tuple that ``int`` would give; a complex entry with zero
        imaginary part, which ``int`` refuses, also finds it.  Any other
        input, lists included, is converted with ``int`` and range-checked,
        and recorded when valid.  ``elements()`` is never listed for this.
        """
        try:
            return self._checked[mu]
        except (KeyError, TypeError):  # unseen, or unhashable like a list
            pass
        mu = tuple(int(a) for a in mu)
        if len(mu) != len(self.orders) or any(
                not (0 <= a < d) for a, d in zip(mu, self.orders)):
            raise PreconditionError(f"not a discriminant element: {mu}")
        self._checked[mu] = mu
        return mu

    def check_pair(self, m, mu, nonnegative=False):
        """(Fraction(m), mu) for an element mu and m = Q(mu) mod 1, and m >= 0
        where ``nonnegative`` asks for it.

        An element seen before is one lookup in ``_reps``, which holds its
        canonical tuple; an unseen one goes through ``check`` first.  The
        checks run in this order: mu, the conversion of m, the sign of m,
        the congruence.  Both fractions are in lowest terms, so m - Q(mu) is
        an integer exactly when they share a denominator that divides the
        difference of their numerators: an int test, with no Fraction built.
        """
        try:
            rep = self._reps[mu]
        except (KeyError, TypeError):
            rep = self._rep(self.check(mu))
        if type(m) is not Fraction:
            m = Fraction(m)
        if nonnegative and m < 0:
            raise PreconditionError("m must be non-negative")
        q = rep[3]
        if m.denominator != q.denominator or (m.numerator - q.numerator) % q.denominator:
            raise PreconditionError("m must be congruent to Q(mu) mod 1")
        return m, rep[4]

    def index(self, mu):
        """The position of mu in ``elements()``."""
        return sum(map(mul, self.check(mu), self.strides))

    def _rep(self, mu):
        """(den, s, Q(s / den), Q mod 1, mu) for mu, built once: an element
        seen before is one lookup in ``_reps``, like ``check``, and the last
        entry is its canonical tuple."""
        try:
            return self._reps[mu]
        except (KeyError, TypeError):
            pass
        mu = self.check(mu)
        tot = [sum(map(mul, mu, col)) for col in self._cols]
        g = gcd(self._den, *tot)
        den, s = self._den // g, tuple(x // g for x in tot)
        q = Fraction(sum(x * sum(map(mul, mu, row)) for x, row in zip(mu, self._gram)),
                     2 * self._den ** 2)
        rep = self._reps[mu] = (den, s, q, q % 1, mu)
        return rep

    def coset(self, mu):
        """(den, s): vector(mu) = s / den, s an integer tuple, den minimal."""
        return self._rep(mu)[:2]

    def vector(self, mu):
        """A representative of mu in the dual lattice, in basis coordinates."""
        den, s = self.coset(mu)
        return tuple(Fraction(x, den) for x in s)

    def q_exact(self, mu):
        """Q(vector(mu)), not reduced mod 1."""
        return self._rep(mu)[2]

    def q_value(self, mu):
        """Q(mu) mod 1, in [0, 1)."""
        return self._rep(mu)[3]

    def bilinear(self, mu, nu):
        """(mu, nu) mod 1, in [0, 1): the polarization Q(mu+nu) - Q(mu) - Q(nu)."""
        mu, nu = self.check(mu), self.check(nu)
        total = tuple((a + b) % d for a, b, d in zip(mu, nu, self.orders))
        return (self.q_value(total) - self.q_value(mu) - self.q_value(nu)) % 1

    def order_of(self, mu):
        """The order of mu in L'/L: k vector(mu) lies in L exactly when den
        divides k, so it is the representative's minimal denominator."""
        return self._rep(mu)[0]

    def neg(self, mu):
        mu = self.check(mu)
        return tuple((d - a) % d for a, d in zip(mu, self.orders))

    def orbit(self, mu):
        """The member of {mu, -mu} that comes first in ``elements()``."""
        return min(self.check(mu), self.neg(mu))

    def first_numerator(self, mu, den, low=0):
        """den * m for the least m = Q(mu) mod 1 with m >= low, an int for a
        den that Q(mu) mod 1 lives over (the level, or its own denominator):
        the m >= low of mu are (n + k den) / den, k >= 0, for this n.  The
        one home of the index grid's rule; PreconditionError for any other
        den."""
        q = self.q_value(mu)
        n, rem = divmod(q.numerator * den, q.denominator)
        if rem:
            raise PreconditionError(f"Q(mu) mod 1 = {q} is not a multiple of 1/{den}")
        low = Fraction(low)
        # the least k with n + k den >= low den
        return n - den * ((n * low.denominator - low.numerator * den)
                          // (den * low.denominator))

    def exponents(self, mu, low=0):
        """The m = Q(mu) mod 1 with m >= low, ascending and endless."""
        den = self.q_value(mu).denominator
        return (Fraction(n, den) for n in itertools.count(
            self.first_numerator(mu, den, low), den))

    def indices(self, mu):
        """The positive m = Q(mu) mod 1, ascending and endless."""
        return self.exponents(mu, 0 if self.q_value(mu) else 1)

    @property
    def shifts(self):
        """shifts[k][x]: the index of x + gens[k], for the element of index x."""
        if self._shifts is None:
            self._shifts = tuple(tuple(x - (d - 1) * g if x // g % d == d - 1 else x + g
                                       for x in range(self.size))
                                 for d, g in zip(self.orders, self.strides))
        return self._shifts

    @property
    def negs(self):
        """negs[x]: the index of -x."""
        if self._negs is None:
            self._negs = tuple(self.index(self.neg(mu)) for mu in self.elements())
        return self._negs

    def negated(self):
        """The same generators over the negated lattice; built once, and
        negating that returns this form."""
        if self._neg is None:
            self._neg = DiscriminantForm(self.lattice.negated(), self.orders, self.gens)
            self._neg._neg = self
        return self._neg

    def __eq__(self, other):
        return (isinstance(other, DiscriminantForm)
                and self.lattice == other.lattice
                and self.orders == other.orders and self.gens == other.gens)

    def __hash__(self):
        return hash((self.lattice, self.orders, self.gens))


@lru_cache(maxsize=None)
def discriminant_form(lattice):
    """The one discriminant form of ``lattice``, which fixes its coset labels.

    Of the lattice and its negation, the side with more positive directions
    (on equal signature, the larger Gram matrix as a tuple of rows) runs the
    Smith normal form of its Gram matrix, bounded by D = |det|
    (``linalg.smith_normal_form``): its generators are those of the
    unbounded elimination wherever the entries stay within +-D^2, and
    another valid choice elsewhere (some GL_n(Z) conjugates, and E7 + A1
    among the root lattices).  The other side is that form's ``negated()``,
    so ``discriminant_form(L.negated()) is discriminant_form(L).negated()``
    for every lattice.
    """
    if lattice.sig_pos < lattice.sig_neg or (
            lattice.sig_pos == lattice.sig_neg and lattice.gram < lattice.negated().gram):
        return discriminant_form(lattice.negated()).negated()
    diag, v = linalg.smith_normal_form([list(r) for r in lattice.gram], lattice.det)
    # only the class mod L matters: keep coordinates in [0, 1)
    disc = DiscriminantForm(
        lattice, tuple(d for d in diag if d > 1),
        tuple(tuple(Fraction(row[i] % d, d) for row in v)
              for i, d in enumerate(diag) if d > 1))
    if disc.size != abs(lattice.det):
        raise ConsistencyError(
            f"|L'/L| = {disc.size} but |det G| = {abs(lattice.det)}")
    return disc


def disc_of(lattice, disc=None):
    """The lattice's one form; ``disc`` (kept on ``eis_expansion`` and
    ``count_gauss``, as the benchmark workloads pass it) is only a handle on
    it, so a form of another lattice, or one labelling this lattice's cosets
    another way, raises PreconditionError."""
    own = discriminant_form(lattice)
    if disc is not None and disc is not own and disc != own:
        raise PreconditionError("disc does not belong to this lattice")
    return own


class RepResult(Enum):
    """Outcome of a coset representation test."""

    REPRESENTED = "represented"
    NOT_REPRESENTED = "not-represented"
    NOT_WITHIN_RADIUS = "not-within-radius"
    INCONCLUSIVE = "inconclusive"

    @property
    def is_yes(self):
        return self is RepResult.REPRESENTED


@lru_cache(maxsize=None)
def _frame(lattice):
    """Integer data for the enumeration walk ``_walk``: (sign, scale, levels).

    Coordinates z are scaled, z = den * (x + shift).  With C_k =
    sum_{j>k} row_k[j-k-1] * z_j, the walk's value splits by coordinate,

        scale * sign * z^T G z = sum_k alpha_k z_k^2 + beta_k C_k z_k + gamma_k C_k^2,

    where sign = -1 on negative definite lattices and +1 otherwise.  On a
    definite lattice the terms are the exact LDL^T decomposition of
    sign * G, cleared of denominators: a pivot P_k times (lden z_k + C_k)^2,
    so every partial sum bounds the whole (Fincke-Pohst).  The decomposition
    is read off the lattice's Bareiss pass: l_kj = R_kj / R_kk and pivots
    |D_{k+1} / D_k|.  On an indefinite lattice the terms are the Gram rows
    themselves (g_kk z_k^2 + 2 C_k z_k, scale 1), which bound nothing: the
    walk then covers its box.
    """
    sign = -1 if lattice.sig_pos == 0 else 1
    if not lattice.is_definite:
        return sign, 1, tuple((row[k + 1:], row[k], 2, 0)
                              for k, row in enumerate(lattice.gram))
    # sign * z^T G z = sum_k d[k] (z_k + sum_{j>k} l[k][j-k-1] z_j)^2.  No
    # pivot moves on a definite matrix, and a negated lattice shares the pass
    # of G: the same l, pivots of the opposite sign, hence |d|
    minors, rows = lattice._elim
    lden = lcm(1, *(row[k] // gcd(x, row[k]) for k, row in enumerate(rows)
                    for x in row[k + 1:]))
    dden = lcm(*(a // gcd(a, b) for a, b in zip(minors, minors[1:])))
    levels = []
    for k, row in enumerate(rows):
        p = abs(minors[k + 1] * dden // minors[k])
        levels.append((tuple(x * lden // row[k] for x in row[k + 1:]),
                       p * lden * lden, 2 * p * lden, p))
    return sign, dden * lden * lden, tuple(levels)


def _walk(lattice, s, den, radius, limit, exact, visit):
    """The one lattice enumeration: call visit(z, v) on every scaled point.

    The points are z = den * x + s for integer x with |x_i| <= radius
    (radius None: no box, definite lattices only), and v is their value in
    the frame of ``_frame``.  Coordinates run from the last to the first.
    On a definite lattice each runs over the exact Fincke-Pohst interval of
    the partial value, v <= limit, cut to the box; on an indefinite one over
    the box.  With ``exact`` only v == limit is visited, and the first
    coordinate is then solved in closed form: an integer root of a
    quadratic, or of a linear equation where its diagonal entry is 0, kept
    when it is congruent to its shift mod den.  All arithmetic is on Python
    ints.  visit returning True stops the walk, and _walk returns True.

    With ``exact``, the loop over x_1 does not solve for z_0 at every
    point.  The discriminant b^2 - 4 a_0 rest of that quadratic is itself
    an integer quadratic in z_1 = den x_1 + s_1,

        D(z_1) = (b_0^2 - 4 a_0 g_0) (r_0 z_1 + c_0)^2
                 - 4 a_0 (alpha z_1^2 + beta C_1 z_1 + rest_1),

    stepped along the run with two integer differences (D += d_1; d_1 +=
    d_2, with d_2 = 2 den^2 times D's leading coefficient); the root, the
    congruence, the box and the half-space rule run only where D >= 0 is a
    perfect square.  Where a_0 = 0 the equation for z_0 is linear, D =
    b_0^2 (r_0 z_1 + c_0)^2 is always a square, and every x_1 goes to the
    closed form without the test.

    On the zero coset (s = 0) the value is even in z, so the walk covers one
    half-space, the origin and each z whose last nonzero coordinate is
    positive: a level whose later coordinates are all 0 starts at 0, and so
    does the closed-form root there.  The caller accounts for -z.
    """
    _, _, levels = _frame(lattice)
    definite = lattice.is_definite
    row0, a0, b0, g0 = levels[0]
    e0 = b0 * b0 - 4 * a0 * g0
    s0 = s[0]
    half0 = not any(s)

    def last(c, v, zs, half):  # the z_0 completing zs to limit; c = C_0, v = value - limit
        b = b0 * c
        rest = g0 * c * c + v
        if a0:
            disc = b * b - 4 * a0 * rest
            if disc < 0:
                return False
            sq = isqrt(disc)
            if sq * sq != disc:
                return False
            nums = (-b - sq, sq - b) if sq else (-b,)
            roots = [num // (2 * a0) for num in nums if num % (2 * a0) == 0]
        elif b:
            roots = [-rest // b] if rest % b == 0 else []
        elif rest:
            return False
        else:  # the value does not depend on z_0
            roots = range(s0 - den * radius, s0 + den * radius + 1, den)
        for z0 in roots:
            x0, off = divmod(z0 - s0, den)
            if not off and (radius is None or -radius <= x0 <= radius) \
                    and not (half and z0 < 0) and visit((z0,) + zs, limit):
                return True
        return False

    def rec(k, used, zs, half):
        row, alpha, beta, gamma = levels[k]
        c = sum(map(mul, row, zs))
        b = beta * c
        rest = gamma * c * c + used - limit
        sk = s[k]
        if definite:  # alpha z^2 + b z + rest <= 0
            disc = b * b - 4 * alpha * rest
            if disc < 0:
                return False
            sq = isqrt(disc)
            lo = -((sk + (b + sq) // (2 * alpha)) // den)
            hi = ((sq - b) // (2 * alpha) - sk) // den
            if radius is not None:
                lo, hi = max(lo, -radius), min(hi, radius)
        else:
            lo, hi = -radius, radius
        if half:
            lo = max(lo, 0)
        if exact and k == 1:
            # last's discriminant as a quadratic in z_1, stepped in differences
            r0, c0 = row0[0], sum(map(mul, row0[1:], zs))
            qa = e0 * r0 * r0 - 4 * a0 * alpha
            qb = 2 * e0 * r0 * c0 - 4 * a0 * b
            zk = den * lo + sk
            disc = (qa * zk + qb) * zk + e0 * c0 * c0 - 4 * a0 * rest
            step = (qa * (2 * zk + den) + qb) * den
            accel = 2 * qa * den * den
            for xk in range(lo, hi + 1):
                if not a0 or disc >= 0 and isqrt(disc) ** 2 == disc:
                    zk = den * xk + sk
                    if last(r0 * zk + c0, (alpha * zk + b) * zk + rest, (zk,) + zs,
                            half and not xk):
                        return True
                disc += step
                step += accel
            return False
        for xk in range(lo, hi + 1):
            zk = den * xk + sk
            v = (alpha * zk + b) * zk + rest + limit
            if k == 0:
                if visit((zk,) + zs, v):
                    return True
            elif rec(k - 1, v, (zk,) + zs, half and not xk):
                return True
        return False

    if exact and lattice.rank == 1:
        return last(0, -limit, (), half0)
    return rec(lattice.rank - 1, 0, (), half0)


def _box_search(lattice, den, s, target_m, radius, cap=None, visit=None):
    """Call visit(x) on each x in [-radius, radius]^n with Q(x + s / den) = target_m.

    One exact ``_walk`` over the integer coset (den, s) with the value as its
    target.  On the zero coset the walk covers one half-space, and each
    x != 0 it finds is handed to visit as x and then -x, so visit still
    sees every solution once.  visit returning True stops the search, which
    then returns True; without visit the first such x stops it, so the
    result says whether the box holds one.  The cap rule counts the box,
    (2 radius + 1)^n points, not the points the walk visits.  The walk's
    cost is its runs over x_1, one integer step and a perfect-square test
    per point; the closed form runs only where the test passes.
    """
    n = lattice.rank
    q = Fraction(target_m)
    target, off = divmod(2 * den * den * q.numerator, q.denominator)
    if off:
        return False
    side = 2 * radius + 1
    if cap is not None and side ** n > cap:
        raise BudgetExceeded(f"box of size {side}^{n} exceeds cap {cap}")
    sign, scale, _ = _frame(lattice)
    half = not any(s)

    def found(z, v):
        x = tuple((a - b) // den for a, b in zip(z, s))
        return visit is None or visit(x) or (half and any(x) and visit(tuple(-a for a in x)))

    return _walk(lattice, s, den, radius, sign * scale * target, True, found)


def _local_everywhere(lattice, m, mu):
    from . import repnums  # deferred: repnums depends on this module

    return all(n for _, _, n in repnums.local_counts(lattice, m, mu))


def coset_represents(lattice, m, mu, radius=None, cap=10 ** 8):
    """Does some vector of the coset mu + L have Q-value exactly m?

    Indefinite lattices of rank >= 4 are decided purely locally (counts at
    the primes dividing 2N plus the real sign condition): for the lattice
    itself by Kneser (Math. Z. 77, 1961), for other cosets checked only
    empirically, against box witnesses.  Definite lattices
    and indefinite lattices of rank <= 3 search the sup-norm box
    [-radius, radius]^rank around the coset representative for a witness.
    The search is one exact integer walk: on a definite lattice each
    coordinate runs over its Fincke-Pohst interval cut to the box, on an
    indefinite one over the box, and the last coordinate is solved in
    closed form.  Definite gives NOT_WITHIN_RADIUS on failure (definitive
    once the radius reaches the certified radius), the indefinite box gives
    INCONCLUSIVE.  A given radius whose box holds more than ``cap`` points
    raises BudgetExceeded.  Without a radius a definite lattice is walked
    once, at the certified radius, or at the largest r with (2r + 1)^rank
    <= cap where that box would exceed the cap.
    """
    disc = discriminant_form(lattice)
    m, mu = disc.check_pair(m, mu)
    coset = disc.coset(mu)

    if lattice.is_definite:
        sign = 1 if lattice.sig_neg == 0 else -1
        if m == 0:
            return RepResult.REPRESENTED if mu == disc.zero() else RepResult.NOT_REPRESENTED
        if (m > 0) != (sign > 0):
            return RepResult.NOT_REPRESENTED
        if radius is not None:
            if _box_search(lattice, *coset, m, radius, cap=cap):
                return RepResult.REPRESENTED
            return RepResult.NOT_WITHIN_RADIUS
        # one walk, to the certified radius or to the widest box under the cap
        r = certified_radius(lattice, m, *coset)
        if (2 * r + 1) ** lattice.rank > cap:
            r = _widest_radius(cap, lattice.rank, r)
        if r >= 0 and _box_search(lattice, *coset, m, r):
            return RepResult.REPRESENTED
        return RepResult.NOT_WITHIN_RADIUS

    if lattice.rank >= 4:
        if m == 0:
            raise PreconditionError("m = 0 is not supported on the local path")
        if m > 0 and lattice.sig_pos == 0:
            return RepResult.NOT_REPRESENTED
        if m < 0 and lattice.sig_neg == 0:
            return RepResult.NOT_REPRESENTED
        return (RepResult.REPRESENTED if _local_everywhere(lattice, m, mu)
                else RepResult.NOT_REPRESENTED)

    if radius is None:
        radius = 10
    if _box_search(lattice, *coset, m, radius, cap=cap):
        return RepResult.REPRESENTED
    return RepResult.INCONCLUSIVE


def admissibility(lattice, m, mu, bound_a=None):
    """Why the index pair (m, mu) is not admissible, or None when it is.

    The one admissibility rule, checked in order: m > 0, m = Q(mu) mod 1,
    ord_p(m) <= bound_a at every p | 2N (skipped when bound_a is None), and
    mu + L represents m.  Q(-x) = Q(x), so (m, mu) and (m, -mu) share one
    verdict: the search runs on mu, and on -mu only when mu is not
    REPRESENTED.  An inconclusive bounded search is a rejection.
    """
    disc = discriminant_form(lattice)
    m, mu = Fraction(m), disc.check(mu)
    if m <= 0:
        return "index must be positive"
    if (m - disc.q_value(mu)).denominator != 1:
        return f"{m} is not congruent to Q(mu) mod 1"
    for p in bad_primes(lattice) if bound_a is not None else ():
        if valuation(m, p) > bound_a:
            return f"ord_{p}({m}) exceeds the valuation bound {bound_a}"
    res = coset_represents(lattice, m, mu)
    neg = disc.neg(mu)
    if res.is_yes or (neg != mu and coset_represents(lattice, m, neg).is_yes):
        return None
    return f"representability check returned {res.name}"


def _widest_radius(cap, n, hi):
    """Largest r < hi with (2r + 1)^n <= cap, by bisection; -1 if none."""
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (2 * mid + 1) ** n <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def certified_radius(lattice, m, den, s):
    """Sup-norm radius covering all Q = m vectors of a definite coset s / den.

    For definite G, any x with Q(x) = m has x_i^2 <= 2|m| * |(G^-1)_ii|; the
    coset widens the box by the size of its representative.  The bound is
    floor(2|m| |(G^-1)_ii|), maximal over i, in ints from the numerators
    and denominators (floor commutes with max), and its isqrt the radius.
    """
    m = Fraction(m)
    num, dm = 2 * abs(m.numerator), m.denominator
    bound = max(num * abs(x.numerator) // (dm * x.denominator) for x in lattice._inv_diag)
    return isqrt(bound) + max(map(abs, s), default=0) // den + 2


_T_MU_CAP = 64  # the largest value t_mu tries before giving up


def t_mu(lattice, mu):
    """Smallest positive value of -Q on the coset mu + L, for L of signature (n, 2).

    Candidates are the negated form's ``indices(mu)`` up to ``_T_MU_CAP``,
    tested on the negated lattice (signature (2, n), where -Q attains
    positive values, and mu labels the same coset); n = 1 uses the bounded
    search and may raise InconclusiveBoundedSearch.
    """
    if lattice.sig_neg != 2 or lattice.sig_pos < 1:
        raise PreconditionError("expected a lattice of signature (n, 2), n >= 1")
    mu = discriminant_form(lattice).check(mu)
    neg = lattice.negated()
    for v in itertools.takewhile(lambda v: v <= _T_MU_CAP,
                                 discriminant_form(neg).indices(mu)):
        res = coset_represents(neg, v, mu)
        if res is RepResult.REPRESENTED:
            return v
        if res is not RepResult.NOT_REPRESENTED:
            raise InconclusiveBoundedSearch(
                f"bounded search could not decide -Q = {v} on coset {mu}")
    raise BudgetExceeded(f"no represented value below cap {_T_MU_CAP} for coset {mu}")


@lru_cache(maxsize=None)
def t_max(lattice):
    """max over mu of ``t_mu``; memoized, since ``decompose`` and its
    ``build_h`` ask for it on the same lattice (one through ``negated()``)."""
    return max(t_mu(lattice, mu) for mu in discriminant_form(lattice).elements())


@dataclass(frozen=True)
class WittReport:
    lower_bound: int
    exact: bool


def witt_rank_bounded(lattice, radius=2, cap=2 * 10 ** 6):
    """Certified lower bound for the Witt rank from a bounded vector search.

    The isotropic vectors of the box [-radius, radius]^rank come from one
    exact ``_box_search`` with target 0, the first coordinate solved in
    closed form; it runs only when the box has at most ``cap`` points.  One
    of them certifies Witt rank >= 1, an orthogonal independent pair >= 2.
    The bound is flagged exact when it reaches min(sig) or rank arguments
    force the answer (definite lattices; indefinite rank >= 5 has an
    isotropic vector, so min(sig) = 1 is decided without a witness).
    """
    cap_wr = min(lattice.sig_pos, lattice.sig_neg)
    if cap_wr == 0:
        return WittReport(0, True)
    lb = 1 if lattice.rank >= 5 else 0  # indefinite rank >= 5: isotropic vector exists
    n = lattice.rank
    if (2 * radius + 1) ** n <= cap:
        isotropic = []

        def keep(x):
            if any(x):
                isotropic.append(x)

        _box_search(lattice, 1, [0] * n, 0, radius, visit=keep)
        if isotropic:
            lb = max(lb, 1)
        images = [lattice.gram_times(v) for v in isotropic]
        for (v, gv), (w, _) in itertools.combinations(zip(isotropic, images), 2):
            if sum(map(mul, gv, w)) == 0 and _independent(v, w):
                lb = max(lb, 2)
                break
    return WittReport(lb, lb == cap_wr)


def _independent(v, w):
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if v[i] * w[j] - v[j] * w[i] != 0:
                return True
    return False


def theta_counts(lattice, max_q):
    """Exact vector counts {m: #{x in L : Q(x) = m}} for 0 < m <= max_q.

    Positive definite lattices only.  One exact ``_walk`` without a box:
    every coordinate runs over its Fincke-Pohst interval of the scaled
    LDL^T frame, in integers.  The walk covers one half-space of the zero
    coset, so each point it visits stands for the pair {x, -x} and counts
    2.  Independent of the analytic machinery, which it is the enumeration
    oracle for.
    """
    if lattice.sig_neg != 0:
        raise PreconditionError("theta_counts needs a positive definite lattice")
    _, scale, _ = _frame(lattice)
    den = 2 * scale  # the walk's value is 2 * scale * Q
    counts = {}

    def visit(z, v):
        counts[v] = counts.get(v, 0) + 2

    bound = Fraction(max_q) * den
    _walk(lattice, [0] * lattice.rank, 1, None, bound.numerator // bound.denominator,
          False, visit)
    return {Fraction(v, den): k for v, k in counts.items() if v}
