"""Even lattices, their discriminant forms, and coset representation tests.

An even lattice is held as an integer Gram matrix of its bilinear form
(so the quadratic form is Q(x) = x^T G x / 2 and the diagonal must be even).
All derived invariants (signature, determinant, level, discriminant group)
are computed in exact arithmetic; the only numerics here are int64 box
enumerations, which are exact integer computations as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

import numpy as np

from . import linalg
from .arith import factorize
from .errors import (
    BudgetExceeded,
    InconclusiveBoundedSearch,
    NotEven,
    NotSymmetric,
    PreconditionError,
    Singular,
)

_BOX_CHUNK = 1 << 19  # rows per vectorized block in box enumerations


class EvenLattice:
    """Non-degenerate even lattice given by an integer Gram matrix.

    Attributes: ``gram`` (tuple of tuples), ``rank``, ``sig_pos``/``sig_neg``
    (real signature), ``det`` (determinant of the Gram matrix, sign included)
    and ``level`` (smallest N with N*Q integral on the dual lattice).
    """

    def __init__(self, gram):
        rows = [tuple(int(x) for x in row) for row in gram]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise PreconditionError("gram matrix must be square and non-empty")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric("gram matrix is not symmetric")
            if rows[i][i] % 2 != 0:
                raise NotEven("gram diagonal must be even")
        for i, row in enumerate(gram):
            for j, x in enumerate(row):
                if Fraction(x) != rows[i][j]:
                    raise PreconditionError("gram entries must be integers")
        self.gram = tuple(rows)
        self.rank = n
        self.det = linalg.det_int(rows)
        if self.det == 0:
            raise Singular("gram matrix is singular")
        diag, _ = linalg.congruent_diagonalize(rows)
        self.sig_pos = sum(1 for d in diag if d > 0)
        self.sig_neg = sum(1 for d in diag if d < 0)
        inv = linalg.inverse(rows)
        dens = [Fraction(inv[i][i], 2).denominator for i in range(n)]
        dens += [inv[i][j].denominator for i in range(n) for j in range(n) if i != j]
        self.level = lcm(*dens)
        self._neg = None

    def q_value(self, vec):
        """Q(vec) for a rational vector in basis coordinates."""
        v = [Fraction(x) for x in vec]
        return sum(self.gram[i][j] * v[i] * v[j]
                   for i in range(self.rank) for j in range(self.rank)) / 2

    def bilinear(self, v, w):
        return sum(self.gram[i][j] * Fraction(v[i]) * Fraction(w[j])
                   for i in range(self.rank) for j in range(self.rank))

    def negated(self):
        """The lattice with Gram matrix -G, derived from this one's invariants
        (det (-1)^rank, signature swapped, same level); built once, and
        negating that returns this lattice."""
        if self._neg is None:
            neg = object.__new__(EvenLattice)
            neg.gram = tuple(tuple(-x for x in row) for row in self.gram)
            neg.rank = self.rank
            neg.det = self.det * (-1) ** self.rank
            neg.sig_pos, neg.sig_neg = self.sig_neg, self.sig_pos
            neg.level = self.level
            neg._neg = self
            self._neg = neg
        return self._neg

    @property
    def is_definite(self):
        return self.sig_pos == 0 or self.sig_neg == 0

    def __eq__(self, other):
        return isinstance(other, EvenLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"EvenLattice(rank={self.rank}, sig=({self.sig_pos},{self.sig_neg}), det={self.det})"


def new_lattice(gram):
    """Validate a Gram matrix and build the lattice."""
    return EvenLattice(gram)


def bad_primes(lattice):
    """The primes dividing 2N (N the level), ascending."""
    return tuple(sorted(factorize(2 * lattice.level)))


class DiscriminantForm:
    """The finite quadratic module L'/L with a fixed element encoding.

    Elements are residue tuples against the nontrivial invariant factors of
    the Smith normal form of the Gram matrix; the tuple of all zeros is the
    zero element and enumeration is lexicographic.  ``negated()`` reuses the
    same generators over the negated lattice so element encodings agree
    between L and L^- pipelines.
    """

    def __init__(self, lattice, orders=None, gens=None):
        self.lattice = lattice
        if orders is None:
            diag, _, v = linalg.smith_normal_form([list(r) for r in lattice.gram])
            orders, gens = [], []
            for i, d in enumerate(diag):
                if d > 1:
                    orders.append(d)
                    # only the class mod L matters: keep coordinates in [0, 1)
                    gens.append(tuple(Fraction(v[r][i] % d, d)
                                      for r in range(lattice.rank)))
            orders = tuple(orders)
            gens = tuple(gens)
        self.orders = tuple(orders)
        self.gens = tuple(gens)
        self._elements = None
        self._qcache = {}
        self._vcache = {}
        self._neg = None

    @property
    def size(self):
        return prod(self.orders) if self.orders else 1

    def elements(self):
        if self._elements is None:
            self._elements = [tuple(t) for t in itertools.product(
                *[range(d) for d in self.orders])] or [()]
        return self._elements

    def zero(self):
        return tuple(0 for _ in self.orders)

    def check(self, mu):
        mu = tuple(int(a) for a in mu)
        if len(mu) != len(self.orders) or any(
                not (0 <= a < d) for a, d in zip(mu, self.orders)):
            raise PreconditionError(f"not a discriminant element: {mu}")
        return mu

    def vector(self, mu):
        """A representative of mu in the dual lattice, in basis coordinates."""
        mu = self.check(mu)
        if mu not in self._vcache:
            v = [Fraction(0)] * self.lattice.rank
            for a, g in zip(mu, self.gens):
                for r in range(self.lattice.rank):
                    v[r] += a * g[r]
            self._vcache[mu] = tuple(v)
        return self._vcache[mu]

    def q_value(self, mu):
        """Q(mu) mod 1, in [0, 1)."""
        mu = self.check(mu)
        if mu not in self._qcache:
            q = self.lattice.q_value(self.vector(mu))
            self._qcache[mu] = q - (q.numerator // q.denominator)
        return self._qcache[mu]

    def bilinear(self, mu, nu):
        """(mu, nu) mod 1, in [0, 1)."""
        b = self.lattice.bilinear(self.vector(mu), self.vector(nu))
        return b - (b.numerator // b.denominator)

    def order_of(self, mu):
        mu = self.check(mu)
        return lcm(*[d // gcd(a, d) for a, d in zip(mu, self.orders)]) if mu else 1

    def neg(self, mu):
        mu = self.check(mu)
        return tuple((d - a) % d for a, d in zip(mu, self.orders))

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
    disc = DiscriminantForm(lattice)
    assert disc.size == abs(lattice.det)
    return disc


class RepResult(Enum):
    """Outcome of a coset representation test."""

    REPRESENTED = "represented"
    NOT_REPRESENTED = "not-represented"
    NOT_WITHIN_RADIUS = "not-within-radius"
    INCONCLUSIVE = "inconclusive"

    @property
    def is_yes(self):
        return self is RepResult.REPRESENTED


def _frac_sqrt_floor(x):
    """Largest integer k >= 0 with k^2 <= x, for a non-negative Fraction."""
    if x < 0:
        raise ValueError("negative radicand")
    k = isqrt(x.numerator // x.denominator)
    while (k + 1) * (k + 1) <= x:
        k += 1
    return k


def _box_has_value(lattice, shift, target_m, radius, cap=None):
    """Search x in [-radius, radius]^n for Q(x + shift) == target_m.

    Exact integer arithmetic on scaled vectors z = d*(x + shift); vectorized
    in blocks.  Returns True on first hit.
    """
    n = lattice.rank
    den = lcm(*[Fraction(s).denominator for s in shift], 1)
    s_int = [int(Fraction(s) * den) for s in shift]
    target = Fraction(target_m) * 2 * den * den
    if target.denominator != 1:
        return False
    target = int(target)
    side = 2 * radius + 1
    if cap is not None and side ** n > cap:
        raise BudgetExceeded(f"box of size {side}^{n} exceeds cap {cap}")
    g = np.array(lattice.gram, dtype=np.int64)
    # cap the magnitude so int64 stays exact
    zmax = den * (radius + 1) + max(abs(v) for v in s_int)
    bound = n * n * int(np.abs(g).max()) * zmax * zmax
    dtype = np.int64 if bound < 2 ** 62 else object
    kv = 0
    while kv < n and side ** (kv + 1) <= _BOX_CHUNK:
        kv += 1
    kf = n - kv
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    inner = np.array(list(itertools.product(rng.tolist(), repeat=kv)), dtype=dtype)
    zv = inner * den + np.array(s_int[kf:], dtype=dtype)
    gvv = g[kf:, kf:].astype(dtype)
    gfv = g[:kf, kf:].astype(dtype)
    qv = (zv @ gvv * zv).sum(axis=1)
    for xf in itertools.product(rng.tolist(), repeat=kf):
        zf = np.array(xf, dtype=dtype) * den + np.array(s_int[:kf], dtype=dtype)
        if kf:
            c0 = int(zf @ g[:kf, :kf].astype(dtype) @ zf)
            lin = 2 * (zv @ (gfv.T @ zf))
            vals = qv + lin + c0
        else:
            vals = qv
        if np.any(vals == target):
            return True
    return False


def _local_everywhere(lattice, m, mu, disc):
    from . import repnums  # deferred: repnums depends on this module

    return all(n for _, _, n in repnums.local_counts(lattice, m, mu, disc))


def coset_represents(lattice, m, mu, radius=None, cap=10 ** 8, disc=None):
    """Does some vector of the coset mu + L have Q-value exactly m?

    Indefinite lattices of rank >= 4 are decided purely locally (counts at
    the primes dividing 2N plus the real sign condition).  Definite lattices
    and indefinite rank-3 lattices use a sup-norm box search: definite gives
    NOT_WITHIN_RADIUS on failure (definitive once the radius reaches the
    printed certified radius), rank 3 gives INCONCLUSIVE.

    ``disc`` fixes the element encoding; it defaults to the lattice's own
    discriminant form and must describe the same lattice when supplied.
    """
    if disc is None:
        disc = discriminant_form(lattice)
    if disc.lattice != lattice:
        raise PreconditionError("disc does not belong to this lattice")
    mu = disc.check(mu)
    m = Fraction(m)
    if (m - disc.q_value(mu)).denominator != 1:
        raise PreconditionError("m must be congruent to Q(mu) mod 1")
    shift = disc.vector(mu)

    if lattice.is_definite:
        sign = 1 if lattice.sig_neg == 0 else -1
        if m == 0:
            return RepResult.REPRESENTED if mu == disc.zero() else RepResult.NOT_REPRESENTED
        if (m > 0) != (sign > 0):
            return RepResult.NOT_REPRESENTED
        if radius is not None:
            if _box_has_value(lattice, shift, m, radius, cap=cap):
                return RepResult.REPRESENTED
            return RepResult.NOT_WITHIN_RADIUS
        # a witness needs no certificate: grow the box and only insist on
        # the certified radius to conclude absence
        cert = certified_radius(lattice, m, shift)
        r = 1
        while True:
            r_eff = min(r, cert)
            if (2 * r_eff + 1) ** lattice.rank > cap:
                return RepResult.NOT_WITHIN_RADIUS
            if _box_has_value(lattice, shift, m, r_eff, cap=cap):
                return RepResult.REPRESENTED
            if r_eff == cert:
                return RepResult.NOT_WITHIN_RADIUS
            r *= 2

    if lattice.rank >= 4:
        if m == 0:
            raise PreconditionError("m = 0 is not supported on the local path")
        if m > 0 and lattice.sig_pos == 0:
            return RepResult.NOT_REPRESENTED
        if m < 0 and lattice.sig_neg == 0:
            return RepResult.NOT_REPRESENTED
        return (RepResult.REPRESENTED if _local_everywhere(lattice, m, mu, disc)
                else RepResult.NOT_REPRESENTED)

    if radius is None:
        radius = 10
    if _box_has_value(lattice, shift, m, radius, cap=cap):
        return RepResult.REPRESENTED
    return RepResult.INCONCLUSIVE


def certified_radius(lattice, m, shift=None):
    """Sup-norm radius certainly covering all Q = m vectors of a definite coset.

    For definite G, any x with Q(x) = m has x_i^2 <= 2|m| * |(G^-1)_ii|; the
    shift widens the box by the size of the coset representative.
    """
    inv = linalg.inverse(lattice.gram)
    bound = max(abs(2 * Fraction(m) * inv[i][i]) for i in range(lattice.rank))
    radius = _frac_sqrt_floor(bound) + 1
    if shift is not None:
        extra = max((abs(Fraction(s)) for s in shift), default=Fraction(0))
        radius += int(extra) + 1
    return radius


def t_mu(lattice, mu, radius=None, cap=64, disc=None):
    """Smallest positive value of -Q on the coset mu + L, for L of signature (n, 2).

    Candidates walk the arithmetic progression forced by -Q(mu) mod 1 and are
    tested on the negated lattice (signature (2, n), where -Q attains positive
    values); n = 1 uses the bounded search and may raise
    InconclusiveBoundedSearch.  Element encoding is shared with the input
    lattice's discriminant form.
    """
    if lattice.sig_neg != 2 or lattice.sig_pos < 1:
        raise PreconditionError("expected a lattice of signature (n, 2), n >= 1")
    if disc is None:
        disc = discriminant_form(lattice)
    mu = disc.check(mu)
    neg = lattice.negated()
    disc_neg = disc.negated()
    v = disc_neg.q_value(mu)  # -Q(mu) mod 1
    if v == 0:
        v = Fraction(1)
    while v <= cap:
        res = coset_represents(neg, v, mu, radius=radius, disc=disc_neg)
        if res is RepResult.REPRESENTED:
            return v
        if res is not RepResult.NOT_REPRESENTED:
            raise InconclusiveBoundedSearch(
                f"bounded search could not decide -Q = {v} on coset {mu}")
        v += 1
    raise BudgetExceeded(f"no represented value below cap {cap} for coset {mu}")


def t_max(lattice, radius=None, disc=None):
    if disc is None:
        disc = discriminant_form(lattice)
    return max(t_mu(lattice, mu, radius=radius, disc=disc)
               for mu in disc.elements())


@dataclass(frozen=True)
class WittReport:
    lower_bound: int
    exact: bool


def witt_rank_bounded(lattice, radius=2, cap=2 * 10 ** 6):
    """Certified lower bound for the Witt rank from a bounded vector search.

    The bound is flagged exact when it reaches min(sig) or rank arguments
    force the answer (definite lattices; indefinite rank >= 5 has an
    isotropic vector, so min(sig) = 1 is decided without a witness).
    """
    cap_wr = min(lattice.sig_pos, lattice.sig_neg)
    if cap_wr == 0:
        return WittReport(0, True)
    lb = 1 if lattice.rank >= 5 else 0  # indefinite rank >= 5: isotropic vector exists
    side = 2 * radius + 1
    isotropic = []
    if side ** lattice.rank <= cap:
        rng = range(-radius, radius + 1)
        for x in itertools.product(rng, repeat=lattice.rank):
            if any(x) and lattice.q_value(x) == 0:
                isotropic.append(x)
        if isotropic:
            lb = max(lb, 1)
        for v, w in itertools.combinations(isotropic, 2):
            if lattice.bilinear(v, w) == 0 and _independent(v, w):
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

    Positive definite lattices only.  Independent branch-and-bound walk of
    the exact Cholesky decomposition of Q; used as the enumeration oracle
    against the analytic machinery.
    """
    if lattice.sig_neg != 0:
        raise PreconditionError("theta_counts needs a positive definite lattice")
    n = lattice.rank
    half = [[Fraction(x, 2) for x in row] for row in lattice.gram]
    # q[i], c[i][j]: Q(x) = sum_i q[i] * (x_i + sum_{j>i} c[i][j] x_j)^2
    q = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    a = [row[:] for row in half]
    for i in range(n):
        q[i] = a[i][i]
        for j in range(i + 1, n):
            c[i][j] = a[i][j] / a[i][i]
        for r in range(i + 1, n):
            for s in range(i + 1, n):
                a[r][s] -= a[i][r] * a[i][s] / a[i][i]
    counts = {}
    budget = Fraction(max_q)
    x = [0] * n

    def rec(i, used):
        if i < 0:
            if used > 0:
                counts[used] = counts.get(used, 0) + 1
            return
        center = sum(c[i][j] * x[j] for j in range(i + 1, n))
        room = (budget - used) / q[i]
        hi = _frac_sqrt_floor(room)
        lo = -hi
        # exact integer window for x_i + center in [-sqrt(room), sqrt(room)]
        start = int(-center) - hi - 2
        stop = int(-center) + hi + 2
        for xi in range(start, stop + 1):
            t = xi + center
            val = q[i] * t * t
            if val <= budget - used:
                x[i] = xi
                rec(i - 1, used + val)
        x[i] = 0

    rec(n - 1, Fraction(0))
    return counts
