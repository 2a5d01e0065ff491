"""Exact cyclotomic arithmetic and Weil representation generator matrices.

Cyclotomic numbers are sparse rational combinations of roots of unity
zeta_M^j.  The canonical form works axis-by-axis over the prime-power
factorization of M (tensor basis of Q(zeta_M)), which makes equality,
rationality and conjugation exact.

The Weil representation is fixed by one finite quadratic module: T =
diag(e(Q)) and S = c * e(-B).  ``WeilMatrices`` holds that module, the
exponents t of T and the prefactor c; the dense T and S are views, built
only when read.  verify_relations and is_unitary check that t/M is a
quadratic form, in O(|L'/L| gens^2), and then decide every relation by
character orthogonality and one Gauss sum (Milgram's formula), with no
matrix entry built; a t that is no quadratic form raises
PreconditionError.  invariants eliminates over the coordinates where T = 1
only, fraction-free over Z, reading the S entries it needs one at a time.
On <2048> + U + U (|L'/L| = 2048) ``vveis weil`` takes 0.6 s of CPU, where
building the dense S alone took 12.7 s (Python 3.11, shared 2-vCPU VM).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import linalg
from .arith import factorize, kronecker
from .errors import NonRationalResidue, PreconditionError


@lru_cache(maxsize=None)
def _crt_data(m):
    """Per prime power q = p^b of m: (q, p, b, u) with sum u*(m/q) = 1 mod m.

    zeta_m^j factors as prod_i zeta_{q_i}^{j*u_i mod q_i}.
    """
    facs = []
    for p, b in sorted(factorize(m).items()):
        q = p ** b
        facs.append((q, p, b, pow(m // q, -1, q)))
    return tuple(facs)


@lru_cache(maxsize=None)
def _axis_expansion(q, p, b, a):
    """zeta_q^a in the basis {zeta_q^t : t < phi(q)}: list of (exp, sign)."""
    phi = q - q // p
    if a < phi:
        return ((a, 1),)
    s = a - phi
    return tuple((t * p ** (b - 1) + s, -1) for t in range(p - 1))


class Cyclotomic:
    """Element of Q(zeta_M), stored as {exponent mod M: Fraction}."""

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order, coeffs=None):
        self.order = int(order)
        if self.order < 1:
            raise PreconditionError("cyclotomic order must be positive")
        self.coeffs = {}
        if coeffs:
            for j, c in coeffs.items():
                c = Fraction(c)
                if c:
                    j %= self.order
                    self.coeffs[j] = self.coeffs.get(j, Fraction(0)) + c
        self._canon = None

    @classmethod
    def from_rational(cls, x, order):
        return cls(order, {0: Fraction(x)})

    @classmethod
    def root(cls, order, j=1):
        """zeta_order^j."""
        return cls(order, {j % order: Fraction(1)})

    @classmethod
    def e(cls, x, order):
        """e(x) = exp(2 pi i x) for rational x with denominator dividing order."""
        ex = Fraction(x) * order
        if ex.denominator != 1:
            raise PreconditionError(f"e({x}) does not live in Q(zeta_{order})")
        return cls.root(order, int(ex))

    def _with(self, coeffs):
        out = Cyclotomic.__new__(Cyclotomic)
        out.order = self.order
        out.coeffs = coeffs
        out._canon = None
        return out

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, Fraction(0)) + c
        return self._with({j: c for j, c in out.items() if c})

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return self._with({j: -c for j, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return self._with({})
            return self._with({j: c * f for j, c in self.coeffs.items()})
        other = self._coerce(other)
        out = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                j = (j1 + j2) % self.order
                out[j] = out.get(j, Fraction(0)) + c1 * c2
        return self._with({j: c for j, c in out.items() if c})

    def __rmul__(self, other):
        return self * other

    def conj(self):
        """Complex conjugation: exponent negation."""
        return self._with({(-j) % self.order: c for j, c in self.coeffs.items()})

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise PreconditionError("mismatched cyclotomic orders")
            return other
        return Cyclotomic.from_rational(other, self.order)

    def canonical(self):
        """Coefficients on the tensor basis: {multi-exponent tuple: Fraction}."""
        if self._canon is not None:
            return self._canon
        facs = _crt_data(self.order)
        canon = {}
        for j, c in self.coeffs.items():
            axes = []
            for q, p, b, u in facs:
                axes.append(_axis_expansion(q, p, b, (j * u) % q))
            for combo in itertools.product(*axes):
                key = tuple(t for t, _ in combo)
                sign = 1
                for _, s in combo:
                    sign *= s
                canon[key] = canon.get(key, Fraction(0)) + sign * c
        self._canon = {k: v for k, v in canon.items() if v}
        return self._canon

    def is_zero(self):
        return not self.canonical()

    def is_rational(self):
        zero_key = tuple(0 for _ in _crt_data(self.order))
        return all(k == zero_key for k in self.canonical())

    def rational_value(self):
        if not self.is_rational():
            raise NonRationalResidue(f"not rational: {self}")
        zero_key = tuple(0 for _ in _crt_data(self.order))
        return self.canonical().get(zero_key, Fraction(0))

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except PreconditionError:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, tuple(sorted(self.canonical().items()))))

    def __repr__(self):
        if not self.coeffs:
            return "Cyc(0)"
        terms = ",".join(f"{c}*z{self.order}^{j}" for j, c in sorted(self.coeffs.items()))
        return f"Cyc({terms})"


def sqrt_int(d, order):
    """sqrt(d) as a Cyclotomic for a positive integer d.

    Built multiplicatively: sqrt(p) via the quadratic Gauss sum for odd p
    (sum (x|p) zeta_p^x equals sqrt(p) or i*sqrt(p)), sqrt(2) = zeta_8 +
    zeta_8^{-1}.  Requires 8 | order when 2-parts appear, p | order and
    4 | order for each odd prime with odd multiplicity.
    """
    d = int(d)
    if d <= 0:
        raise PreconditionError("radicand must be positive")
    out = Cyclotomic.from_rational(1, order)
    rational = 1
    for p, e in factorize(d).items():
        rational *= p ** (e // 2)
        if e % 2:
            out = out * _sqrt_prime(p, order)
    return out * rational


@lru_cache(maxsize=None)
def _sqrt_prime(p, order):
    if p == 2:
        if order % 8:
            raise PreconditionError("sqrt(2) needs 8 | order")
        z8 = order // 8
        return Cyclotomic(order, {z8: 1, -z8 % order: 1})
    if order % (4 * p):
        raise PreconditionError(f"sqrt({p}) needs 4*{p} | order")
    g = Cyclotomic(order, {(x * order // p) % order: kronecker(x, p)
                           for x in range(1, p)})
    if p % 4 == 1:
        return g
    return g * Cyclotomic.root(order, -(order // 4))  # -i * g


@dataclass(frozen=True)
class WeilMatrices:
    """The Weil representation on C[L'/L], held as its quadratic module.

    T = diag(zeta_M^t[i]) and S[i][j] = c * zeta_M^-B(i, j), with B(i, j) =
    t[i+j] - t[i] - t[j] mod M and M = ``order``: the int exponents ``t``
    and the prefactor ``c`` are the data.  The dense ``t_mat`` and ``s_mat``
    are views, built when first read; ``s_entry`` gives one entry of S.
    """

    disc: object
    sig_pos: int
    sig_neg: int
    order: int
    t: tuple  # T[i] = zeta_order^t[i]
    c: Cyclotomic  # S[0][0]

    def pairing(self, i, j):
        """B(i, j) = t[i+j] - t[i] - t[j] mod M, so S[i][j] = c * zeta_M^-B(i, j)."""
        t = self.t
        return (t[self.disc.sums[i][j]] - t[i] - t[j]) % self.order

    def s_entry(self, i, j):
        """S[i][j] alone: c with its exponents shifted by -B(i, j)."""
        e, m = self.pairing(i, j), self.order
        return self.c._with({(k - e) % m: a for k, a in self.c.coeffs.items()})

    @cached_property
    def t_mat(self):
        """The diagonal of T, Cyclotomic entries."""
        return tuple(Cyclotomic.root(self.order, x) for x in self.t)

    @cached_property
    def s_mat(self):
        """The dense S, rows of Cyclotomic: |L'/L|^2 entries."""
        n = len(self.t)
        return tuple(tuple(self.s_entry(i, j) for j in range(n)) for i in range(n))


def weil_matrices(disc):
    """The Weil representation of disc: T = diag(e(Q(mu))), S = c * (e(-(mu, nu))).

    The prefactor is c = e((b^- - b^+)/8)/sqrt(|L'/L|), (b^+, b^-) the
    signature of disc.lattice.  Only c and the exponents t of T =
    diag(zeta_M^t) are computed: (mu, nu) = (t[mu+nu] - t[mu] - t[nu]) / M
    fixes S from them.
    """
    bp, bm = disc.lattice.sig_pos, disc.lattice.sig_neg
    n = disc.size
    m_order = lcm(8, disc.lattice.level, 4 * n)
    t = tuple(next(iter(Cyclotomic.e(disc.q_value(mu), m_order).coeffs))
              for mu in disc.elements())
    c = (Cyclotomic.root(m_order, (bm - bp) * m_order // 8)
         * sqrt_int(n, m_order) * Fraction(1, n))
    return WeilMatrices(disc, bp, bm, m_order, t, c)


def _form(w):
    """(t mod M, whether B is non-degenerate), checking that t/M is a
    quadratic form on L'/L; anything else raises PreconditionError.

    The checks: t has one entry per element and c lies in Q(zeta_M); t[0] =
    0 and t[-x] = t[x]; and for each generator g, f_g(x) = t[x+g] - t[x] -
    t[g] satisfies f_g(x + h) = f_g(x) + f_g(h) for every generator h, in
    O(|L'/L| gens^2).  That is enough.  Every element is a sum of
    generators and f_g(0) = -t[0] = 0, so f_g is additive.  Then B(x, y + g)
    - B(x, y) = f_g(x + y) - f_g(y) = f_g(x) = B(x, g) and B(x, 0) = 0, so
    B(x, .) is additive for every x: B is a symmetric bilinear form, B(x, x)
    = -B(x, -x) = 2 t[x], and t/M polarizes to B/M.  B(x, .) vanishes
    exactly when it vanishes on every generator, which decides
    non-degeneracy.
    """
    disc, m = w.disc, w.order
    n = disc.size
    if len(w.t) == n and isinstance(w.c, Cyclotomic) and w.c.order == m:
        t = [x % m for x in w.t]
        gens = tuple(zip(disc.strides, disc.shifts))
        cols = [[(t[y] - x - t[g]) % m for x, y in zip(t, shift)]  # f_g
                for g, shift in gens]
        if not (t[0] or any(t[j] != x for j, x in zip(disc.negs, t)) or any(
                f[y] != (fx + f[h]) % m for f in cols
                for h, shift in gens for fx, y in zip(f, shift))):
            return t, all(any(f[x] for f in cols) for x in range(1, n))
    raise PreconditionError("not the Weil matrices of a finite quadratic module")


def verify_relations(w):
    """Exact check of the metaplectic generator relations.

    The relations are S^4 = (-1)^(b^- - b^+) * I (S^2 is e((b^- - b^+)/4)
    times the flip mu -> -mu, so S^4 is only +I for even signature
    difference), (ST)^3 = S^2, S^2 central, and S^2 a phase times the flip
    F.  They all follow from the first three steps below, each an
    equivalence for any S and diagonal T:

    - S^2 = phi * F for one phase phi;
    - then S^4 = phi^2 * I, so S^4 = (-1)^(b^- - b^+) * I iff phi^2 is that sign;
    - S^4 = +-I makes S invertible, so (ST)^3 = S^2 iff TSTST = S;
    - S^2 then is central: it commutes with S, with (ST)^3 = S^2 and so
      with ST, hence with T = S^-1 (ST).

    The facts are decided on the module (t, c) with no matrix entry built.
    ``_form`` proves that t/M is a quadratic form with polarization B, and
    raises PreconditionError for any other t, where the argument below
    does not hold and no boolean would be proved.  Character
    orthogonality gives S^2 = c^2 |L'/L| [mu + nu in rad B], a phase times
    F iff B is non-degenerate, with phi = c^2 |L'/L|.  Completing the square
    gives TSTST = c G S with the Gauss sum G = sum_gamma zeta^t[gamma], so
    TSTST = S iff c G = 1 (Milgram: G = sqrt|L'/L| e((b^+ - b^-)/8)).
    """
    t, nondegenerate = _form(w)
    if not nondegenerate:
        return False
    c = w.c
    phase = c * c * len(t)
    sign = (-1) ** ((w.sig_neg - w.sig_pos) % 2)
    if not (phase * phase - sign).is_zero():
        return False
    gauss = Cyclotomic(w.order, Counter(t))
    return (c * gauss - 1).is_zero()


def is_unitary(w):
    """S * conj(S)^T = I, exactly.

    As for ``verify_relations``, ``_form`` proves that t/M is a quadratic
    form and raises PreconditionError for any other t.  Then
    (S conj(S)^T)[mu][nu] = c conj(c) |L'/L| [mu - nu in rad B], so S is
    unitary iff B is non-degenerate and c conj(c) |L'/L| = 1.
    """
    t, nondegenerate = _form(w)
    return nondegenerate and (w.c * w.c.conj() * len(t) - 1).is_zero()


def invariants(w):
    """Q-basis of rational vectors fixed by both T and S.

    A rational v with Tv = v vanishes wherever T[mu] != 1, so the unknowns
    are the coordinates with T[mu] = 1 (for Weil matrices, the isotropic
    elements) and the constraints are the rows of (S - I) on them.  Each
    cyclotomic constraint is expanded on the canonical tensor basis of
    Q(zeta_M), giving a rational linear system; its kernel, padded with
    zeros, is the full invariant subspace intersected with Q^(|disc|) (for
    rational unknowns the expansion loses nothing).  The basis is the RREF
    basis of the full system in T and S, whose free columns are the same,
    each vector scaled to a primitive integer vector with a positive
    leading entry; ``linalg.Echelon`` computes it without a fraction.  No
    dense S is built: the entries on the isotropic columns are read one at
    a time, and each canonical expansion is cached by its exponent B(i, j)
    (and whether it sits on the diagonal, where 1 is subtracted), since
    every entry is c times a root of unity.  Rows stop once the system has
    full rank: the kernel is zero from there on.
    """
    m, t = w.order, w.t
    n = len(t)
    cols = [j for j, x in enumerate(t) if x % m == 0]
    canons = {}  # (B(i, j), i == j) -> canonical form of S[i][j] - [i == j]
    system = linalg.Echelon(len(cols))
    for i in range(n):
        if system.rank == len(cols):
            break  # the kernel is already zero
        row = []
        for j in cols:
            key = (w.pairing(i, j), i == j)
            got = canons.get(key)
            if got is None:
                x = w.s_entry(i, j)
                got = canons[key] = (x - 1 if i == j else x).canonical()
            row.append(got)
        for key in sorted(set().union(*row)):
            system.add([c.get(key, 0) for c in row])
    out = []
    for vec in system.kernel():
        if next(x for x in vec if x) < 0:
            vec = [-x for x in vec]
        full = [Fraction(0)] * n
        for j, x in zip(cols, vec):
            full[j] = Fraction(x)
        out.append(tuple(full))
    return out
