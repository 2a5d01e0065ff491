"""Exact cyclotomic arithmetic and Weil representation generator matrices.

Cyclotomic numbers are sparse rational combinations of roots of unity
zeta_M^j.  The canonical form works axis-by-axis over the prime-power
factorization of M (tensor basis of Q(zeta_M)), which makes equality,
rationality and conjugation exact.

The Weil matrices are fixed by one finite quadratic module: T = diag(e(Q))
and S = c * e(-B).  verify_relations and is_unitary first read (Q, B, c) off
the matrices they are given, proving exactly that the matrices have that
shape, and then decide every relation by character orthogonality and one
Gauss sum (Milgram's formula), in O(|L'/L|^2) with no matrix product; input
of any other shape raises PreconditionError.  invariants eliminates over the
coordinates where T = 1 only, fraction-free over Z, expanding each distinct
matrix entry once.  On <2>^6 + <-2>^2 (|L'/L| = 256) the matrices take
0.12-0.40 s of CPU, the relations 0.06-0.10 s, unitarity 0.06-0.09 s and the
invariants 0.09-0.14 s, where a Fraction RREF took 1.2-1.7 s (Python 3.11,
shared 2-vCPU VM).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    """Generator matrices of the Weil representation on C[L'/L]."""

    disc: object
    sig_pos: int
    sig_neg: int
    order: int
    t_mat: tuple  # diagonal entries, Cyclotomic
    s_mat: tuple  # rows of Cyclotomic


def weil_matrices(disc):
    """T and S matrices: T = diag(e(Q(mu))), S = pref * (e(-(mu,nu))).

    The prefactor is e((b^- - b^+)/8)/sqrt(|L'/L|), (b^+, b^-) the signature
    of disc.lattice.  With T = diag(zeta_M^t), (mu, nu) = (t[mu+nu] - t[mu]
    - t[nu]) / M, so each S entry is the prefactor with its exponents shifted.
    """
    bp, bm = disc.lattice.sig_pos, disc.lattice.sig_neg
    n = disc.size
    m_order = lcm(8, disc.lattice.level, 4 * n)
    t_mat = tuple(Cyclotomic.e(disc.q_value(mu), m_order) for mu in disc.elements())
    t = [next(iter(x.coeffs)) for x in t_mat]
    pref = (Cyclotomic.root(m_order, (bm - bp) * m_order // 8)
            * sqrt_int(n, m_order) * Fraction(1, n))
    sums = disc.sums
    s_mat = tuple(
        tuple(pref._with({(j - t[z] + ti + tj) % m_order: a
                          for j, a in pref.coeffs.items()})
              for z, tj in zip(sums[i], t))
        for i, ti in enumerate(t))
    return WeilMatrices(disc, bp, bm, m_order, t_mat, s_mat)


def _module(w):
    """(t, b, c) if w has the shape of ``weil_matrices`` output, else None.

    The shape, checked exactly: every T[i] is zeta_M^t[i] with coefficient 1,
    t[0] = 0 and t[-i] = t[i]; B(i, j) = t[i+j] - t[i] - t[j] mod M is
    additive in j on every generator; and every S[i][j] is c * zeta_M^-B(i, j)
    with c = S[0][0].  Additivity makes B(i, .) a character for every i, so B
    is a symmetric bilinear form, B(i, i) = -B(i, -i) = 2 t[i], and t/M is a
    quadratic form polarizing to B/M: the matrices are the Weil matrices of a
    finite quadratic module, up to the scalar c.  b[i] lists B(i, g) over
    the generators g, which determine B(i, .).
    """
    disc, m = w.disc, w.order
    n = disc.size
    s = w.s_mat
    if len(w.t_mat) != n or len(s) != n or any(len(row) != n for row in s):
        return None
    t = []
    for x in w.t_mat:
        if x.order != m or len(x.coeffs) != 1:
            return None
        (j, a), = x.coeffs.items()
        if a != 1:
            return None
        t.append(j)
    gens, shifts, sums, negs = disc.strides, disc.shifts, disc.sums, disc.negs
    if t[0] or any(t[negs[i]] != ti for i, ti in enumerate(t)):
        return None
    c = s[0][0]
    if c.order != m:
        return None
    wants = {}  # exponent e -> coefficients of c * zeta^-e
    b = []
    for i, ti in enumerate(t):
        row = [(t[z] - ti - tj) % m for z, tj in zip(sums[i], t)]
        for g, shift in zip(gens, shifts):
            bg = row[g]
            if any(row[y] != (bx + bg) % m for bx, y in zip(row, shift)):
                return None
        for x, e in zip(s[i], row):
            want = wants.get(e)
            if want is None:
                want = wants[e] = {(j - e) % m: a for j, a in c.coeffs.items()}
            if x.order != m:
                return None
            if x.coeffs != want and not (x - c._with(want)).is_zero():
                return None
        b.append(tuple(row[g] for g in gens))
    return t, b, c


def _nondegenerate(b):
    """Every nonzero element pairs nontrivially with some generator."""
    return all(any(row) for row in b[1:])


def _weil_module(w):
    """``_module(w)``, raising where w is not of the Weil shape."""
    mod = _module(w)
    if mod is None:
        raise PreconditionError("not the Weil matrices of a finite quadratic module")
    return mod


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

    The input must have the shape of ``weil_matrices`` output: ``_module``
    reads the quadratic module (t, B, c) off the matrices, proving their
    shape, and anything else raises PreconditionError (a relabelled copy of
    Weil matrices satisfies every relation, so False would be wrong there).
    The facts are then decided in O(|L'/L|^2) with no matrix product.
    Character orthogonality gives S^2 = c^2 |L'/L| [mu + nu in rad B], a
    phase times F iff B is non-degenerate, with phi = c^2 |L'/L|.
    Completing the square gives TSTST = c G S with the Gauss sum G =
    sum_gamma zeta^t[gamma], so TSTST = S iff c G = 1 (Milgram: G =
    sqrt|L'/L| e((b^+ - b^-)/8)).  On <2>^k this takes about 0.5 ms, 0.6 ms
    and 2 ms of CPU at |L'/L| = 8, 16 and 32, and 0.1 s at 256 (Python
    3.11, shared 2-vCPU VM).
    """
    t, b, c = _weil_module(w)
    if not _nondegenerate(b):
        return False
    phase = c * c * len(t)
    sign = (-1) ** ((w.sig_neg - w.sig_pos) % 2)
    if not (phase * phase - sign).is_zero():
        return False
    gauss = Cyclotomic(w.order, Counter(t))
    return (c * gauss - 1).is_zero()


def is_unitary(w):
    """S * conj(S)^T = I, exactly.

    The input must have the shape of ``weil_matrices`` output, as for
    ``verify_relations``: anything else raises PreconditionError (S stays
    unitary when only T is damaged).  For the shape read by ``_module``,
    (S conj(S)^T)[mu][nu] is c conj(c) |L'/L| [mu - nu in rad B], so S is
    unitary iff B is non-degenerate and c conj(c) |L'/L| = 1: O(|L'/L|^2),
    about 0.3 ms at |L'/L| = 8 and 0.07 s at 256.
    """
    t, b, c = _weil_module(w)
    return _nondegenerate(b) and (c * c.conj() * len(t) - 1).is_zero()


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
    leading entry; ``linalg.Echelon`` computes it without a fraction.  Each
    distinct entry is expanded once: the S entries of Weil matrices are c
    times roots of unity, so at most M of them differ.
    """
    n = len(w.t_mat)
    one = Cyclotomic.from_rational(1, w.order)
    canons = {}  # (order, coefficients) -> canonical form

    def canonical(x):
        key = (x.order, frozenset(x.coeffs.items()))
        got = canons.get(key)
        if got is None:
            got = canons[key] = x.canonical()
        return got

    cols = [j for j in range(n) if not canonical(w.t_mat[j] - one)]
    system = linalg.Echelon(len(cols))
    for i, srow in enumerate(w.s_mat):
        row = [canonical(srow[j] - one if j == i else srow[j]) for j in cols]
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
