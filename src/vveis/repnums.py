"""Congruence representation numbers N_{m,mu}(a) with two independent paths.

count_naive enumerates the a^rank residues.  count_gauss evaluates the
character sum N = p^-w sum_{t mod p^w} sum_r e(t (Q(r + mu) - m) / p^w)
by valuation class t = p^v u (u a unit): per class the sum over r factors
into quadratic Gauss sums of the p-adic Jordan blocks, which depend on u
only through (u|p) (odd p) or u mod 8 (p = 2) and a phase linear in u, so
the sum over u is a Ramanujan sum, a Legendre-twisted Ramanujan sum, or
four residues mod 8 times a geometric sum.  That is O(w * rank) exact
terms for any p^w (compare T. Yang's explicit local densities, J. Number
Theory 72 (1998)).  The two paths share no code beyond the lattice type,
which is the point: equality on random instances is the package's central
correctness check.  ``CROSSCHECK``, read once at import from the
environment variable VVEIS_CROSSCHECK (``crosscheck_flag``), turns it on:
count() and local_counts() then compare both paths on every prime power,
at the deepest level whose residues count_naive can afford.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from operator import mul

from . import linalg
from .arith import exact_int, factorize, kronecker, valuation
from .errors import (
    BudgetExceeded,
    ConsistencyError,
    NegativeValuation,
    NonIntegralResult,
    PreconditionError,
)
from .lattice import bad_primes, disc_of, discriminant_form

_NAIVE_CHUNK = 1 << 18


def w_p(m, d_mu, p):
    """Hensel exponent 1 + 2 ord_p(2 d_mu m); stabilization depth for counts."""
    if type(m) is not Fraction:
        m = Fraction(m)
    t = 2 * d_mu * m.numerator  # ord_p(2 d_mu m) = ord_p(t) - ord_p(den m), in ints
    if t == 0:
        raise PreconditionError("w_p needs m != 0")
    v = valuation(t, p) - valuation(m.denominator, p)
    if v < 0:
        raise NegativeValuation(f"2*{d_mu}*{m} is not {p}-integral")
    return 1 + 2 * v


@dataclass(frozen=True)
class RepCount:
    m: Fraction
    mu: tuple
    a: int
    count: int
    method: str

    def __post_init__(self):
        if self.count < 0:
            raise ConsistencyError(f"negative representation count {self.count}")


def count_naive(lattice, m, mu, a, cap=10 ** 8):
    """Exhaustive count of {r in L/aL : Q(r+mu) = m mod a}.

    Loops (2 d^2)-scaled integer values in vectorized blocks, so the modular
    congruence is exact integer arithmetic throughout.  This is the
    package's only numpy use, imported here so that nothing else loads it.
    """
    import numpy as np

    a = int(a)
    if a < 1:
        raise PreconditionError("modulus a must be >= 1")
    disc = discriminant_form(lattice)
    m, mu = disc.check_pair(m, mu)
    den, s = disc.coset(mu)
    t0 = exact_int(2 * den * den * m)  # m = Q(mu) mod 1
    n = lattice.rank
    if a ** n > cap:
        raise BudgetExceeded(f"{a}^{n} residues exceed cap {cap}")
    mod = 2 * den * den * a
    g = np.array(lattice.gram, dtype=np.int64)
    zmax = den * (a - 1) + max((abs(x) for x in s), default=0)
    bound = n * n * int(np.abs(g).max()) * zmax * zmax + abs(t0)
    dtype = np.int64 if bound < 2 ** 62 else object
    kv = 0
    while kv < n and a ** (kv + 1) <= _NAIVE_CHUNK:
        kv += 1
    kf = n - kv
    rng = np.arange(a, dtype=np.int64)
    inner = np.array(np.meshgrid(*([rng] * kv), indexing="ij"),
                     dtype=dtype).reshape(kv, -1).T if kv else np.zeros((1, 0), dtype=dtype)
    zv = inner * den + np.array(s[kf:], dtype=dtype)
    gvv = g[kf:, kf:].astype(dtype)
    gfv = g[:kf, kf:].astype(dtype)
    qv = (zv @ gvv * zv).sum(axis=1)
    total = 0
    for xf in itertools.product(range(a), repeat=kf):
        zf = np.array(xf, dtype=dtype) * den + np.array(s[:kf], dtype=dtype)
        if kf:
            c0 = int(zf @ g[:kf, :kf].astype(dtype) @ zf)
            vals = qv + 2 * (zv @ (gfv.T @ zf)) + c0
        else:
            vals = qv
        total += int(np.count_nonzero((vals - t0) % mod == 0))
    return RepCount(m, mu, a, total, "naive")


# ---------------------------------------------------------------------------
# Jordan decomposition over Z_p


@lru_cache(maxsize=None)
def _jordan_exact(lattice, p):
    """Block-diagonalization of the Gram matrix over Z_p, in Python ints.

    Returns (blocks, basechange, C^T G): blocks are (scale_exp, dim, data) where
    the quadratic form on the block is p^scale_exp * (u x^2) resp.
    p^scale_exp * (a x^2 + b xy + c y^2), b odd, with integer data (u and
    b p-adic units); basechange C is an integer matrix with a p-unit
    determinant and C^T G C block diagonal.  A line pivot p^v u clears
    entry j by e_j := u e_j - (g_kj / p^v) e_k, a dyadic plane B by e_l :=
    U e_l - x_1 e_k - x_2 e_k+1 with U = det B / 4^t odd and x = adj(B)
    (g_kl, g_k+1,l) / 4^t, t = ord_2 of B's off-diagonal entry; each
    division is exact, and each new basis vector is divided by its content
    (``linalg.sym_combine``).  Every basis vector is a p-adic unit times
    the one of the elimination over Q_p with the same pivots, so the block
    units differ from that elimination's by unit squares only.  The least
    valuations on and off the diagonal of the trailing block are read off
    gcds (``_least_valuation``), with the first entry that takes each
    (row-major) as the pivot.
    """
    n = lattice.rank
    g = [list(row) for row in lattice.gram]
    c = linalg.identity(n)
    blocks = []
    k = 0
    while k < n:
        while True:
            # the least valuation on the diagonal and off it, each with the
            # first entry that takes it (row-major)
            diag_val, diag_best = _least_valuation([g[i][i] for i in range(k, n)], p)
            if p != 2 and diag_val == 0:  # a unit on the diagonal: no fold
                break
            off_val, off_row = _least_valuation([gcd(*g[i][i + 1:]) for i in range(k, n)], p)
            if p != 2:
                if diag_val is not None and (off_val is None or diag_val <= off_val):
                    break
                # every remaining diagonal too deep: fold the minimal
                # off-diagonal entry onto the diagonal (p odd keeps its value)
                i, j = _first_off(g, k + off_row, p ** (off_val + 1))
                linalg.sym_combine(g, c, i, 1, ((j, 1),))
                continue
            break
        if p == 2 and (diag_val is None or (off_val is not None and off_val < diag_val)):
            i, j = _first_off(g, k + off_row, 2 << off_val)
            linalg.sym_swap(g, c, k, i)
            j = i if j == k else j
            linalg.sym_swap(g, c, k + 1, j)
            a, b, d = g[k][k], g[k][k + 1], g[k + 1][k + 1]
            t2 = 2 * off_val
            unit = (a * d - b * b) >> t2
            for l in range(k + 2, n):
                # B x = U (g_kl, g_k+1,l): clear both entries of e_l at once
                b1, b2 = g[k][l], g[k + 1][l]
                x1 = (d * b1 - b * b2) >> t2
                x2 = (a * b2 - b * b1) >> t2
                if x1 or x2:
                    linalg.sym_combine(g, c, l, unit, ((k, -x1), (k + 1, -x2)))
            blocks.append((off_val, 2, (a >> off_val + 1, b >> off_val, d >> off_val + 1)))
            k += 2
            continue
        linalg.sym_swap(g, c, k, k + diag_best)
        pv = p ** diag_val
        unit = g[k][k] // pv
        for j in range(k + 1, n):
            if g[k][j]:
                linalg.sym_combine(g, c, j, unit, ((k, -(g[k][j] // pv)),))
        qc = g[k][k] // 2
        kv = valuation(qc, p)
        blocks.append((kv, 1, (qc // p ** kv,)))
        k += 1
    pos = 0
    for _, dim, _ in blocks:
        if any(any(row[:pos]) or any(row[pos + dim:]) for row in g[pos:pos + dim]):
            raise ConsistencyError("elimination left a stray entry")
        pos += dim
    ctg = tuple(tuple(lattice.gram_times(col)) for col in zip(*c))
    return tuple(blocks), tuple(tuple(row) for row in c), ctg


def _least_valuation(xs, p):
    """(v, i): the least ord_p over the nonzero entries of the int list xs,
    read off their gcd, and the first index where it is taken; (None, None)
    when every entry is 0."""
    h = gcd(*xs)
    if not h:
        return None, None
    v = valuation(h, p)
    q = p ** (v + 1)
    return v, next(i for i, x in enumerate(xs) if x % q)


def _first_off(g, i, q):
    """(i, j): the first entry right of the diagonal in row i that q does not
    divide."""
    return i, next(j for j in range(i + 1, len(g)) if g[i][j] % q)


@lru_cache(maxsize=None)
def _block_table(lattice, p):
    """The coset-free data of each block of ``_jordan_exact``, computed once
    per (lattice, p): (C^T G, table) with one (k, dim, pos, unit, data) per
    block, pos its first coordinate.  unit is (u|p) for a line p^k u y^2 at
    odd p, u mod 8 for a dyadic line, and +1 / -1 for a hyperbolic /
    anisotropic dyadic plane; data is (sh, 4u >> sh) for a line, sh = 2 at
    p = 2 (4 is no 2-unit) and 0 otherwise, and (a, b, c, 4ac - b^2) for a
    plane p^k (a x^2 + b xy + c y^2)."""
    jordan, _, ctg = _jordan_exact(lattice, p)
    table = []
    pos = 0
    for k, dim, data in jordan:
        if dim == 2:
            a, b, c = data
            table.append((k, 2, pos, 1 if a * c % 2 == 0 else -1, (a, b, c, 4 * a * c - b * b)))
        else:
            (a,) = data
            sh = 2 if p == 2 else 0
            table.append((k, 1, pos, a % 8 if p == 2 else kronecker(a, p), (sh, 4 * a >> sh)))
        pos += dim
    return ctg, tuple(table)


# ---------------------------------------------------------------------------
# Gauss-sum path


@lru_cache(maxsize=None)
def _gauss_blocks(lattice, den, s, p):
    """The congruence Q(r + s / den) = m in the Jordan frame of ``_jordan_exact``.

    (den, s) is the integer coset of ``DiscriminantForm.coset``.  In the
    frame the congruence reads sum_i f_i(y_i) + Q(s / den) - m = 0 with f_i
    = p^k form_i + lin_i . y_i, lin = C^T G s / den, an integer vector
    (C^T G is cached with the frame).  Returns one (k, dim, vl, unit, phi)
    per block: vl = ord_p(lin_i) (inf for lin_i = 0; on a plane the
    valuation of gcd(l_0, l_1)); unit is the block's entry of
    ``_block_table``, which holds everything here that does not depend on
    the coset; phi = -p^k form_i(t) is the p-integral constant left by
    completing the square, f_i(y) = p^k form_i(y + t) + phi with p^k B_i t
    = lin_i (B_i the Gram matrix of form_i), an int pair (numerator, p-unit
    denominator), or None where t is not p-integral (the block's sum then
    vanishes whenever the form is not zero mod the modulus).  The unit, the
    plane type and phi do not change when a block's basis vectors are
    scaled by p-adic units.
    """
    ctg, table = _block_table(lattice, p)
    lin = []
    for row in ctg:
        x, r = divmod(sum(map(mul, row, s)), den)
        if r:
            raise ConsistencyError("mu is not a dual vector")
        lin.append(x)
    blocks = []
    for k, dim, pos, unit, data in table:
        if dim == 2:
            l0, l1 = lin[pos], lin[pos + 1]
            vl = valuation(gcd(l0, l1), p) if l0 or l1 else inf
            a, b, c, disc = data
            phi = (-((c * l0 * l0 - b * l0 * l1 + a * l1 * l1) >> k), disc) if vl >= k else None
        else:
            l0 = lin[pos]
            vl = valuation(l0, p) if l0 else inf
            sh, den4 = data
            # 2^(k+2) divides l0^2 where phi is kept at p = 2
            phi = (-(l0 * l0 // p ** k) >> sh, den4) if vl >= k + (p == 2) else None
        blocks.append((k, dim, vl, unit, phi))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _gauss_frame(lattice, den, s, p, w):
    """The valuation classes of ``count_gauss`` at p^w (``_classes``), from
    ``_gauss_blocks``, cached per (coset, p), with each phi reduced mod p^w."""
    q = p ** w
    return _classes(tuple(b[:4] + (None if b[4] is None else b[4][0] * pow(b[4][1], -1, q) % q,)
                          for b in _gauss_blocks(lattice, den, s, p)), p, w)


def _classes(blocks, p, w):
    """The m-free part of each class t = p^v u, 0 <= v < w, at level W = w - v
    from p^(v rank) (``_odd_class``, ``_dyadic_class``), phi an int mod p^w
    in ``blocks``.  Not listed: t = 0, p^(w rank) for every m, and a class
    that vanishes for every m."""
    n = sum(b[1] for b in blocks)
    classes = (_dyadic_class(blocks, w - v, 1 << v * n) if p == 2
               else _odd_class(blocks, p, w - v, p ** (v * n)) for v in range(w))
    return tuple(c for c in classes if c is not None)


def _odd_class(blocks, p, W, mag):
    """mag times the sum over units u mod p^W of sum_y e(u (f(y) + c) / p^W),
    p odd, W >= 1, as (p^(W-1), a, twisted, phi); None if it is 0 for all c.

    A line with V = W - k > 0 gives p^k times the Gauss sum
    (ua|p)^V eps_{p^V} p^(V/2) e(u phi / p^W); the odd-V lines leave the
    character (u|p)^odd, so the u-sum is a Ramanujan sum or p^(W-1) times
    a Legendre-twisted one.  Every g_p = eps_p sqrt(p) pairs up into
    g_p^2 = (-1|p) p, so the value is an integer: with phi the blocks' sum
    mod p^W, it is 0 unless c + phi = t p^(W-1) mod p^W, and then a (t|p)
    when twisted, else a (p - 1) at t = 0 and -a otherwise.
    """
    phi, odd = 0, 0
    for k, _, vl, unit, ph in blocks:
        if W <= k:
            if vl < W:
                return None
            mag *= p ** W
            continue
        if vl < k:
            return None
        mag *= p ** (k + (W - k) // 2)
        if (W - k) % 2:
            mag *= unit
            odd += 1
        phi += ph
    q1 = p ** (W - 1)
    g2 = p if p % 4 == 1 else -p
    return q1, mag * g2 ** ((odd + 1) // 2) * q1, odd % 2 == 1, phi % (q1 * p)


def _dyadic_class(blocks, W, mag):
    """mag times the sum over units u mod 2^W of sum_y e(u (f(y) + c) / 2^W),
    W >= 1, in Z[zeta] (zeta = e(1/8)), as (2^W, phi, terms); None if it is
    0 for all c.

    A line with V = W - k >= 2 gives 2^k (1 + i^(ua)) (2|ua)^V 2^(V/2)
    e(u phi / 2^W), which depends on u mod 8 besides the phase; so u runs
    over the odd residues r mod 8 and the rest of u mod 2^W is a geometric
    sum, 2^(W-3) when 2^(W-3) divides the phase and 0 otherwise.  With phi
    the blocks' sum mod 2^W, the value is 0 unless 8 (c + phi) = step 2^W,
    and then the sum of a zeta^(e + r step) over the (r, e, a) in terms:
    each 1 + i^(ra) is sqrt(2) zeta^(+-1), and an odd count of sqrt(2) =
    zeta - zeta^3 splits each residue's term in two.
    """
    phi, roots, chars = 0, 0, []
    for k, dim, vl, unit, ph in blocks:
        if W <= k:
            if vl < W:
                return None
            mag <<= dim * W
            continue
        v = W - k
        if dim == 2:  # (+-2)^V: hyperbolic or anisotropic plane
            if vl < k:
                return None
            mag *= unit ** v << (2 * k + v)
            phi += ph
        elif v == 1:  # sum_y e(u (a y^2 + l y) / 2) is 2 for l odd, else 0
            if vl != k:
                return None
            mag <<= k + 1
        else:
            if vl <= k:
                return None
            mag <<= k + v // 2
            roots += v % 2
            chars.append((unit, v % 2 == 1))
            phi += ph
    roots += len(chars)
    mag <<= roots // 2 + max(W - 3, 0)
    split = ((1, mag), (3, -mag)) if roots % 2 else ((0, mag),)
    terms = []
    for r in (1, 3, 5, 7)[:1 << min(W - 1, 2)]:
        ex, sign = 0, 1
        for a, odd_v in chars:  # 1 + i^(ra) = sqrt(2) zeta^(+-1)
            ra = r * a % 8
            ex += 1 if ra % 4 == 1 else -1
            if odd_v and ra in (3, 5):
                sign = -sign
        terms += [(r, (ex + e) % 8, sign * x) for e, x in split]
    return 1 << W, phi % (1 << W), tuple(terms)


def count_gauss(lattice, m, mu, p, w, disc=None):
    """N_{m,mu}(p^w) = p^-w sum_t sum_y e(t (Q(y + mu) - m) / p^w), in O(w * rank).

    The sum over t mod p^w is taken by valuation class t = p^v u: the class
    contributes p^(v rank) times a closed form at level W = w - v (see
    ``_odd_class`` and ``_dyadic_class``), so the cost is w + 1 classes of
    one term per Jordan block, whatever the size of p^w.  Only c0 = Q(mu) -
    m is per call: a class's zero exits, magnitude, sqrt(2) count,
    characters and phi are per frame (``_gauss_frame``), so a call
    evaluates at most 4 residues at p = 2, one Ramanujan or Legendre term
    at odd p.  Independent of count_naive by construction; the total must
    be a non-negative integer (NonIntegralResult otherwise: that is
    always an implementation bug, never a data problem).  ``disc``, when
    given, must be the lattice's own form (``disc_of``).
    """
    w = int(w)
    if w < 1:
        raise PreconditionError("w must be >= 1")
    disc = disc_of(lattice, disc)
    m, mu = disc.check_pair(m, mu)
    classes = _gauss_frame(lattice, *disc.coset(mu), p, w)
    qx = disc.q_exact(mu)  # in lowest terms, like m, and congruent to it mod 1
    c0, rem = divmod(qx.numerator - m.numerator, qx.denominator)
    if rem:
        raise ConsistencyError(f"Q(mu) - m = {qx - m} is not an integer")
    q = p ** w
    total = p ** (w * lattice.rank)  # the class t = 0
    if p == 2:
        acc = [0] * 8  # acc[e]: the coefficient of zeta^e, zeta^4 = -1
        for mod, phi, terms in classes:
            step, rem = divmod(8 * (c0 + phi), mod)
            if not rem:
                for r, e, a in terms:
                    acc[(e + r * step) % 8] += a
        total = [total + acc[0] - acc[4], acc[1] - acc[5], acc[2] - acc[6], acc[3] - acc[7]]
        if any(total[1:]):
            raise NonIntegralResult(f"gauss path left an irrational part {total}")
        total = total[0]
    else:
        for q1, a, twisted, phi in classes:
            t, rem = divmod(c0 + phi, q1)
            if not rem:
                t %= p
                total += a * kronecker(t, p) if twisted else a * (p - 1) if t == 0 else -a
    n_val, rem = divmod(total, q)
    if rem or n_val < 0:
        raise NonIntegralResult(f"gauss path produced {Fraction(total, q)}")
    return RepCount(m, mu, q, n_val, "gauss")


def crosscheck_flag(raw):
    """VVEIS_CROSSCHECK's one reading: "", "0", "false" and "no" are off."""
    return raw not in ("", "0", "false", "no")


# The package's one cross-check switch, read once at import.
CROSSCHECK = crosscheck_flag(os.environ.get("VVEIS_CROSSCHECK", ""))


def _crosscheck(lattice, m, mu, p, w, cap=10 ** 8):
    """Compare count_gauss with count_naive at p^w', raising ConsistencyError.

    w' <= w is the deepest level whose p^(w' rank) residues fit under the
    naive path's cap, so a lattice of large rank is still checked, at a
    shallower level; only when not even p^rank fits does the check raise
    BudgetExceeded.
    """
    level = w
    while level > 1 and p ** (level * lattice.rank) > cap:
        level -= 1
    naive = count_naive(lattice, m, mu, p ** level, cap=cap)
    gauss = count_gauss(lattice, m, mu, p, level)
    if naive.count != gauss.count:
        raise ConsistencyError(f"count mismatch at {p}^{level}: gauss {gauss.count} "
                               f"vs naive {naive.count}")


def local_counts(lattice, m, mu, d_mu=None):
    """Yield (p, w, N_{m,mu}(p^w)) at the Hensel depth w = w_p, for p | 2N.

    The local factors of the Eisenstein coefficients and the local
    representation test need one prime power per prime and no CRT, so this
    calls count_gauss directly.  While ``CROSSCHECK`` is on, it compares
    the two paths at p^w', the deepest level w' <= w_p whose p^(w' rank)
    residues fit under count_naive's default cap (``_crosscheck``), and
    raises ConsistencyError on disagreement.  A caller that holds mu's
    order passes it as d_mu.
    """
    if d_mu is None:
        d_mu = discriminant_form(lattice).order_of(mu)
    for p in bad_primes(lattice):
        w = w_p(m, d_mu, p)
        if CROSSCHECK:
            _crosscheck(lattice, m, mu, p, w)
        yield p, w, count_gauss(lattice, m, mu, p, w).count


def count(lattice, m, mu, a, cap=10 ** 8, crosscheck=None):
    """N_{m,mu}(a) by CRT over prime powers, dispatching naive vs gauss.

    A prime power p^e of a whose p^(e rank) residues number at most
    100 000 is counted by count_naive, any other by count_gauss.
    crosscheck (``CROSSCHECK`` when None) compares the two paths for every
    prime power p^e of a, at p^e', the deepest level e' <= e whose
    p^(e' rank) residues fit under ``cap`` (``_crosscheck``), and raises
    ConsistencyError on disagreement.
    """
    a = int(a)
    if a < 1:
        raise PreconditionError("modulus a must be >= 1")
    disc = discriminant_form(lattice)
    if crosscheck is None:
        crosscheck = CROSSCHECK
    if a == 1:
        m, mu = disc.check_pair(m, mu)
        return RepCount(m, mu, 1, 1, "naive")
    total = 1
    methods = set()
    for p, e in sorted(factorize(a).items()):
        pe = p ** e
        if pe ** lattice.rank <= 100_000:
            r = count_naive(lattice, m, mu, pe, cap=cap)
        else:
            r = count_gauss(lattice, m, mu, p, e)
        if crosscheck:
            _crosscheck(lattice, m, mu, p, e, cap=cap)
        total *= r.count
        methods.add(r.method)
    method = methods.pop() if len(methods) == 1 else "mixed"
    return RepCount(Fraction(m), disc.check(mu), a, total, method)
