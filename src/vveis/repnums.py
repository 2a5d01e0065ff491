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
correctness check (env VVEIS_CROSSCHECK=1 compares both paths on every
prime power of count() and local_counts(), at the deepest level whose
residues count_naive can afford).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf
from operator import mul

from . import linalg
from .arith import exact_int, factorize, kronecker, valuation
from .errors import (
    BudgetExceeded,
    ConsistencyError,
    NegativeValuation,
    NonIntegralResult,
    PrecisionTooLow,
    PreconditionError,
)
from .lattice import bad_primes, disc_of

_NAIVE_CHUNK = 1 << 18


def w_p(m, d_mu, p):
    """Hensel exponent 1 + 2 ord_p(2 d_mu m); stabilization depth for counts."""
    t = 2 * d_mu * Fraction(m)
    if t == 0:
        raise PreconditionError("w_p needs m != 0")
    v = valuation(t, p)
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


def count_naive(lattice, m, mu, a, cap=10 ** 8, disc=None):
    """Exhaustive count of {r in L/aL : Q(r+mu) = m mod a}.

    Loops (2 d^2)-scaled integer values in vectorized blocks, so the modular
    congruence is exact integer arithmetic throughout.  This is the
    package's only numpy use, imported here so that nothing else loads it.
    """
    import numpy as np

    a = int(a)
    if a < 1:
        raise PreconditionError("modulus a must be >= 1")
    disc = disc_of(lattice, disc)
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


@dataclass(frozen=True)
class JordanBlock:
    scale_exp: int  # quadratic scale p^scale_exp
    dim: int
    data: tuple  # dim 1: (u,); dim 2 (p=2 only): (a, b, c) with b odd


@dataclass(frozen=True)
class JordanDecomposition:
    p: int
    e: int
    blocks: tuple  # JordanBlock with integer data reduced mod p^e
    basechange: tuple  # rational, p-integral, p-unit determinant


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
    units differ from that elimination's by unit squares only.
    """
    n = lattice.rank
    g = [list(row) for row in lattice.gram]
    c = linalg.identity(n)
    blocks = []
    k = 0
    while k < n:
        while True:
            diag_best, diag_val = None, None
            for i in range(k, n):
                v = valuation(g[i][i], p)
                if v is not None and (diag_val is None or v < diag_val):
                    diag_best, diag_val = i, v
            off_best, off_val = None, None
            for i in range(k, n):
                for j in range(i + 1, n):
                    v = valuation(g[i][j], p)
                    if v is not None and (off_val is None or v < off_val):
                        off_best, off_val = (i, j), v
            if p != 2:
                if diag_val is not None and (off_val is None or diag_val <= off_val):
                    break
                # every remaining diagonal too deep: fold the minimal
                # off-diagonal entry onto the diagonal (p odd keeps its value)
                i, j = off_best
                linalg.sym_combine(g, c, i, 1, ((j, 1),))
                continue
            break
        if p == 2 and (diag_val is None or (off_val is not None and off_val < diag_val)):
            i, j = off_best
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
        i = diag_best
        linalg.sym_swap(g, c, k, i)
        pv = p ** diag_val
        unit = g[k][k] // pv
        for j in range(k + 1, n):
            if g[k][j]:
                linalg.sym_combine(g, c, j, unit, ((k, -(g[k][j] // pv)),))
        qc = g[k][k] // 2
        kv = valuation(qc, p)
        blocks.append((kv, 1, (qc // p ** kv,)))
        k += 1
    spans = []
    pos = 0
    for _, dim, _ in blocks:
        spans += [pos] * dim
        pos += dim
    if any(g[i][j] for i in range(n) for j in range(n) if spans[i] != spans[j]):
        raise ConsistencyError("elimination left a stray entry")
    ctg = tuple(tuple(lattice.gram_times(col)) for col in zip(*c))
    return tuple(blocks), tuple(tuple(row) for row in c), ctg


def jordan_decompose(lattice, p, e):
    """Public Jordan decomposition with integer block data reduced mod p^e."""
    if e < 1:
        raise PreconditionError("precision e must be >= 1")
    blocks, c, _ = _jordan_exact(lattice, p)
    max_k = max((b[0] for b in blocks), default=0)
    if e < max_k + 3:
        raise PrecisionTooLow(f"e = {e} < max scale depth {max_k} + 3")
    out = []
    for kv, dim, data in blocks:
        ints = tuple(_reduce_mod(x, p, e) for x in data)
        out.append(JordanBlock(kv, dim, ints))
    order = sorted(range(len(out)), key=lambda i: (out[i].scale_exp, out[i].dim,
                                                   out[i].data))
    # permute basechange columns consistently with the sorted block order
    starts = []
    pos = 0
    for b in blocks:
        starts.append(pos)
        pos += b[1]
    perm = []
    for i in order:
        perm.extend(range(starts[i], starts[i] + blocks[i][1]))
    cc = tuple(tuple(Fraction(row[j]) for j in perm) for row in c)
    return JordanDecomposition(p, e, tuple(out[i] for i in order), cc)


def _reduce_mod(x, p, e):
    """Integer representative of a p-integral rational (int or Fraction) mod p^e."""
    pe = p ** e
    if x.denominator % p == 0:
        raise PreconditionError(f"{x} is not {p}-integral")
    return x.numerator * pow(x.denominator, -1, pe) % pe


# ---------------------------------------------------------------------------
# Gauss-sum path


@lru_cache(maxsize=None)
def _gauss_frame(lattice, den, s, p):
    """The congruence Q(r + s / den) = m in the Jordan frame of ``_jordan_exact``.

    (den, s) is the integer coset of ``DiscriminantForm.coset``.  In the
    frame the congruence reads sum_i f_i(y_i) + Q(s / den) - m = 0 with f_i
    = p^k form_i + lin_i . y_i, lin = C^T G s / den, an integer vector
    (C^T G is cached with the frame).  Returns one (k, dim, vl, unit, phi)
    per block: vl = ord_p(lin_i) (inf for lin_i = 0); unit = (u|p) for a
    line p^k u y^2 at odd p, u mod 8 for a dyadic line, and +1 / -1 for a
    hyperbolic / anisotropic dyadic plane; phi = -p^k form_i(t) is the
    p-integral constant left by completing the square, f_i(y) = p^k
    form_i(y + t) + phi with p^k B_i t = lin_i (B_i the Gram matrix of
    form_i), a Fraction with a p-unit denominator, or None where t is not
    p-integral (the block's sum then vanishes whenever the form is not zero
    mod the modulus).  The unit, the plane type and phi do not change when
    a block's basis vectors are scaled by p-adic units.
    """
    jordan, _, ctg = _jordan_exact(lattice, p)
    lin = []
    for row in ctg:
        x, r = divmod(sum(map(mul, row, s)), den)
        if r:
            raise ConsistencyError("mu is not a dual vector")
        lin.append(x)
    blocks = []
    pos = 0
    for k, dim, data in jordan:
        lb = lin[pos:pos + dim]
        pos += dim
        vl = min((valuation(x, p) for x in lb if x), default=inf)
        if dim == 2:
            a, b, c = data
            unit = 1 if a * c % 2 == 0 else -1
            phi = (Fraction(-((c * lb[0] ** 2 - b * lb[0] * lb[1] + a * lb[1] ** 2) >> k),
                            4 * a * c - b * b) if vl >= k else None)
        else:
            (a,) = data
            unit = a % 8 if p == 2 else kronecker(a, p)
            phi = (Fraction(-(lb[0] ** 2 // p ** k), 4 * a)
                   if vl >= k + (p == 2) else None)
        blocks.append((k, dim, vl, unit, phi))
    return tuple(blocks)


def _odd_class(blocks, phis, p, W, c):
    """Sum over units u mod p^W of sum_y e(u (f(y) + c) / p^W), p odd.

    A line with V = W - k > 0 gives p^k times the Gauss sum
    (ua|p)^V eps_{p^V} p^(V/2) e(u phi / p^W); the odd-V lines leave the
    character (u|p)^odd, so the u-sum is a Ramanujan sum or p^(W-1) times
    a Legendre-twisted one.  Every g_p = eps_p sqrt(p) pairs up into
    g_p^2 = (-1|p) p, so the value is an integer.
    """
    mag, odd = 1, 0
    for (k, _, vl, unit, _), phi in zip(blocks, phis):
        if W <= k:
            if vl < W:
                return 0
            mag *= p ** W
            continue
        if vl < k:
            return 0
        mag *= p ** (k + (W - k) // 2)
        if (W - k) % 2:
            mag *= unit
            odd += 1
        c += phi
    if W == 0:
        return mag
    q1 = p ** (W - 1)
    c %= q1 * p
    g2 = p if p % 4 == 1 else -p
    if odd % 2 == 0:
        ram = q1 * (p - 1) if c == 0 else -q1 if c % q1 == 0 else 0
        return mag * g2 ** (odd // 2) * ram
    if c % q1:
        return 0
    return mag * g2 ** ((odd + 1) // 2) * q1 * kronecker(c // q1, p)


def _dyadic_class(blocks, phis, W, c):
    """Sum over units u mod 2^W of sum_y e(u (f(y) + c) / 2^W) in Z[zeta_8].

    Returned as coefficients of 1, zeta, zeta^2, zeta^3 (zeta = e(1/8)).
    A line with V = W - k >= 2 gives 2^k (1 + i^(ua)) (2|ua)^V 2^(V/2)
    e(u phi / 2^W), which depends on u mod 8 besides the phase; so u runs
    over the odd residues mod 8 and the rest of u mod 2^W is a geometric
    sum, 2^(W-3) when 2^(W-3) divides the phase and 0 otherwise.
    """
    mag, roots, chars = 1, 0, []
    for (k, dim, vl, unit, _), phi in zip(blocks, phis):
        if W <= k:
            if vl < W:
                return (0, 0, 0, 0)
            mag <<= dim * W
            continue
        v = W - k
        if dim == 2:  # (+-2)^V: hyperbolic or anisotropic plane
            if vl < k:
                return (0, 0, 0, 0)
            mag *= unit ** v << (2 * k + v)
            c += phi
        elif v == 1:  # sum_y e(u (a y^2 + l y) / 2) is 2 for l odd, else 0
            if vl != k:
                return (0, 0, 0, 0)
            mag <<= k + 1
        else:
            if vl <= k:
                return (0, 0, 0, 0)
            mag <<= k + v // 2
            roots += v % 2
            chars.append((unit, v % 2 == 1))
            c += phi
    c %= 1 << W
    if W >= 3:
        if c % (1 << (W - 3)):
            return (0, 0, 0, 0)
        mag <<= W - 3
        step, residues = c >> (W - 3), (1, 3, 5, 7)
    else:
        step, residues = c << (3 - W), (1,) if W < 2 else (1, 3)
    z = [0, 0, 0, 0]
    for r in residues:
        ex, sign = r * step, 1
        for a, odd_v in chars:  # 1 + i^(ra) = sqrt(2) zeta^(+-1)
            ra = r * a % 8
            ex += 1 if ra % 4 == 1 else -1
            if odd_v and ra in (3, 5):
                sign = -sign
        ex %= 8
        z[ex % 4] += sign if ex < 4 else -sign
    roots += len(chars)
    mag <<= roots // 2
    if roots % 2:  # times sqrt(2) = zeta - zeta^3
        z = [z[1] - z[3], z[0] + z[2], z[1] + z[3], z[2] - z[0]]
    return tuple(mag * x for x in z)


def count_gauss(lattice, m, mu, p, w, disc=None):
    """N_{m,mu}(p^w) = p^-w sum_t sum_y e(t (Q(y + mu) - m) / p^w), in O(w * rank).

    The sum over t mod p^w is taken by valuation class t = p^v u: the class
    contributes p^(v rank) times a closed form at level W = w - v (see
    ``_odd_class`` and ``_dyadic_class``), so the cost is w + 1 classes of
    one term per Jordan block, whatever the size of p^w.  Independent of
    count_naive by construction; the total must be a non-negative integer
    (NonIntegralResult otherwise: that is always an implementation bug,
    never a data problem).
    """
    w = int(w)
    if w < 1:
        raise PreconditionError("w must be >= 1")
    disc = disc_of(lattice, disc)
    m, mu = disc.check_pair(m, mu)
    blocks = _gauss_frame(lattice, *disc.coset(mu), p)
    c0 = exact_int(disc.q_exact(mu) - m)
    q = p ** w
    phis = [None if b[4] is None else _reduce_mod(b[4], p, w) for b in blocks]
    n = lattice.rank
    if p == 2:
        total = [0, 0, 0, 0]
        for v in range(w + 1):
            for i, x in enumerate(_dyadic_class(blocks, phis, w - v, c0)):
                total[i] += x << v * n
        if any(total[1:]):
            raise NonIntegralResult(f"gauss path left an irrational part {total}")
        total = total[0]
    else:
        total = sum(_odd_class(blocks, phis, p, w - v, c0) * p ** (v * n)
                    for v in range(w + 1))
    n_val, rem = divmod(total, q)
    if rem or n_val < 0:
        raise NonIntegralResult(f"gauss path produced {Fraction(total, q)}")
    return RepCount(m, mu, q, n_val, "gauss")


def crosscheck_flag(raw):
    """VVEIS_CROSSCHECK's one reading: "", "0", "false" and "no" are off."""
    return raw not in ("", "0", "false", "no")


def _crosscheck_env():
    return crosscheck_flag(os.environ.get("VVEIS_CROSSCHECK", ""))


def _crosscheck(lattice, m, mu, p, w, disc, cap=10 ** 8):
    """Compare count_gauss with count_naive at p^w', raising ConsistencyError.

    w' <= w is the deepest level whose p^(w' rank) residues fit under the
    naive path's cap, so a lattice of large rank is still checked, at a
    shallower level; only when not even p^rank fits does the check raise
    BudgetExceeded.
    """
    level = w
    while level > 1 and p ** (level * lattice.rank) > cap:
        level -= 1
    naive = count_naive(lattice, m, mu, p ** level, cap=cap, disc=disc)
    gauss = count_gauss(lattice, m, mu, p, level, disc=disc)
    if naive.count != gauss.count:
        raise ConsistencyError(f"count mismatch at {p}^{level}: gauss {gauss.count} "
                               f"vs naive {naive.count}")


def local_counts(lattice, m, mu, disc):
    """Yield (p, w, N_{m,mu}(p^w)) at the Hensel depth w = w_p, for p | 2N.

    The local factors of the Eisenstein coefficients and the local
    representation test need one prime power per prime and no CRT, so this
    calls count_gauss directly.  Env VVEIS_CROSSCHECK=1 compares the two
    paths at p^w', the deepest level w' <= w_p whose p^(w' rank) residues
    fit under count_naive's default cap (``_crosscheck``), and raises
    ConsistencyError on disagreement.
    """
    crosscheck = _crosscheck_env()
    d_mu = disc.order_of(mu)
    for p in bad_primes(lattice):
        w = w_p(m, d_mu, p)
        if crosscheck:
            _crosscheck(lattice, m, mu, p, w, disc)
        yield p, w, count_gauss(lattice, m, mu, p, w, disc=disc).count


def count(lattice, m, mu, a, cap=10 ** 8, disc=None, naive_cutoff=100_000,
          crosscheck=None):
    """N_{m,mu}(a) by CRT over prime powers, dispatching naive vs gauss.

    crosscheck (or env VVEIS_CROSSCHECK=1) compares the two paths for every
    prime power p^e of a, at p^e', the deepest level e' <= e whose
    p^(e' rank) residues fit under ``cap`` (``_crosscheck``), and raises
    ConsistencyError on disagreement.
    """
    a = int(a)
    if a < 1:
        raise PreconditionError("modulus a must be >= 1")
    disc = disc_of(lattice, disc)
    if crosscheck is None:
        crosscheck = _crosscheck_env()
    if a == 1:
        m, mu = disc.check_pair(m, mu)
        return RepCount(m, mu, 1, 1, "naive")
    total = 1
    methods = set()
    for p, e in sorted(factorize(a).items()):
        pe = p ** e
        use_naive = pe ** lattice.rank <= naive_cutoff
        if use_naive:
            r = count_naive(lattice, m, mu, pe, cap=cap, disc=disc)
        else:
            r = count_gauss(lattice, m, mu, p, e, disc=disc)
        if crosscheck:
            _crosscheck(lattice, m, mu, p, e, disc, cap=cap)
        total *= r.count
        methods.add(r.method)
    method = methods.pop() if len(methods) == 1 else "mixed"
    return RepCount(Fraction(m), disc.check(mu), a, total, method)
