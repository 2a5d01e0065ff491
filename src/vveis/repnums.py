"""Congruence representation numbers N_{m,mu}(a) with two independent paths.

count_naive enumerates residues; count_gauss evaluates the finite character
sum N = p^{-w} sum_t e(t(Q(r+mu)-m)/p^w) through closed-form quadratic Gauss
sums per p-adic Jordan block, in exact cyclotomic arithmetic.  The two paths
share no code beyond the lattice type, which is the point: equality on random
instances is the package's central correctness check (env VVEIS_CROSSCHECK=1
forces both paths on every count() call).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from . import linalg
from .arith import factorize, kronecker, valuation
from .errors import (
    BudgetExceeded,
    ConsistencyError,
    NegativeValuation,
    NonIntegralResult,
    PrecisionTooLow,
    PreconditionError,
)
from .lattice import discriminant_form

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
        assert 0 <= self.count

    def __int__(self):
        return self.count

    def __eq__(self, other):
        if isinstance(other, RepCount):
            return (self.m, self.mu, self.a, self.count) == \
                (other.m, other.mu, other.a, other.count)
        return self.count == other

    def __hash__(self):
        return hash((self.m, self.mu, self.a, self.count))


def _scaled_data(lattice, m, mu, disc):
    """Integer data for the congruence: z = d*r + s, target 2 d^2 m, ell = G mu."""
    if disc is None:
        disc = discriminant_form(lattice)
    mu = disc.check(mu)
    m = Fraction(m)
    if (m - disc.q_value(mu)).denominator != 1:
        raise PreconditionError("m must be congruent to Q(mu) mod 1")
    vec = disc.vector(mu)
    den = lcm(*[v.denominator for v in vec], 1)
    s = [int(v * den) for v in vec]
    t0 = 2 * den * den * m
    assert t0.denominator == 1
    return disc, mu, m, vec, den, s, int(t0)


def count_naive(lattice, m, mu, a, cap=10 ** 8, disc=None):
    """Exhaustive count of {r in L/aL : Q(r+mu) = m mod a}.

    Loops (2 d^2)-scaled integer values in vectorized blocks, so the modular
    congruence is exact integer arithmetic throughout.
    """
    a = int(a)
    if a < 1:
        raise PreconditionError("modulus a must be >= 1")
    disc, mu, m, vec, den, s, t0 = _scaled_data(lattice, m, mu, disc)
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
    """Exact rational block-diagonalization of the Gram matrix over Z_p.

    Returns (blocks, basechange) with exact Fraction block data; blocks are
    (scale_exp, dim, data) where the quadratic form on the block is
    p^scale_exp * (u x^2) resp. p^scale_exp * (a x^2 + b xy + c y^2), b odd.
    """
    n = lattice.rank
    g = [[Fraction(x) for x in row] for row in lattice.gram]
    c = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
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
                linalg.sym_add(g, c, i, j, Fraction(1))
                continue
            break
        if p == 2 and (diag_val is None or (off_val is not None and off_val < diag_val)):
            i, j = off_best
            linalg.sym_swap(g, c, k, i)
            j = i if j == k else j
            linalg.sym_swap(g, c, k + 1, j)
            det2 = g[k][k] * g[k + 1][k + 1] - g[k][k + 1] ** 2
            for l in range(k + 2, n):
                # solve [g_kl, g_k+1,l] = B x, subtract
                b1, b2 = g[k][l], g[k + 1][l]
                x1 = (g[k + 1][k + 1] * b1 - g[k][k + 1] * b2) / det2
                x2 = (g[k][k] * b2 - g[k][k + 1] * b1) / det2
                if x1:
                    linalg.sym_add(g, c, l, k, -x1)
                if x2:
                    linalg.sym_add(g, c, l, k + 1, -x2)
            kv = valuation(g[k][k + 1], 2)
            sc = Fraction(2) ** kv
            blocks.append((kv, 2, (g[k][k] / (2 * sc), g[k][k + 1] / sc,
                                   g[k + 1][k + 1] / (2 * sc))))
            k += 2
            continue
        i = diag_best
        linalg.sym_swap(g, c, k, i)
        pivot = g[k][k]
        for j in range(k + 1, n):
            if g[k][j]:
                linalg.sym_add(g, c, j, k, -g[k][j] / pivot)
        qc = pivot / 2
        kv = valuation(qc, p)
        blocks.append((kv, 1, (qc / Fraction(p) ** kv,)))
        k += 1
    spans = []
    pos = 0
    for _, dim, _ in blocks:
        spans += [pos] * dim
        pos += dim
    for i in range(n):
        for j in range(n):
            if spans[i] != spans[j]:
                assert g[i][j] == 0, "elimination left a stray entry"
    return tuple(blocks), tuple(tuple(row) for row in c)


def jordan_decompose(lattice, p, e):
    """Public Jordan decomposition with integer block data reduced mod p^e."""
    if e < 1:
        raise PreconditionError("precision e must be >= 1")
    blocks, c = _jordan_exact(lattice, p)
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
    cc = tuple(tuple(row[j] for j in perm) for row in c)
    return JordanDecomposition(p, e, tuple(out[i] for i in order), cc)


def _reduce_mod(x, p, e):
    """Integer representative of a p-integral Fraction mod p^e."""
    pe = p ** e
    if x.denominator % p == 0:
        raise PreconditionError(f"{x} is not {p}-integral")
    return x.numerator * pow(x.denominator, -1, pe) % pe


# ---------------------------------------------------------------------------
# Gauss-sum path


class _Mono:
    """coeff * zeta_M^exp * sqrt(2)^f2 * sqrt(p)^fp, flags in {0,1}."""

    __slots__ = ("coeff", "exp", "f2", "fp")

    def __init__(self, coeff, exp=0, f2=0, fp=0):
        self.coeff = Fraction(coeff)
        self.exp = exp
        self.f2 = f2
        self.fp = fp

    def mul(self, other, m_order, p):
        coeff = self.coeff * other.coeff
        f2 = self.f2 + other.f2
        if f2 == 2:
            coeff *= 2
            f2 = 0
        fp = self.fp + other.fp
        if fp == 2:
            coeff *= p
            fp = 0
        return _Mono(coeff, (self.exp + other.exp) % m_order, f2, fp)


def _gauss1(a, b, p, w, m_order):
    """Sum_{y mod p^w} e((a y^2 + b y)/p^w) as a _Mono, or None for zero.

    a, b are integers (a reduced mod at least p^(w+2)).
    """
    if w == 0:
        return _Mono(1)
    q = p ** w
    if a % q == 0:
        return _Mono(q) if b % q == 0 else None
    alpha = 0
    aa = a
    while aa % p == 0:
        aa //= p
        alpha += 1
    if alpha > 0:
        if b % p ** alpha:
            return None
        sub = _gauss1(a // p ** alpha, b // p ** alpha, p, w - alpha, m_order)
        if sub is None:
            return None
        return _Mono(p ** alpha).mul(sub, m_order, p)
    if p != 2:
        inv4a = pow(4 * a, -1, q)
        phase = (-b * b * inv4a) % q
        mono = _Mono(p ** (w // 2), phase * (m_order // q) % m_order)
        sign = _legendre_pow(a, p, w)
        mono.coeff *= sign
        if w % 2:
            mono.fp = 1
            if p % 4 == 3:  # eps_{p^w} = i
                mono.exp = (mono.exp + m_order // 4) % m_order
        return mono
    # p = 2, a odd
    if w == 1:
        return _Mono(2) if b % 2 else None
    if b % 2:
        return None
    bh = b // 2
    cc = (bh * pow(a, -1, q // 2)) % (q // 2)
    phase = (-a * cc * cc) % q
    mono = _Mono(2 ** ((w + 1) // 2), phase * (m_order // q) % m_order,
                 f2=(w + 1) % 2)
    if w % 2 == 1 and _kron2(a) == -1:  # (2|a)^w, trivial for even w
        mono.coeff = -mono.coeff
    z8 = m_order // 8
    mono.exp = (mono.exp + (z8 if a % 4 == 1 else -z8)) % m_order
    return mono


def _kron2(a):
    return 1 if a % 8 in (1, 7) else -1


def _legendre_pow(a, p, w):
    return kronecker(a, p) if w % 2 else 1


def _gauss2(t, k, abc, lin, w, m_order):
    """2x2 dyadic block contribution for parameter t, or None for zero.

    Quadratic part t * 2^k (a y1^2 + b y1 y2 + c y2^2) with b odd; linear
    part t*(l1 y1 + l2 y2).  Type by det of the bilinear block mod 8.
    """
    q = 1 << w
    a, b, c = abc
    l1, l2 = lin
    tl1, tl2 = t * l1, t * l2
    if t == 0:
        vt = w + k + 1  # effectively infinite
    else:
        vt = (t & -t).bit_length() - 1
    s = min(k + vt, w)
    if tl1 % (1 << s) or tl2 % (1 << s):
        return None
    det = 4 * a * c - b * b
    if s >= w:
        return _Mono(Fraction(2) ** (2 * w))
    inv_det = pow(det, -1, q)
    # sigma = -B^{-1} (l / 2^k) mod 2^w
    h1, h2 = l1 >> k, l2 >> k
    s1 = (-(inv_det * (2 * c * h1 - b * h2))) % q
    s2 = (-(inv_det * (2 * a * h2 - b * h1))) % q
    qs = a * s1 * s1 + b * s1 * s2 + c * s2 * s2
    f0 = (t * ((1 << k) * qs + l1 * s1 + l2 * s2)) % q
    base = 2 if det % 8 == 7 else -2
    val = Fraction(2) ** (2 * s) * Fraction(base) ** (w - s)
    return _Mono(val, f0 * (m_order // q) % m_order)


def count_gauss(lattice, m, mu, p, w, disc=None):
    """N_{m,mu}(p^w) via the character sum over Jordan blocks.

    Independent of count_naive by construction; asserts the final cyclotomic
    value is a non-negative integer (NonIntegralResult otherwise: that is
    always an implementation bug, never a data problem).
    """
    w = int(w)
    if w < 1:
        raise PreconditionError("w must be >= 1")
    disc, mu, m, vec, den, s, t0 = _scaled_data(lattice, m, mu, disc)
    q = p ** w
    c0 = disc.lattice.q_value(vec) - m
    assert c0.denominator == 1, "precondition checked above"
    c0 = int(c0)
    ell = [sum(lattice.gram[i][j] * vec[j] for j in range(lattice.rank))
           for i in range(lattice.rank)]
    assert all(x.denominator == 1 for x in ell), "mu is not a dual vector"
    blocks, cmat = _jordan_exact(lattice, p)
    ct = linalg.transpose([list(r) for r in cmat])
    lin = [sum(ct[i][j] * ell[j] for j in range(lattice.rank))
           for i in range(lattice.rank)]
    e_hi = w + 3 + max((b[0] for b in blocks), default=0)
    lin_int = [_reduce_mod(Fraction(x), p, e_hi) for x in lin]
    blk_int = []
    pos = 0
    for kv, dim, data in blocks:
        ints = tuple(_reduce_mod(x, p, e_hi) for x in data)
        blk_int.append((kv, dim, ints, lin_int[pos:pos + dim]))
        pos += dim
    m_order = lcm(8, q)
    plain = {}
    rootp = {}
    for t in range(q):
        mono = _Mono(1, (t * c0 % q) * (m_order // q) % m_order)
        dead = False
        for kv, dim, ints, lin_part in blk_int:
            if dim == 1:
                f = _gauss1(t * p ** kv * ints[0], t * lin_part[0], p, w, m_order)
            else:
                f = _gauss2(t, kv, ints, lin_part, w, m_order)
            if f is None:
                dead = True
                break
            mono = mono.mul(f, m_order, p)
        if dead:
            continue
        target = rootp if mono.fp else plain
        if mono.f2:
            z8 = m_order // 8
            for ex in ((mono.exp + z8) % m_order, (mono.exp - z8) % m_order):
                target[ex] = target.get(ex, Fraction(0)) + mono.coeff
        else:
            target[mono.exp] = target.get(mono.exp, Fraction(0)) + mono.coeff
    if rootp:
        shift = -(m_order // 4) if p % 4 == 3 else 0  # sqrt(p) = (-i)^[p=3 mod 4] g_p
        zp = m_order // p
        for ex, cf in rootp.items():
            for x in range(1, p):
                j = (ex + x * zp + shift) % m_order
                plain[j] = plain.get(j, Fraction(0)) + cf * kronecker(x, p)
    from .weilrep import Cyclotomic
    total = Cyclotomic(m_order, plain).rational_value()
    n_val = total / q
    if n_val.denominator != 1 or n_val < 0:
        raise NonIntegralResult(f"gauss path produced {n_val}")
    return RepCount(m, mu, q, int(n_val), "gauss")


def count(lattice, m, mu, a, cap=10 ** 8, disc=None, naive_cutoff=100_000,
          crosscheck=None):
    """N_{m,mu}(a) by CRT over prime powers, dispatching naive vs gauss.

    crosscheck (or env VVEIS_CROSSCHECK=1) runs both paths on every prime
    power and raises ConsistencyError on disagreement.
    """
    a = int(a)
    if a < 1:
        raise PreconditionError("modulus a must be >= 1")
    if disc is None:
        disc = discriminant_form(lattice)
    if crosscheck is None:
        crosscheck = os.environ.get("VVEIS_CROSSCHECK", "") not in ("", "0")
    if a == 1:
        _scaled_data(lattice, m, mu, disc)  # precondition check
        return RepCount(Fraction(m), disc.check(mu), 1, 1, "naive")
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
            other = (count_gauss(lattice, m, mu, p, e, disc=disc) if use_naive
                     else count_naive(lattice, m, mu, pe, cap=cap, disc=disc))
            if other.count != r.count:
                raise ConsistencyError(
                    f"count mismatch at {p}^{e}: naive/gauss {r.count} vs {other.count}")
        total *= r.count
        methods.add(r.method)
    method = methods.pop() if len(methods) == 1 else "mixed"
    return RepCount(Fraction(m), disc.check(mu), a, total, method)
