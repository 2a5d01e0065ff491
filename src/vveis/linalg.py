"""Exact linear algebra over the integers and rationals.

Everything here works on plain lists of ints/Fractions; no floats anywhere.
These are the primitives behind discriminant groups, kernel computations
and the linear solves of the prescription pipeline.  ``sym_eliminate`` is
the one symmetric elimination over the integers: a single fraction-free
(Bareiss) pass from which a lattice reads its determinant, signature,
level, the diagonal of G^-1 and the LDL^T frame of its enumeration walk.
The p-adic Jordan splitting works on the same ``sym_swap``/``sym_add``
moves.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Singular


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rref(m):
    """Reduced row echelon form over Q.  Returns (rows, pivot_columns)."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def kernel(m):
    """Basis of the rational right kernel {x : m x = 0}."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u·a·v = diag(d), u and v unimodular, and each
    diagonal entry dividing the next.  Diagonal entries are non-negative.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    d = [list(map(int, row)) for row in a]
    u = identity(nrows)
    v = identity(ncols)

    def row_op(i, j, q):  # row i -= q * row j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:  # remainder is a smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain property
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # pull the offending row up, keep reducing
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    diag = [d[i][i] for i in range(min(nrows, ncols))]
    return diag, u, v


def sym_swap(g, c, i, j):
    """Swap basis vectors i and j of the symmetric matrix g; c tracks the basis."""
    if i == j:
        return
    for row in g:
        row[i], row[j] = row[j], row[i]
    g[i], g[j] = g[j], g[i]
    for row in c:
        row[i], row[j] = row[j], row[i]


def sym_add(g, c, dst, src, f):
    """Basis vector dst += f * basis vector src: column and row of g, column of c."""
    for row in g:
        row[dst] += f * row[src]
    for k in range(len(g)):
        g[dst][k] += f * g[src][k]
    for row in c:
        row[dst] += f * row[src]


def sym_eliminate(g):
    """Symmetric fraction-free (Bareiss) elimination of an integer matrix.

    Returns (minors, rows, c), all Python ints.  The pivot of step k is the
    first nonzero diagonal entry of the trailing block, swapped to k; with
    none, e_i += e_j folds a nonzero off-diagonal entry onto the diagonal
    (a_ii = 2 a_ij), and an all-zero trailing block raises Singular.  For the
    matrix in the basis these moves leave, minors[k] is the leading k x k
    minor D_k (D_0 = 1, D_n = det g) and rows[k] is the Bareiss row R_k:
    zero before column k, R_kk = D_{k+1}.  The columns of c satisfy
    c^T g c = diag(D_k D_{k+1}), so g^-1 = c diag(1 / (D_k D_{k+1})) c^T,
    and where no pivot moved, g = L D L^T with l_jk = R_kj / R_kk and
    d_k = D_{k+1} / D_k.  Each division by the previous pivot is exact
    (E. H. Bareiss, Math. Comp. 22 (1968)).
    """
    n = len(g)
    a = [list(map(int, row)) for row in g]
    c = identity(n)
    minors = [1]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if a[i][j]), None)
            if pair is None:
                raise Singular("gram matrix is singular")
            piv = pair[0]
            sym_add(a, c, piv, pair[1], 1)
        sym_swap(a, c, k, piv)
        p, prev = a[k][k], minors[-1]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
            for row in c:
                row[i] = (p * row[i] - f * row[k]) // prev
        minors.append(p)
    return minors, a, c
