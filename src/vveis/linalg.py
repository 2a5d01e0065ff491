"""Exact linear algebra over the integers and rationals.

Everything here works on plain lists of ints/Fractions; no floats anywhere.
These are the primitives behind signatures, discriminant groups, dual bases,
kernel computations and the linear solves of the prescription pipeline.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Singular


def identity(n, one=1):
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def det_int(m):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse(m):
    """Inverse of a square matrix as Fractions.  Raises Singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise Singular("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


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


def congruent_diagonalize(g):
    """Exact symmetric congruence diagonalization over Q.

    Returns (diag, c) with c^T g c = diag(diag).  Pivot choice: largest
    absolute diagonal value, ties broken by lowest index; a zero diagonal is
    repaired by a row+column addition from a nonzero off-diagonal entry.
    """
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    c = identity(n, Fraction(1))
    for k in range(n):
        best = None
        for i in range(k, n):
            if a[i][i] != 0 and (best is None or abs(a[i][i]) > abs(a[best][best])):
                best = i
        if best is None:
            found = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                break  # remaining block is zero (degenerate input)
            i, j = found
            sym_add(a, c, i, j, Fraction(1))  # makes a[i][i] = 2*a[i][j] != 0
            best = i
        sym_swap(a, c, k, best)
        for j in range(k + 1, n):
            if a[k][j] != 0:
                sym_add(a, c, j, k, -a[k][j] / a[k][k])
    return [a[i][i] for i in range(n)], c
