"""Exact linear algebra over the integers.

Everything here works on plain lists of Python ints; no floats anywhere.
``Echelon`` is the one row elimination (fraction-free over Z): the ranks
and kernels of the Weil invariants and the kernel combinations of the
prescription search.  ``sym_eliminate`` is the one symmetric elimination:
a single fraction-free (Bareiss) pass, on the moves ``sym_swap`` and
``sym_add``, that keeps only its leading minors and Bareiss rows; a lattice
reads its determinant and signature from the minors, the LDL^T frame of its
enumeration walk from the rows, and each diagonal entry of G^-1 from the
determinant of a minor (Cramer's rule).  The p-adic Jordan splitting
(``repnums``) is the one symmetric congruence elimination over Z_p, also in
Python ints: it swaps basis vectors (``sym_swap``), and it folds and clears
entries by e_dst := (a e_dst + sum b e_src) / h with a a p-adic unit and h
the content of the new basis column (``sym_combine``), so the basechange
stays an integer matrix with a p-unit determinant.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import Singular


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class Echelon:
    """Incremental row echelon form over Z, fraction-free.

    A row of ints or Fractions is cleared of denominators, then reduced in
    Python ints against the rows kept so far, primitive after every step.
    Only the first width entries are pivoted on; a tail beyond them goes
    through the same integer combinations.  Every step is exact, so rank and
    kernel are those over Q (E. H. Bareiss, Math. Comp. 22 (1968)).
    """

    def __init__(self, width):
        self.width = width
        self.rows = []  # (pivot column, primitive integer row)

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row):
        """Keep the reduced row and return None if it is nonzero on the first
        width entries; else return it, tail included."""
        a = _primitive(integral(row)[1])
        for piv, r in self.rows:
            a = _eliminate(a, r, piv)
        piv = next((i for i in range(self.width) if a[i]), None)
        if piv is None:
            return a
        self.rows.append((piv, a))
        return None

    def kernel(self):
        """One primitive integer vector per free column f, a positive multiple
        of the reduced row echelon kernel vector that is 1 at f."""
        done = []  # the kept rows reduced against each other, last first
        for piv, r in reversed(self.rows):
            for q, s in done:
                r = _eliminate(r, s, q)
            done.append((piv, r))
        den = lcm(*[r[piv] for piv, r in done])
        pivots = {piv for piv, _ in done}
        basis = []
        for f in range(self.width):
            if f not in pivots:
                v = [den * (j == f) for j in range(self.width)]
                for piv, r in done:
                    v[piv] = -r[f] * den // r[piv]
                basis.append(_primitive(v))
        return basis


def integral(row):
    """(den, a): row = a / den for a row of ints and Fractions, a a list of
    ints and den the least common denominator."""
    den = lcm(1, *(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _primitive(a):
    g = gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _eliminate(a, r, piv):
    """a with its entry at r's pivot cleared: p a - x r, made primitive."""
    x = a[piv]
    if not x:
        return a
    p = r[piv]
    g = gcd(p, x)
    return _primitive([p // g * u - x // g * v for u, v in zip(a, r)])


def smith_normal_form(a, det):
    """Smith normal form of an integer matrix.

    Returns (d, v) with v unimodular and u·a·v = diag(d) for some unimodular
    u, each diagonal entry dividing the next.  Diagonal entries are
    non-negative.

    ``det`` is the determinant of a; a nonzero one bounds the entries by
    D = |det|.  The row lattice of a·v contains D·Z^n (adj(a)·a = det·I), so
    the rows of the working matrix together with D·Z^n span it, and an entry
    may be replaced by its symmetric residue mod D.  An entry is reduced only
    once |x| > D^2, so a run whose entries stay within ±D^2 is the unbounded
    run, and every remainder below a pivot is kept as it is, so each Euclid
    step still shrinks the pivot.  The chain is restored at the end by
    d_i = gcd(d_i, D), with gcd(0, D) = D.  v is never reduced (P. D. Domich,
    R. Kannan and L. E. Trotter, Math. Oper. Res. 12 (1987); J. L. Hafner
    and K. S. McCurley, SIAM J. Comput. 20 (1991)).  det = 0 (a singular
    or non-square a) leaves the elimination unbounded.

    The pivot is the first entry of least absolute value in row-major
    order (the scan stops at a unit, which nothing undercuts).  A row
    operation builds the new row as one list and reduces it only when an
    entry passes D^2; a column operation updates, in place, the rows from
    the pivot's on that have a nonzero entry in the pivot column (the rows
    above are 0 there), and the columns of v.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    D = abs(int(det))
    big, half = D * D, D // 2

    def cut(row):  # the row with each entry past D^2 replaced by its symmetric residue
        if D and row and (max(row) > big or min(row) < -big):
            return [(x + half) % D - half if abs(x) > big else x for x in row]
        return row

    d = [cut([int(x) for x in row]) for row in a]
    v = identity(ncols)

    def row_op(i, j, q):  # row i -= q * row j
        d[i] = cut([x - q * y for x, y in zip(d[i], d[j])])

    def col_op(j, q):  # col j -= q * col t; the rows above t are 0 from column t on
        for row in d[t:]:
            if y := row[t]:
                x = row[j] - q * y
                row[j] = (x + half) % D - half if D and abs(x) > big else x
        for row in v:
            row[j] -= q * row[t]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        # the first entry of least absolute value, in row-major order
        piv, least = None, 0
        for i in range(t, nrows):
            row = d[i]
            for j in range(t, ncols):
                if x := row[j]:
                    x = abs(x)
                    if not least or x < least:
                        piv, least = (i, j), x
                        if x == 1:  # no entry is smaller
                            break
            if least == 1:
                break
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
                    col_op(j, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain property
            p = abs(d[t][t])
            offender = next((i for i in range(t + 1, nrows) if gcd(p, *d[i][t + 1:]) != p),
                            None)
            if offender is None:
                break
            row_op(t, offender, -1)  # pull the offending row up, keep reducing
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    diag = [gcd(d[i][i], D) for i in range(min(nrows, ncols))]
    return diag, v


def sym_swap(g, c, i, j):
    """Swap basis vectors i and j of the symmetric matrix g; c tracks the basis."""
    if i == j:
        return
    for row in g:
        row[i], row[j] = row[j], row[i]
    g[i], g[j] = g[j], g[i]
    for row in c:
        row[i], row[j] = row[j], row[i]


def sym_add(g, dst, src, f):
    """Basis vector dst += f * basis vector src: column dst of g in place,
    row by row, then row dst as one list.  g need not be symmetric
    (``sym_eliminate`` keeps its Bareiss rows in it)."""
    for row in g:
        row[dst] += f * row[src]
    g[dst] = [x + f * y for x, y in zip(g[dst], g[src])]


def sym_combine(g, c, dst, a, terms):
    """Basis vector dst := (a * dst + sum of b * src over the one or two (src,
    b) in terms) / h, h the content of the new column of c, on a symmetric
    g: row dst of g as one list, new = a g_dst + sum b g_src with the
    diagonal entry a new_dst + sum b new_src, copied into column dst; column
    dst of c in place, row by row.  For an integer basis c of an integral
    lattice with Gram matrix g the new vector is a lattice vector, so g
    stays an integer matrix; h divides a det c, so a p-adic unit a keeps
    det c a p-adic unit."""
    if len(terms) == 1:
        ((src, b),) = terms
        new = [a * x + b * y for x, y in zip(g[dst], g[src])]
        new[dst] = a * new[dst] + b * new[src]
        for row in c:
            row[dst] = a * row[dst] + b * row[src]
    else:
        (s1, b1), (s2, b2) = terms
        new = [a * x + b1 * y + b2 * z for x, y, z in zip(g[dst], g[s1], g[s2])]
        new[dst] = a * new[dst] + b1 * new[s1] + b2 * new[s2]
        for row in c:
            row[dst] = a * row[dst] + b1 * row[s1] + b2 * row[s2]
    h = gcd(*[row[dst] for row in c])
    if h > 1:
        for row in c:
            row[dst] //= h
        new = [x // h for x in new]
        new[dst] //= h
    g[dst] = new
    for row, x in zip(g, new):
        row[dst] = x


def sym_eliminate(g):
    """Symmetric fraction-free (Bareiss) elimination of an integer matrix.

    Returns (minors, rows), all Python ints.  The pivot of step k is the
    first nonzero diagonal entry of the trailing block, swapped to k; with
    none, e_i += e_j folds a nonzero off-diagonal entry onto the diagonal
    (a_ii = 2 a_ij), and an all-zero trailing block raises Singular.  For the
    matrix in the basis these moves leave, minors[k] is the leading k x k
    minor D_k (D_0 = 1, D_n = det g) and rows[k] is the Bareiss row R_k:
    zero before column k, R_kk = D_{k+1}.  Each move is a congruence by a
    matrix of determinant +-1, so D_n = det g, and for a symmetric g the
    signs of D_k D_{k+1} give its signature.  Where no pivot moved, g = L D
    L^T with l_jk = R_kj / R_kk and d_k = D_{k+1} / D_k.  Each division by
    the previous pivot is exact (E. H. Bareiss, Math. Comp. 22 (1968)).
    """
    n = len(g)
    a = [list(map(int, row)) for row in g]
    minors = [1]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if a[i][j]), None)
            if pair is None:
                raise Singular("gram matrix is singular")
            piv = pair[0]
            sym_add(a, piv, pair[1], 1)
        sym_swap(a, (), k, piv)  # no basis to track
        p, prev = a[k][k], minors[-1]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        minors.append(p)
    return minors, a
