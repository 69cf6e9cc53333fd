"""Exact dense linear algebra for the small matrices this library needs.

Everything here works over any exact scalar type supporting +, -, *, /
(Fraction, int, FieldElement).  Matrices are tuples/lists of row tuples.
Dimensions stay at n <= 4, so cofactor expansion and Gaussian elimination
with exact pivoting are plenty.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

__all__ = [
    "det", "mat_inverse", "mat_vec", "mat_mul", "transpose", "solve",
    "identity", "vec_dot", "vec_sub", "primitive_int_vector", "gcd_vector",
    "affine_rank", "unimodular_completion", "lll_reduce", "subset_det_sum",
]


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    # n == 4 (and beyond, by recursion)
    total = None
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [tuple(row[k] for k in range(n) if k != j) for row in m[1:]]
        term = m[0][j] * det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return m[0][0] * 0  # zero of the right scalar type
    return total


def identity(n):
    """The n x n identity matrix over Fraction."""
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def transpose(m):
    return [tuple(row[i] for row in m) for i in range(len(m[0]))]


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return [tuple(vec_dot(row, col) for col in bt) for row in a]


def vec_dot(a, b):
    it = iter(zip(a, b))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def solve(m, rhs):
    """Solve m x = rhs exactly (m square nonsingular); int entries are read
    as Fractions."""
    n = len(m)
    a = [[_exact(x) for x in row] + [_exact(rhs[i])] for i, row in enumerate(m)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            x = a[r][col]
            if not _is_zero(x):
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and not _is_zero(a[r][col]):
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def mat_inverse(m):
    n = len(m)
    cols = []
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = _one_like(m[0][0])
        cols.append(solve(m, e))
    return [tuple(cols[j][i] for j in range(n)) for i in range(n)]


def _exact(x):
    """Python ints as Fractions, so that `/` divides exactly."""
    return Fraction(x) if isinstance(x, int) else x


def _is_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def _one_like(x):
    if hasattr(x, "field"):
        return x.field.one()
    return Fraction(1)


def gcd_vector(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitive_int_vector(v):
    """Divide an integer vector by the gcd of its entries."""
    g = gcd_vector(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(int(x) // g for x in v)


def unimodular_completion(v):
    """(U, U^-1): integer matrices of determinant +-1 whose U has last column v.

    v must be a primitive integer vector.  Row operations reduce v to e_n
    while the same operations, inverted, build U column by column.
    """
    n = len(v)
    vals = [int(x) for x in v]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    w = [row[:] for row in u]   # invariant: w v = vals and u w = I
    while True:
        nz = [j for j in range(n) if vals[j]]
        if len(nz) <= 1:
            break
        p = min(nz, key=lambda j: abs(vals[j]))
        for i in nz:
            if i == p:
                continue
            q = vals[i] // vals[p]
            vals[i] -= q * vals[p]
            w[i] = [a - q * b for a, b in zip(w[i], w[p])]
            for row in u:
                row[p] += q * row[i]
    if not nz or abs(vals[nz[0]]) != 1:
        raise ValueError("vector is not primitive")
    p, last = nz[0], n - 1
    w[p], w[last] = w[last], w[p]
    for row in u:
        row[p], row[last] = row[last], row[p]
    if vals[p] < 0:
        w[last] = [-a for a in w[last]]
        for row in u:
            row[last] = -row[last]
    return [tuple(row) for row in u], [tuple(row) for row in w]


def lll_reduce(vectors):
    """(U, U^-1): integer matrices of determinant +-1 such that the vectors
    sum_j U[j][k] vectors[j], k = 0, ..., n-1, are an LLL-reduced basis, with
    the usual Lovasz constant 3/4, of the lattice the independent rational
    `vectors` span (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982).  The
    Gram-Schmidt data are exact Fractions, recomputed after each step; n
    stays small."""
    n = len(vectors)
    b = [list(v) for v in vectors]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def gram_schmidt():
        star, mu, norm = [], [[Fraction(0)] * n for _ in range(n)], []
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = vec_dot(b[i], star[j]) / norm[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norm.append(vec_dot(v, v))
        return mu, norm

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(gram_schmidt()[0][k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for row in u:
                    row[k] -= q * row[j]
        mu, norm = gram_schmidt()
        if norm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            for row in u:
                row[k], row[k - 1] = row[k - 1], row[k]
            k = max(k - 1, 1)
    u_inv = [tuple(int(x) for x in row) for row in mat_inverse(u)]
    return [tuple(row) for row in u], u_inv


def affine_rank(points):
    """Affine dimension of a set of exact rational vectors."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    diffs = [vec_sub(p, base) for p in pts[1:]]
    return _row_rank(diffs)


def _row_rank(rows):
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = None
        for i, r in enumerate(rows):
            if r[col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        pivot = rows.pop(piv)
        rank += 1
        pivot = [x / pivot[col] for x in pivot]
        rows = [
            [x - r[col] * p for x, p in zip(r, pivot)]
            for r in rows
        ]
        rows = [r for r in rows if any(x != 0 for x in r)]
        col += 1
    return rank


_MAX_SUBSET_VECTORS = 24  # C(24, 3) = 2024 determinants


def subset_det_sum(vectors, n):
    """Sum over all n-subsets of |det| of the chosen vectors.

    The vectors must be exact (int/Fraction entries), at most
    _MAX_SUBSET_VECTORS of them.  This is the shared kernel behind facet
    determinants, edge-star determinants and mixed volumes of segments.
    """
    vecs = [tuple(v) for v in vectors]
    m = len(vecs)
    if m < n:
        raise ValueError(f"need at least {n} vectors, got {m}")
    if m > _MAX_SUBSET_VECTORS:
        raise ValueError(f"subset enumeration capped at {_MAX_SUBSET_VECTORS} vectors, got {m}")
    total = Fraction(0)
    for idx in combinations(range(m), n):
        d = det([vecs[i] for i in idx])
        total += abs(d)
    return total
