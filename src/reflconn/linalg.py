"""Exact linear algebra helpers.

Determinant and adjugate are generic Laplace expansions over any ring whose
entries sum products in one accumulation, CycloNum scalars and MPoly
polynomials alike: they serve the Jacobian over MPoly and the scalar
determinants of group elements.  Each entry of a matrix product and
each level of a Laplace expansion is one call to the entries' class's
sum_of_products.  mat_inverse serves the group action f(x) -> f(x * M^{-T}):
poly.linear_images reads the images of x1..xn off the rows of M^{-1},
and a group keeps them for each element, so that an element is inverted
once per group.
Row reduction and solving are restricted to CycloNum, where every nonzero
pivot is invertible.
"""

from __future__ import annotations

from .cyclo import CycloNum
from .errors import SingularMatrix


def mat_mul(a, b):
    """a * b, each entry one sum of products in the ring of a's entries.

    b's entry is the left factor of each product, so a polynomial matrix
    may be multiplied by a scalar one (MPoly.sum_of_products takes a
    CycloNum there).
    """
    kind = type(a[0][0])
    cols = range(len(b[0]))
    return tuple(
        tuple(kind.sum_of_products([(1, b[t][j], x) for t, x in enumerate(row)]) for j in cols)
        for row in a
    )


def mat_sub(a, b):
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def identity_matrix(n: int, conductor: int):
    one = CycloNum.one(conductor)
    zero = CycloNum.zero(conductor)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def _minor(matrix, i, j):
    return [
        [matrix[r][c] for c in range(len(matrix)) if c != j]
        for r in range(len(matrix))
        if r != i
    ]


def det(matrix):
    """Determinant by Laplace expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    top = matrix[0]
    return type(top[0]).sum_of_products([
        (-1 if j % 2 else 1, x, matrix[1][1 - j] if n == 2 else det(_minor(matrix, 0, j)))
        for j, x in enumerate(top)
    ])


def adjugate(matrix):
    """Transpose of the cofactor matrix; matrix * adj = det * I."""
    n = len(matrix)
    if n == 1:
        # adjugate of a 1x1 matrix is (1) in the same ring
        return ((matrix[0][0] ** 0,),)
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = det(_minor(matrix, j, i))
            if (i + j) % 2:
                cof = -cof
            row.append(cof)
        adj.append(tuple(row))
    return tuple(adj)


def mat_inverse(matrix):
    """Inverse of a CycloNum matrix via adjugate/determinant.

    det is read off the adjugate's first column, (M * adj)[0][0], so one
    Laplace expansion serves both.
    """
    adj = adjugate(matrix)
    d = CycloNum.sum_of_products([(1, x, adj[j][0]) for j, x in enumerate(matrix[0])])
    if not d:
        raise SingularMatrix("matrix is not invertible")
    d_inv = d.inverse()
    return tuple(tuple(e * d_inv for e in row) for row in adj)


def row_echelon(rows):
    """In-place forward elimination over CycloNum; zero entries of the
    pivot row are skipped, so sparse rows cost only their nonzeros.

    Returns (echelon rows, pivot column indices).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        pivot = rows[r] = [e * inv if e else e for e in rows[r]]
        nonzero = [j for j, e in enumerate(pivot) if e]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                for j in nonzero:
                    row[j] = row[j] - f * pivot[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def mat_rank(matrix) -> int:
    _, pivots = row_echelon(matrix)
    return len(pivots)


class InconsistentSystem(Exception):
    pass


class UnderdeterminedSystem(Exception):
    pass


def solve_unique(rows, rhs):
    """Solve rows * x = b over CycloNum for each vector b in rhs.

    Returns one solution per right-hand side, from a single elimination.
    Each solution must exist and be unique: raises InconsistentSystem if
    any b is outside the column space, UnderdeterminedSystem otherwise.
    """
    if not rows:
        if any(any(b) for b in rhs):
            raise InconsistentSystem("right-hand side is outside the column space")
        return [[] for _ in rhs]
    ncols = len(rows[0])
    aug = [list(r) + [b[i] for b in rhs] for i, r in enumerate(rows)]
    reduced, pivots = row_echelon(aug)
    if pivots and pivots[-1] >= ncols:
        raise InconsistentSystem("right-hand side is outside the column space")
    if len(pivots) < ncols:
        raise UnderdeterminedSystem("linear system does not have full column rank")
    return [[reduced[r][ncols + k] for r in range(ncols)] for k in range(len(rhs))]
