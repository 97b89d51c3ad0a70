"""Macaulay resultants for square homogeneous systems.

For r forms in r variables of degrees d_1..d_r the classical Macaulay
construction pairs a square matrix with a designated submatrix so that
det(numerator) = Res * det(denominator).  Normalization is pinned by
Res(X_1^{d_1}, ..., X_r^{d_r}) = 1: on that system the numerator is a
permutation-free identity.  The resultant vanishes exactly when the
forms share a projective zero, which gives an emptiness test fully
independent of the Groebner route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import MIN_RANDOMIZED_FIELD, Field, ensure_min_size
from .groebner import groebner, is_empty
from .polynomials import Poly, canonical_digest, embed_poly, monomials_exact
from .rng import HashStream


@dataclass(frozen=True)
class MacaulayMatrix:
    """Numerator/denominator pair of the Macaulay construction.

    Rows and columns are indexed by the degree-D monomials, D being the
    critical degree sum(d_i - 1) + 1.  The row for monomial u uses the
    first index i with X_i^{d_i} | u and holds (u / X_i^{d_i}) * F_i.
    The denominator restricts to the monomials divisible by X_i^{d_i}
    for at least two i.
    """

    degrees: tuple
    critical_degree: int
    monomials: tuple
    numerator: tuple
    denominator: tuple


def macaulay_build(polys, degrees) -> MacaulayMatrix:
    degrees = tuple(int(d) for d in degrees)
    r = len(polys)
    if r == 0 or any(f.nvars != r for f in polys):
        raise ValueError("need r homogeneous forms in r variables")
    if len(degrees) != r or any(d < 1 for d in degrees):
        raise ValueError("need r positive degrees")
    field = polys[0].field
    for f, d in zip(polys, degrees):
        if not f.is_homogeneous():
            raise ValueError("forms must be homogeneous")
        if not f.is_zero() and f.degree() != d:
            raise ValueError("form degree disagrees with declared degree")
    crit = sum(d - 1 for d in degrees) + 1
    mons = monomials_exact(r, crit)
    col = {m: idx for idx, m in enumerate(mons)}
    zero = field.zero

    num_rows = []
    reduced_flags = []
    for u in mons:
        owners = [i for i in range(r) if u[i] >= degrees[i]]
        i = owners[0]  # pigeonhole: every degree-crit monomial has one
        reduced_flags.append(len(owners) == 1)
        shift = tuple(
            e - (degrees[i] if j == i else 0) for j, e in enumerate(u))
        row = [zero] * len(mons)
        for m, c in polys[i].terms.items():
            row[col[tuple(a + b for a, b in zip(m, shift))]] = c
        num_rows.append(tuple(row))

    keep = [idx for idx, flag in enumerate(reduced_flags) if not flag]
    den_rows = tuple(
        tuple(num_rows[i][j] for j in keep) for i in keep)
    return MacaulayMatrix(degrees, crit, tuple(mons), tuple(num_rows),
                          den_rows)


def determinant(rows, field: Field):
    """Exact determinant by Gaussian elimination over the field."""
    n = len(rows)
    if n == 0:
        return field.one
    mat = [list(r) for r in rows]
    det = field.one
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if mat[r][col] != field.zero), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = field.neg(det)
        pval = mat[col][col]
        det = field.mul(det, pval)
        pinv = field.inv(pval)
        for r in range(col + 1, n):
            factor = mat[r][col]
            if factor == field.zero:
                continue
            factor = field.mul(factor, pinv)
            row_r, row_c = mat[r], mat[col]
            for c in range(col, n):
                row_r[c] = field.sub(row_r[c], field.mul(factor, row_c[c]))
    return det


def matrix_rank(rows, field: Field) -> int:
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(mat)) if mat[r][col] != field.zero),
            None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pinv = field.inv(mat[rank][col])
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col]
            if factor == field.zero:
                continue
            factor = field.mul(factor, pinv)
            for c in range(col, ncols):
                mat[r][c] = field.sub(mat[r][c], field.mul(factor, mat[rank][c]))
        rank += 1
        if rank == len(mat):
            break
    return rank


def resultant_value(polys, degrees):
    """Res as det(numerator)/det(denominator), or None when degenerate.

    None means the denominator determinant vanished and the generic
    quotient formula does not apply at this specialization.
    """
    mm = macaulay_build(polys, degrees)
    field = polys[0].field
    den = determinant(mm.denominator, field)
    if den == field.zero:
        return None
    num = determinant(mm.numerator, field)
    return field.mul(num, field.inv(den))


def _linear_change(poly: Poly, matrix, field: Field) -> Poly:
    """Substitute x_j -> sum_m matrix[j][m] * x_m."""
    n = poly.nvars
    images = [Poly(field, n,
                   {tuple(1 if t == m else 0 for t in range(n)): matrix[j][m]
                    for m in range(n) if matrix[j][m] != field.zero},
                   _clean=True)
              for j in range(n)]
    powers = [{0: Poly.constant(field, n, field.one)} for _ in range(n)]

    def power(j, e):
        cache = powers[j]
        if e not in cache:
            cache[e] = power(j, e - 1) * images[j]
        return cache[e]

    total = Poly.zero(field, n)
    for m, c in poly.terms.items():
        term = Poly.constant(field, n, c)
        for j, e in enumerate(m):
            if e:
                term = term * power(j, e)
        total = total + term
    return total


def _random_invertible(field: Field, n: int, stream: HashStream):
    while True:
        mat = [[field.element_from_index(stream.randint(field.q))
                for _ in range(n)] for _ in range(n)]
        if determinant(mat, field) != field.zero:
            return mat


def resultant_vanishes(polys, degrees, seed: int = 0) -> bool:
    """True iff Res = 0, i.e. the projective zero set is nonempty.

    When the denominator determinant vanishes, a seeded invertible
    linear change of variables over a field of size >= 2**20 is applied
    and the quotient retried (the resultant picks up a nonzero det^d
    factor, so vanishing is preserved); the final fallback is the exact
    Groebner emptiness test.
    """
    mm = macaulay_build(polys, degrees)
    field = polys[0].field
    if determinant(mm.denominator, field) != field.zero:
        return determinant(mm.numerator, field) == field.zero

    big, embed = ensure_min_size(field, MIN_RANDOMIZED_FIELD)
    lifted = [embed_poly(f, big, embed) for f in polys]
    stream = HashStream("resultant", seed, canonical_digest(polys))
    r = len(polys)
    for _ in range(4):
        mat = _random_invertible(big, r, stream)
        transformed = [_linear_change(f, mat, big) for f in lifted]
        mm2 = macaulay_build(transformed, degrees)
        if determinant(mm2.denominator, big) != big.zero:
            return determinant(mm2.numerator, big) == big.zero
    return not is_empty(groebner(list(polys)), "projective")
