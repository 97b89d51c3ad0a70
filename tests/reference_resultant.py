"""Macaulay's determinant quotient and dense elimination, kept as test
oracles.

``classify``, ``sample``, ``census`` and ``bounds`` never compute a
resultant's value: the package decides vanishing with the rank test
(``defectus.resultant``).  The quotient here checks that test with a
different method, and dense elimination (``_forward_eliminate``) checks
the rank test's incremental reducer.

``resultant_value`` is the classical quotient: det(numerator) =
Res * det(denominator) (``MacaulayMatrix``), normalized by
Res(X_1^{d_1}, ..., X_r^{d_r}) = 1, where the numerator is the identity.
"""

from dataclasses import dataclass

from defectus.fields import Field
from defectus.polynomials import monomials_exact
from defectus.resultant import _setup


@dataclass(frozen=True)
class MacaulayMatrix:
    """The Macaulay quotient: rows and columns are indexed by the
    degree-D monomials; the row of u is (u / X_i^{d_i}) * F_i for the
    first i with X_i^{d_i} | u, one of the rank test's multiples; the
    denominator keeps the u divisible by two or more X_i^{d_i}."""

    degrees: tuple
    critical_degree: int
    monomials: tuple
    numerator: tuple
    denominator: tuple


def _row(poly, shift, col):
    """The row of x^shift * poly over the monomials ``col``."""
    row = [poly.field.zero] * len(col)
    for m, c in poly.terms.items():
        row[col[tuple(a + b for a, b in zip(m, shift))]] = c
    return tuple(row)


def macaulay_build(polys, degrees) -> MacaulayMatrix:
    degrees, crit = _setup(polys, degrees)
    mons = tuple(monomials_exact(len(degrees), crit))
    col = {m: idx for idx, m in enumerate(mons)}
    num_rows, keep = [], []
    for idx, u in enumerate(mons):
        owners = [i for i, d in enumerate(degrees) if u[i] >= d]
        i = owners[0]  # pigeonhole: every degree-crit monomial has one
        if len(owners) > 1:
            keep.append(idx)
        shift = tuple(e - degrees[i] * (j == i) for j, e in enumerate(u))
        num_rows.append(_row(polys[i], shift, col))
    den_rows = tuple(tuple(num_rows[i][j] for j in keep) for i in keep)
    return MacaulayMatrix(degrees, crit, mons, tuple(num_rows), den_rows)


def dense_vanishes(polys, degrees) -> bool:
    """Macaulay's rank test by dense elimination of every multiple
    v * F_i, deg v = D - d_i."""
    degrees, crit = _setup(polys, degrees)
    r = len(degrees)
    col = {m: idx for idx, m in enumerate(monomials_exact(r, crit))}
    rows = [_row(f, v, col) for f, d in zip(polys, degrees)
            for v in monomials_exact(r, crit - d)]
    return dense_rank(rows, polys[0].field) < len(col)


def _forward_eliminate(rows, field: Field):
    """Gaussian elimination to row echelon form over the field: the
    pivot values in order (their count is the rank) and whether an odd
    number of row swaps was made."""
    mat = [list(r) for r in rows]
    zero, mul, sub = field.zero, field.mul, field.sub
    nrows = len(mat)
    pivots, odd = [], False
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = next(
            (r for r in range(rank, nrows) if mat[r][col] != zero), None)
        if pivot is None:
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            odd = not odd
        row_p = mat[rank]
        pinv = field.inv(row_p[col])
        # sparse rows: only the pivot row's nonzeros (all at col or later)
        support = [(c, v) for c, v in enumerate(row_p) if v != zero]
        for r in range(rank + 1, nrows):
            factor = mat[r][col]
            if factor == zero:
                continue
            factor = mul(factor, pinv)
            row_r = mat[r]
            for c, v in support:
                row_r[c] = sub(row_r[c], mul(factor, v))
        pivots.append(row_p[col])
    return pivots, odd


def dense_rank(rows, field: Field) -> int:
    return len(_forward_eliminate(rows, field)[0])


def determinant(rows, field: Field):
    """Exact determinant: the signed product of the elimination pivots."""
    pivots, odd = _forward_eliminate(rows, field)
    if len(pivots) < len(rows):
        return field.zero
    det = field.neg(field.one) if odd else field.one
    for pval in pivots:
        det = field.mul(det, pval)
    return det


def resultant_value(polys, degrees):
    """Res as det(numerator)/det(denominator); None when the
    denominator vanishes, where the quotient formula does not apply
    (``resultant_vanishes`` still decides such a system)."""
    mm = macaulay_build(polys, degrees)
    field = polys[0].field
    den = determinant(mm.denominator, field)
    if den == field.zero:
        return None
    num = determinant(mm.numerator, field)
    return field.mul(num, field.inv(den))
