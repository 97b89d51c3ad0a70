"""Macaulay resultants for square homogeneous systems.

Let F_1..F_r be forms in r variables of degrees d_1..d_r, D =
sum(d_i - 1) + 1 the critical degree, S_D the degree-D forms and
I_D = sum S_{D - d_i} F_i.  ``resultant_vanishes`` is Macaulay's rank
test, exact and seedless: the F_i share a projective zero over the
algebraic closure iff the multiples v * F_i, deg v = D - d_i, have rank
below dim S_D = C(D + r - 1, r - 1).

* No common zero: the F_i form a regular sequence, so S/I has Hilbert
  series prod(1 + t + ... + t^(d_i - 1)), of degree D - 1: I_D = S_D.
* I_D = S_D: every X_j^D lies in I, so a common zero has no nonzero
  coordinate, and there is none.
* A rank does not change under field extension, so the rank over F_q
  answers for the closure.

``resultant_value`` is the classical quotient: det(numerator) =
Res * det(denominator) (``MacaulayMatrix``), normalized by
Res(X_1^{d_1}, ..., X_r^{d_r}) = 1, where the numerator is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .fields import Field
from .polynomials import _packing, packed_monomials


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


def _setup(polys, degrees):
    """Validate a square system: (degrees, D, the packed degree-D
    monomials, and the builder of the multiples' rows over them)."""
    degrees = tuple(int(d) for d in degrees)
    r = len(polys)
    if r == 0 or any(f.nvars != r for f in polys):
        raise ValueError("need r homogeneous forms in r variables")
    if len(degrees) != r or any(d < 1 for d in degrees):
        raise ValueError("need r positive degrees")
    for f, d in zip(polys, degrees):
        if not f.is_homogeneous():
            raise ValueError("forms must be homogeneous")
        if not f.is_zero() and f.degree() != d:
            raise ValueError("form degree disagrees with declared degree")
    crit = sum(d - 1 for d in degrees) + 1
    cols = _degree_block(r, crit)
    col = {m: idx for idx, m in enumerate(cols)}

    def row(i, shift):
        """The row of x^shift * F_i, shift a packed monomial."""
        out = [polys[i].field.zero] * len(cols)
        for m, c in polys[i].packed.items():
            out[col[m + shift]] = c
        return tuple(out)

    return degrees, crit, cols, row


def _degree_block(r, deg):
    """The packed degree-deg monomials in r variables, descending."""
    return packed_monomials(r, deg)[:comb(deg + r - 1, r - 1)]


def macaulay_build(polys, degrees) -> MacaulayMatrix:
    degrees, crit, cols, row = _setup(polys, degrees)
    r = len(degrees)
    pk = _packing(r)
    powers = [pk.pack(tuple(d if j == i else 0 for j in range(r)))
              for i, d in enumerate(degrees)]   # X_i^{d_i}
    mons = tuple(map(pk.unpack, cols))
    num_rows, keep = [], []
    for idx, u in enumerate(mons):
        owners = [i for i, d in enumerate(degrees) if u[i] >= d]
        i = owners[0]  # pigeonhole: every degree-crit monomial has one
        if len(owners) > 1:
            keep.append(idx)
        num_rows.append(row(i, cols[idx] - powers[i]))
    den_rows = tuple(tuple(num_rows[i][j] for j in keep) for i in keep)
    return MacaulayMatrix(degrees, crit, mons, tuple(num_rows), den_rows)


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


def determinant(rows, field: Field):
    """Exact determinant: the signed product of the elimination pivots."""
    pivots, odd = _forward_eliminate(rows, field)
    if len(pivots) < len(rows):
        return field.zero
    det = field.neg(field.one) if odd else field.one
    for pval in pivots:
        det = field.mul(det, pval)
    return det


def matrix_rank(rows, field: Field) -> int:
    return len(_forward_eliminate(rows, field)[0])


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


def resultant_vanishes(polys, degrees) -> bool:
    """True iff Res = 0, i.e. the forms share a projective zero over the
    algebraic closure: Macaulay's rank test (see the module docstring)."""
    degrees, crit, cols, row = _setup(polys, degrees)
    rows = [row(i, v) for i, d in enumerate(degrees)
            for v in _degree_block(len(degrees), crit - d)]
    return matrix_rank(rows, polys[0].field) < len(cols)
