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

``fills_degree`` is the same rank test for any number of forms, at the
least degree D, at least each form's, where their multiples are at
least as many as the degree-D monomials.  When they span S_D, every
X_j^D lies in the ideal and the forms have no common projective zero.
Unlike the square case, a short rank there proves nothing.

``resultant_value`` is the classical quotient: det(numerator) =
Res * det(denominator) (``MacaulayMatrix``), normalized by
Res(X_1^{d_1}, ..., X_r^{d_r}) = 1, where the numerator is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
    col = _columns(r, crit)

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


@cache
def _columns(nvars, deg):
    """The column of each packed degree-deg monomial in nvars variables."""
    return {m: idx for idx, m in enumerate(_degree_block(nvars, deg))}


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


def _least_degree(nvars, degs):
    """(D, the number of multiples at D) for forms of degrees ``degs``:
    D is the least degree, at least each of ``degs``, with at least as
    many multiples v * g, deg v = D - deg g, as degree-D monomials.
    With n >= nvars forms it exists: n * C(D - e + nvars - 1, nvars - 1)
    over C(D + nvars - 1, nvars - 1) tends to n, e the largest degree.
    """
    deg = max(degs)
    while True:
        rows = sum(comb(deg - d + nvars - 1, nvars - 1) for d in degs)
        if rows >= comb(deg + nvars - 1, nvars - 1):
            return deg, rows
        deg += 1


def fills_degree(forms, field: Field) -> bool:
    """True when the multiples of the forms span S_D, D as above.

    Sound for emptiness: then every X_j^D lies in the ideal, so the
    forms share no projective zero over the closure.  False at once for
    fewer nonzero forms than variables: forms of positive degree then
    share one (Krull), and D need not exist.  The field must be prime.
    Rows are reduced one at a time; the test stops as soon as the rank
    is full or the rows left cannot make it full.
    """
    if field.q != field.p:
        raise ValueError("the rank test needs a prime field")
    forms = [f for f in forms if not f.is_zero()]
    if not forms or len(forms) < forms[0].nvars:
        return False
    nvars = forms[0].nvars
    if any(not f.is_homogeneous() for f in forms):
        raise ValueError("forms must be homogeneous")
    degs = [f.degree() for f in forms]
    deg, left = _least_degree(nvars, degs)
    col = _columns(nvars, deg)
    ncols = len(col)
    reduce = _reduce_bits if field.p == 2 else _reduce_mod(field.p, ncols)
    pivots = {}
    for f, d in zip(forms, degs):
        for v in _degree_block(nvars, deg - d):
            left -= 1
            reduce(f.packed, v, col, pivots)
            if len(pivots) == ncols:
                return True
            if len(pivots) + left < ncols:
                return False
    return False


def _reduce_bits(terms, shift, col, pivots):
    """Reduce the row of x^shift * (the form with packed ``terms``) over
    F_2 against ``pivots`` (leading bit -> bit mask of the columns
    ``col``) and keep what is left as a new pivot."""
    row = 0
    for m in terms:
        row |= 1 << col[m + shift]
    while row:
        lead = row.bit_length() - 1
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = row
            return
        row ^= piv


def _reduce_mod(p, ncols):
    """The reduction of ``_reduce_bits`` mod an odd prime p: a row is a
    list of ints, reduced mod p only where a column is read; a pivot is
    its leading column -> the (column, value) pairs of its tail, scaled
    to a leading 1."""
    def reduce(terms, shift, col, pivots):
        dense = [0] * ncols
        for m, c in terms.items():
            dense[col[m + shift]] = c
        for j in range(ncols):
            c = dense[j] % p
            if not c:
                continue
            piv = pivots.get(j)
            if piv is None:
                inv = pow(c, p - 2, p)
                pivots[j] = [(k, x * inv % p) for k in range(j + 1, ncols)
                             if (x := dense[k] % p)]
                return
            for k, x in piv:
                dense[k] -= c * x
    return reduce


def resultant_vanishes(polys, degrees) -> bool:
    """True iff Res = 0, i.e. the forms share a projective zero over the
    algebraic closure: Macaulay's rank test (see the module docstring)."""
    degrees, crit, cols, row = _setup(polys, degrees)
    rows = [row(i, v) for i, d in enumerate(degrees)
            for v in _degree_block(len(degrees), crit - d)]
    return matrix_rank(rows, polys[0].field) < len(cols)
