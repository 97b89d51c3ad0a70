"""Macaulay's rank test for homogeneous forms.

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

One eliminator serves both tests and ``matrix_rank``: rows are reduced
one at a time against the pivots found so far (``_reducer``, one kind
per field), and a spanning test stops as soon as the rank is full or
the rows left cannot make it full.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .fields import Field
from .polynomials import degree_block


def _setup(polys, degrees):
    """Validate a square system: (degrees, the critical degree D)."""
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
    return degrees, sum(d - 1 for d in degrees) + 1


@cache
def _columns(nvars, deg):
    """The column of each packed degree-deg monomial in nvars variables."""
    return {m: idx for idx, m in enumerate(degree_block(nvars, deg))}


def _multiples(nvars, degs, deg):
    """The number of multiples v * g, deg v = deg - deg g, of forms of
    degrees ``degs``."""
    return sum(comb(deg - d + nvars - 1, nvars - 1) for d in degs)


def _least_degree(nvars, degs):
    """(D, the number of multiples at D) for forms of degrees ``degs``:
    D is the least degree, at least each of ``degs``, with at least as
    many multiples v * g, deg v = D - deg g, as degree-D monomials.
    With n >= nvars forms it exists: n * C(D - e + nvars - 1, nvars - 1)
    over C(D + nvars - 1, nvars - 1) tends to n, e the largest degree.
    """
    deg = max(degs)
    while True:
        rows = _multiples(nvars, degs, deg)
        if rows >= comb(deg + nvars - 1, nvars - 1):
            return deg, rows
        deg += 1


def _spans(forms, degs, deg, rows, field: Field) -> bool:
    """True when the multiples v * f, deg v = deg - deg f, of the forms
    (of degrees ``degs``; ``rows`` of them in all) span S_deg.  Stops as
    soon as the rank is full or the rows left cannot make it full."""
    nvars = forms[0].nvars
    col = _columns(nvars, deg)
    ncols = len(col)
    reduce = _reducer(field, ncols)
    pivots = {}
    for f, d in zip(forms, degs):
        for v in degree_block(nvars, deg - d):
            rows -= 1
            reduce(f.packed, v, col, pivots)
            if len(pivots) == ncols:
                return True
            if len(pivots) + rows < ncols:
                return False
    return False


def fills_degree(forms, field: Field) -> bool:
    """True when the multiples of the forms span S_D, D as above.

    Sound for emptiness: then every X_j^D lies in the ideal, so the
    forms share no projective zero over the closure.  False at once for
    fewer nonzero forms than variables: forms of positive degree then
    share one (Krull), and D need not exist.
    """
    forms = [f for f in forms if not f.is_zero()]
    if not forms or len(forms) < forms[0].nvars:
        return False
    if any(not f.is_homogeneous() for f in forms):
        raise ValueError("forms must be homogeneous")
    degs = [f.degree() for f in forms]
    deg, rows = _least_degree(forms[0].nvars, degs)
    return _spans(forms, degs, deg, rows, field)


def resultant_vanishes(polys, degrees) -> bool:
    """True iff Res = 0, i.e. the forms share a projective zero over the
    algebraic closure: Macaulay's rank test (see the module docstring)."""
    degrees, crit = _setup(polys, degrees)
    rows = _multiples(len(degrees), degrees, crit)
    return not _spans(polys, degrees, crit, rows, polys[0].field)


def matrix_rank(rows, field: Field) -> int:
    """The rank of a matrix given as a list of rows of field elements."""
    ncols = len(rows[0]) if rows else 0
    reduce = _reducer(field, ncols)
    pivots = {}
    for row in rows:
        reduce({j: v for j, v in enumerate(row) if v != field.zero}, 0,
               range(ncols), pivots)
        if len(pivots) == ncols:
            break
    return len(pivots)


def _reducer(field: Field, ncols):
    """``reduce(terms, shift, col, pivots)``: reduce the row of x^shift *
    (the form with packed ``terms``) over ``field``, its entries in the
    columns ``col`` of ``ncols``, against ``pivots`` (leading column ->
    pivot row) and keep what is left as a new pivot.  F_2 rows are bit
    masks under XOR; other prime fields' rows are ints reduced mod p
    only where a column is read; any other field goes through its own
    ``mul``, ``sub`` and ``inv`` (F_4's elements are ints, but its
    product is not XOR)."""
    if field.q == 2:
        return _reduce_bits
    if field.q == field.p:
        return _reduce_mod(field.p, ncols)
    return _reduce_field(field, ncols)


def _reduce_bits(terms, shift, col, pivots):
    """The reduction over F_2: a row is the bit mask of its columns, a
    pivot is keyed by its leading bit."""
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
    """The reduction mod a prime p: a row is a list of ints, reduced mod
    p only where a column is read; a pivot is its leading column -> the
    (column, value) pairs of its tail, scaled to a leading 1."""
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


def _reduce_field(field: Field, ncols):
    """The reduction of ``_reduce_mod`` in the field's own arithmetic."""
    zero, mul, sub = field.zero, field.mul, field.sub

    def reduce(terms, shift, col, pivots):
        dense = [zero] * ncols
        for m, c in terms.items():
            dense[col[m + shift]] = c
        for j in range(ncols):
            c = dense[j]
            if c == zero:
                continue
            piv = pivots.get(j)
            if piv is None:
                inv = field.inv(c)
                pivots[j] = [(k, mul(x, inv)) for k in range(j + 1, ncols)
                             if (x := dense[k]) != zero]
                return
            for k, x in piv:
                dense[k] = sub(dense[k], mul(c, x))
    return reduce
