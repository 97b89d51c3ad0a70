"""Reduced Groebner bases and exact ideal decisions.

Buchberger with the normal selection strategy and both classical pair
criteria.  Each S-pair is ranked once, when it is formed, by the order
key of its lcm and then by its indices, and waits in a heap; ranks are
distinct, so the pop order is the order of a full scan for the
smallest rank.  Normal forms take their leading monomials from a heap
of inverted order keys.  The public order is grevlex with the last
variable cheapest (that is where homogenization puts X_0); a block
order eliminating an auxiliary last variable is used internally for
colon ideals.

Dimension is the combinatorial one: the size of a maximum subset of
variables independent modulo the leading-term ideal.  It equals the
dimension of the zero set over the algebraic closure, which is why a
basis computed over F_q decides geometric questions.  Conventions:
the unit ideal has dimension -1 (empty variety), the zero ideal in n
variables has dimension n.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Callable, Sequence

from .fields import Field
from .polynomials import (
    Poly, grevlex_key, mono_div, mono_divides, mono_lcm, mono_mul,
)


class MonomialOrder:
    """A term order given by two sort keys.

    ``key(a) < key(b)`` iff a is smaller than b; ``inverted`` sorts the
    other way round, which turns heapq's min-heap into a max-heap.
    """

    __slots__ = ("kind", "key", "inverted")

    def __init__(self, kind: str, key: Callable, inverted: Callable):
        self.kind = kind
        self.key = key
        self.inverted = inverted

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"MonomialOrder({self.kind})"


GREVLEX = MonomialOrder(
    "grevlex", grevlex_key, lambda e: (-sum(e), e[::-1]))

# t (the last variable) dominates, grevlex on the rest: eliminates t.
ELIM_LAST = MonomialOrder(
    "elim_last", lambda e: (e[-1], grevlex_key(e[:-1])),
    lambda e: (-e[-1], -sum(e[:-1])) + e[-2::-1])


class GroebnerBasis:
    """Reduced basis: monic, pairwise irreducible, canonically sorted."""

    __slots__ = ("field", "nvars", "order", "gens")

    def __init__(self, field: Field, nvars: int, order: MonomialOrder,
                 gens: tuple):
        self.field = field
        self.nvars = nvars
        self.order = order
        self.gens = gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].degree() == 0

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.order == other.order
                and self.nvars == other.nvars
                and self.field == other.field
                and list(self.gens) == list(other.gens))

    def __repr__(self):
        return f"GroebnerBasis({len(self.gens)} gens, {self.order.kind})"


# -- raw-dict engine -----------------------------------------------------
# A basis record is (terms_dict, leading_monomial, leading_coefficient).

def _record(terms, key):
    lm = max(terms, key=key)
    return (terms, lm, terms[lm])


def _normal_form(terms, records, field, order):
    """Full remainder of ``terms`` modulo the records (deterministic).

    ``work`` holds the coefficients; the heap holds each monomial pushed
    when it entered ``work``, and a popped monomial no longer there was
    cancelled.  Reduction adds only monomials below the one it removes,
    so the heap yields the leading monomial of ``work`` every time.
    """
    inverted = order.inverted
    zero = field.zero
    rem = {}
    work = dict(terms)
    heap = [(inverted(m), m) for m in work]
    heapify(heap)
    while heap:
        lm = heappop(heap)[1]
        c = work.pop(lm, None)
        if c is None:
            continue
        hit = None
        for rec in records:
            if mono_divides(rec[1], lm):
                hit = rec
                break
        if hit is None:
            rem[lm] = c
            continue
        gterms, glm, glc = hit
        factor = field.mul(c, field.inv(glc))
        shift = mono_div(lm, glm)
        for gm, gc in gterms.items():
            if gm == glm:
                continue
            m2 = mono_mul(gm, shift)
            old = work.get(m2)
            v = field.sub(zero if old is None else old, field.mul(factor, gc))
            if v == zero:
                work.pop(m2, None)
            else:
                if old is None:
                    heappush(heap, (inverted(m2), m2))
                work[m2] = v
    return rem


def _s_poly(rec_i, rec_j, field):
    zero = field.zero
    ti, lmi, lci = rec_i
    tj, lmj, lcj = rec_j
    lcm = mono_lcm(lmi, lmj)
    si, sj = mono_div(lcm, lmi), mono_div(lcm, lmj)
    ci, cj = field.inv(lci), field.inv(lcj)
    out = {}
    for m, c in ti.items():
        out[mono_mul(m, si)] = field.mul(ci, c)
    for m, c in tj.items():
        m2 = mono_mul(m, sj)
        v = field.sub(out.get(m2, zero), field.mul(cj, c))
        if v == zero:
            out.pop(m2, None)
        else:
            out[m2] = v
    return out


def _buchberger(seed_terms, field, order):
    key = order.key
    basis = []
    queue = []       # (key of the lcm, i, j, lcm), smallest rank first
    pending = set()  # the (i, j) in queue, for the chain criterion

    def add_record(terms):
        rec = _record(terms, key)
        new = len(basis)
        for t in range(new):
            lcm = mono_lcm(basis[t][1], rec[1])
            heappush(queue, (key(lcm), t, new, lcm))
            pending.add((t, new))
        basis.append(rec)

    for terms in seed_terms:
        if terms:
            add_record(terms)
    while queue:
        _, i, j, lcm = heappop(queue)
        pending.discard((i, j))
        lmi, lmj = basis[i][1], basis[j][1]
        if lcm == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-poly reduces to 0
        skip = False
        for t in range(len(basis)):
            if t in (i, j) or not mono_divides(basis[t][1], lcm):
                continue
            if ((min(i, t), max(i, t)) not in pending
                    and (min(j, t), max(j, t)) not in pending):
                skip = True  # chain criterion
                break
        if skip:
            continue
        rem = _normal_form(_s_poly(basis[i], basis[j], field), basis, field,
                           order)
        if rem:
            add_record(rem)
    return basis


def _reduce_basis(basis, field, order):
    """Unique reduced form: minimal, inter-reduced, monic, sorted."""
    key = order.key
    recs = sorted(basis, key=lambda r: key(r[1]))
    kept = []
    for rec in recs:
        if not any(mono_divides(k[1], rec[1]) for k in kept):
            kept.append(rec)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1:]
            rem = _normal_form(kept[idx][0], others, field, order)
            if rem != kept[idx][0]:
                kept[idx] = _record(rem, key)
                changed = True
    out = []
    for terms, lm, lc in kept:
        inv = field.inv(lc)
        out.append(({m: field.mul(inv, c) for m, c in terms.items()}, lm))
    out.sort(key=lambda t: key(t[1]), reverse=True)
    return [t for t, _ in out]


# -- public operations ---------------------------------------------------

def groebner(gens: Sequence[Poly], order: MonomialOrder = GREVLEX,
             field: Field = None, nvars: int = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic: the same generator list always produces the same
    basis object, and the reduced basis itself is unique for the ideal
    and order.  Zero generators are ignored; an empty ideal needs
    explicit ``field``/``nvars``.
    """
    gens = list(gens)
    if gens:
        field = gens[0].field
        nvars = gens[0].nvars
        for g in gens[1:]:
            if g.field != field or g.nvars != nvars:
                raise ValueError("generators live in different rings")
    elif field is None or nvars is None:
        raise ValueError("empty generator list needs field and nvars")
    seed = [dict(g.terms) for g in gens if not g.is_zero()]
    basis = _buchberger(seed, field, order)
    reduced = _reduce_basis(basis, field, order)
    polys = tuple(Poly(field, nvars, t, _clean=True) for t in reduced)
    return GroebnerBasis(field, nvars, order, polys)


def normal_form(f: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of multivariate division; zero iff f lies in the ideal."""
    if f.nvars != gb.nvars or f.field != gb.field:
        raise ValueError("polynomial not in the basis ring")
    records = [_record(dict(g.terms), gb.order.key) for g in gb.gens]
    rem = _normal_form(dict(f.terms), records, gb.field, gb.order)
    return Poly(gb.field, gb.nvars, rem, _clean=True)


def _exact_divide(num_terms, div_terms, field, key):
    """Quotient of an exact multivariate division (raises if inexact)."""
    dlm = max(div_terms, key=key)
    dinv = field.inv(div_terms[dlm])
    zero = field.zero
    work = dict(num_terms)
    quot = {}
    while work:
        lm = max(work, key=key)
        c = work.pop(lm)
        if not mono_divides(dlm, lm):
            raise ArithmeticError("inexact division")
        shift = mono_div(lm, dlm)
        qc = field.mul(c, dinv)
        quot[shift] = qc
        for dm, dc in div_terms.items():
            if dm == dlm:
                continue
            m2 = mono_mul(dm, shift)
            v = field.sub(work.get(m2, zero), field.mul(qc, dc))
            if v == zero:
                work.pop(m2, None)
            else:
                work[m2] = v
    return quot


def colon_ideal(gb: GroebnerBasis, f: Poly) -> GroebnerBasis:
    """Basis of (I : f) = {g : g*f in I}, for nonzero f.

    Via the elimination construction: intersect I with (f) using an
    auxiliary top variable, then divide the intersection by f.  The
    nonzerodivisor test downstream is (I : f) == I.
    """
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    if f.nvars != gb.nvars or f.field != gb.field:
        raise ValueError("polynomial not in the basis ring")
    field = gb.field
    n = gb.nvars
    # t*I and (1 - t)*f inside K[x_1..x_n, t]
    ext_gens = []
    for g in gb.gens:
        ext_gens.append({m + (1,): c for m, c in g.terms.items()})
    mixed = {m + (0,): c for m, c in f.terms.items()}
    for m, c in f.terms.items():
        mt = m + (1,)
        v = field.sub(mixed.get(mt, field.zero), c)
        if v == field.zero:
            mixed.pop(mt, None)
        else:
            mixed[mt] = v
    ext_gens.append(mixed)
    basis = _reduce_basis(
        _buchberger([t for t in ext_gens if t], field, ELIM_LAST),
        field, ELIM_LAST)
    # under the block order, a t-free leading monomial forces the whole
    # element t-free, so these form a grevlex basis of I intersect (f)
    inter = []
    for terms in basis:
        lm = max(terms, key=ELIM_LAST.key)
        if lm[-1] == 0:
            inter.append({m[:-1]: c for m, c in terms.items()})
    quotients = [
        Poly(field, n,
             _exact_divide(t, dict(f.terms), field, grevlex_key),
             _clean=True)
        for t in inter
    ]
    return groebner(quotients, GREVLEX, field=field, nvars=n)


def ideal_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the zero set over the algebraic closure.

    -1 for the unit ideal.  Computed as the largest variable subset S
    such that no leading monomial is supported inside S.
    """
    if gb.is_unit:
        return -1
    n = gb.nvars
    supports = [frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
                for g in gb.gens]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            sset = frozenset(subset)
            if all(not supp <= sset for supp in supports):
                return size
    raise AssertionError("unreachable: empty set is always independent")


def _require_homogeneous(gb: GroebnerBasis):
    if any(not g.is_homogeneous() for g in gb.gens):
        raise ValueError("projective question on non-homogeneous basis")


def is_empty(gb: GroebnerBasis, mode: str) -> bool:
    """Emptiness over the closure; 'affine' or 'projective' mode."""
    if mode == "affine":
        return gb.is_unit
    if mode == "projective":
        _require_homogeneous(gb)
        return ideal_dimension(gb) <= 0
    raise ValueError(f"unknown mode {mode!r}")


def projective_dimension(gb: GroebnerBasis) -> int:
    """Dimension of the projective zero set; -1 when empty.

    Convention: cone dimension minus one, with cones of dimension <= 0
    (the irrelevant cases) mapping to -1.
    """
    _require_homogeneous(gb)
    cone = ideal_dimension(gb)
    return cone - 1 if cone >= 1 else -1
