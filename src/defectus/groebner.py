"""Reduced Groebner bases and exact ideal decisions, under grevlex.

Buchberger with the normal selection strategy and both classical pair
criteria.  Each S-pair is ranked once, when it is formed, by the order
key of its lcm and then by its indices, and waits in a heap; ranks are
distinct, so the pop order is the order of a full scan for the
smallest rank.  Normal forms take their leading monomials from a heap
keyed by the negated order key.  The engine functions take one
argument for the ring, the packing, and read the order off it as
``pk.key``.  The one public order is grevlex with the last variable
cheapest (that is where homogenization puts X_0): ``groebner``,
``normal_form``, ``ideal_dimension`` and the floored dimension all run
on ``polynomials._packing``.  The one other packing,
``polynomials._elimination_packing``, is colon_ideal's private block
order, which eliminates an auxiliary last variable.

Records are monic (Cox, Little & O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 2).  A term map joins a basis as ``(terms, lm)``,
scaled by one inverse unless its leading coefficient is already one.
The S-polynomial of two records is then the difference of the shifted
records, a reduction step multiplies by the coefficient it cancels,
and inter-reduction keeps every leading coefficient one, so none of
them inverts anything and the reduced basis needs no monic pass.
The records are the one form of a basis: ``GroebnerBasis.records`` is
the list ``_reduce_basis`` returns, and ``is_unit``, ``normal_form``,
the dimensions and ``colon_ideal`` read it as it stands; ``gens`` is a
view that wraps each record's term map as a Poly.

The engine works on the packed term maps ``Poly.packed`` directly
(Monagan & Pearce, CASC 2007; the layout, the order key each packing
carries and the 2**15 limit live in ``polynomials``): a product is an
int add, a quotient an int subtract, divisibility one guard-bit test.
Any product or lcm the engine forms that reaches the packing limit
raises ValueError instead of wrapping.  The only re-encoding is colon_ideal's
embedding into one more variable for the block order.

Dimension is the combinatorial one: the size of a maximum subset of
variables independent modulo the leading-term ideal.  It equals the
dimension of the zero set over the algebraic closure, which is why a
basis computed over F_q decides geometric questions.  Conventions:
the unit ideal has dimension -1 (empty variety), the zero ideal in n
variables has dimension n.

Answer-driven stop.  ``_buchberger`` takes one optional callback,
``stop(var)``, called right after a record whose leading monomial is 1
(var -1) or a pure power of x_var joins the basis; when it returns
true the engine returns the partial basis as it stands.  Without a
callback the engine runs exactly as before.  The stop is sound because
every record lies in I: LT(partial) is inside LT(I), so the dimension
read off the partial leading monomials bounds dim I = dim LT(I) from
above (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
ch. 9 sec. 3).  A unit record puts 1 in I, which forces the reduced
basis {1} and the dimension -1.  A pure power of x_i keeps x_i out of
every independent subset, so with pure powers of k distinct variables
dim I <= n - k.  ``_floored_leads(gens, floor, ...)`` stops on a unit
record, or once n - k <= ``floor``, and returns the leading monomials;
the dimension read off them (``_dimension_floor``) is exact when it
exceeds ``floor`` and <= ``floor`` otherwise (dim <= 0 iff every
variable has a pure power).  A run that never stops returns the leading
monomials of an unreduced basis, which already generate LT(I), so the
basis is never reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

from .fields import Field
from .polynomials import (
    Poly, _elimination_packing, _overflow, _packing,
)


@dataclass(frozen=True, slots=True)
class GroebnerBasis:
    """Reduced grevlex basis (monic, inter-reduced, largest lead first),
    held as the records ``_reduce_basis`` returns."""

    field: Field
    nvars: int
    records: list

    @property
    def gens(self) -> tuple:
        return tuple(Poly.from_packed(self.field, self.nvars, terms)
                     for terms, _ in self.records)

    @property
    def is_unit(self) -> bool:
        return len(self.records) == 1 and self.records[0][1] == 0  # lead 1


# -- packed engine -------------------------------------------------------
# A basis record is (terms_dict, leading_monomial), monic, every monomial
# packed.  ``pk`` is the packing of the ring and carries the order as
# ``pk.key``: grevlex, or the block order of ``_elimination_packing``
# inside colon_ideal.

def _record(terms, field, pk):
    """The monic record of a nonzero term map; ``terms`` is not mutated."""
    lm = max(terms, key=pk.key)
    lc = terms[lm]
    if lc != field.one:
        inv, mul = field.inv(lc), field.mul
        terms = {m: mul(inv, c) for m, c in terms.items()}
    return terms, lm


# _normal_form, _s_poly and _exact_divide keep their own loops: through
# polynomials._mul_acc the fiber run and classify at q=4 measured slower
def _normal_form(terms, records, field, pk):
    """Full remainder of ``terms`` modulo the records (deterministic).

    ``work`` holds the coefficients; the heap holds each monomial pushed
    when it entered ``work``, and a popped monomial no longer there was
    cancelled.  Reduction adds only monomials below the one it removes,
    so the heap yields the leading monomial of ``work`` every time.
    """
    guard, key = pk.guard, pk.key
    zero = field.zero
    rem = {}
    work = dict(terms)
    heap = [(-key(m), m) for m in work]
    heapify(heap)
    while heap:
        lm = heappop(heap)[1]
        c = work.pop(lm, None)
        if c is None:
            continue
        probe = lm + guard
        hit = None
        for rec in records:
            if (probe - rec[1]) & guard == guard:
                hit = rec
                break
        if hit is None:
            rem[lm] = c
            continue
        gterms, glm = hit
        shift = lm - glm
        for gm, gc in gterms.items():
            if gm == glm:
                continue
            m2 = gm + shift
            if m2 & guard:
                _overflow()
            old = work.get(m2)
            v = field.sub(zero if old is None else old, field.mul(c, gc))
            if v == zero:
                work.pop(m2, None)
            else:
                if old is None:
                    heappush(heap, (-key(m2), m2))
                work[m2] = v
    return rem


def _s_poly(rec_i, rec_j, lcm, field, guard):
    zero = field.zero
    ti, lmi = rec_i
    tj, lmj = rec_j
    si, sj = lcm - lmi, lcm - lmj
    out = {}
    for m, c in ti.items():
        m2 = m + si
        if m2 & guard:
            _overflow()
        out[m2] = c
    for m, c in tj.items():
        m2 = m + sj
        if m2 & guard:
            _overflow()
        v = field.sub(out.get(m2, zero), c)
        if v == zero:
            out.pop(m2, None)
        else:
            out[m2] = v
    return out


def _buchberger(seed_terms, field, pk, stop=None):
    """Unreduced basis of the seeds' ideal, as a list of monic records.

    ``stop(var)`` is called right after a record whose leading
    monomial is 1 (var -1) or a pure power of x_var joins the basis;
    when it returns true, the partial basis is returned as it stands.
    """
    guard, key, lcm_of, power_var = pk.guard, pk.key, pk.lcm, pk.power_var
    basis = []
    queue = []       # (key of the lcm, i, j, lcm), smallest rank first
    pending = set()  # the (i, j) in queue, for the chain criterion

    def add_record(terms):
        rec = _record(terms, field, pk)
        new = len(basis)
        for t in range(new):
            lcm = lcm_of(basis[t][1], rec[1])
            heappush(queue, (key(lcm), t, new, lcm))
            pending.add((t, new))
        basis.append(rec)
        if stop is None:
            return False
        var = power_var(rec[1])
        return var is not None and stop(var)

    for terms in seed_terms:
        if terms and add_record(terms):
            return basis
    while queue:
        _, i, j, lcm = heappop(queue)
        pending.discard((i, j))
        if lcm == basis[i][1] + basis[j][1]:
            continue  # coprime leading monomials: S-poly reduces to 0
        probe = lcm + guard
        skip = False
        for t in range(len(basis)):
            if t in (i, j) or (probe - basis[t][1]) & guard != guard:
                continue
            if ((min(i, t), max(i, t)) not in pending
                    and (min(j, t), max(j, t)) not in pending):
                skip = True  # chain criterion
                break
        if skip:
            continue
        rem = _normal_form(_s_poly(basis[i], basis[j], lcm, field, guard),
                           basis, field, pk)
        if rem and add_record(rem):
            return basis
    return basis


def _reduce_basis(basis, field, pk):
    """Unique reduced form: minimal, inter-reduced, largest lead first.

    The records are monic, and inter-reduction keeps each leading term,
    so the result is monic as well.
    """
    guard, key = pk.guard, pk.key
    kept = []
    for rec in sorted(basis, key=lambda r: key(r[1])):
        probe = rec[1] + guard
        if not any((probe - k[1]) & guard == guard for k in kept):
            kept.append(rec)
    # one pass: leading monomials never change here, so a tail reduced
    # against them stays reduced
    for idx, (terms, lm) in enumerate(kept):
        rem = _normal_form(terms, kept[:idx] + kept[idx + 1:], field, pk)
        if rem != terms:
            kept[idx] = (rem, lm)
    kept.reverse()
    return kept


# -- public operations ---------------------------------------------------

def groebner(gens: Sequence[Poly], field: Field = None,
             nvars: int = None) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal the generators span.

    Deterministic: the same generator list always produces the same
    basis object, and the reduced basis itself is unique for the
    ideal.  Zero generators are ignored; an empty ideal needs
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
    pk = _packing(nvars)
    basis = _buchberger([g.packed for g in gens if g.packed], field, pk)
    return GroebnerBasis(field, nvars, _reduce_basis(basis, field, pk))


def normal_form(f: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of multivariate division; zero iff f lies in the ideal."""
    if f.nvars != gb.nvars or f.field != gb.field:
        raise ValueError("polynomial not in the basis ring")
    rem = _normal_form(f.packed, gb.records, gb.field, _packing(gb.nvars))
    return Poly.from_packed(gb.field, gb.nvars, rem)


def _exact_divide(num, div, field, pk):
    """Quotient of an exact division of packed term maps by a monic one.

    None if the division is inexact.  The smallest monomial of a
    product is the product of the smallest ones, so a divisor whose
    smallest monomial does not divide the numerator's is rejected
    before any arithmetic.
    """
    guard, key = pk.guard, pk.key
    if num and (min(num, key=key) + guard
                - min(div, key=key)) & guard != guard:
        return None
    dlm = max(div, key=key)
    zero = field.zero
    work = dict(num)
    quot = {}
    while work:
        lm = max(work, key=key)
        c = work.pop(lm)
        if (lm + guard - dlm) & guard != guard:
            return None
        shift = lm - dlm
        quot[shift] = c
        for dm, dc in div.items():
            if dm == dlm:
                continue
            m2 = dm + shift
            if m2 & guard:
                _overflow()
            v = field.sub(work.get(m2, zero), field.mul(c, dc))
            if v == zero:
                work.pop(m2, None)
            else:
                work[m2] = v
    return quot


def colon_ideal(gb: GroebnerBasis, f: Poly) -> GroebnerBasis:
    """Basis of (I : f) = {g : g*f in I}, for nonzero f.

    Via the elimination construction: intersect I with (f) using an
    auxiliary top variable, then divide the intersection by f made
    monic, which scales each quotient and leaves the reduced basis as
    it is.  The nonzerodivisor test downstream is (I : f) == I.
    """
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    if f.nvars != gb.nvars or f.field != gb.field:
        raise ValueError("polynomial not in the basis ring")
    field = gb.field
    n = gb.nvars
    # t*I and (1 - t)*f inside K[x_1..x_n, t]: the one re-encoding,
    # each monomial times t^0 or t^1 in n + 1 variables
    append = _packing(n).append
    ext_gens = [{append(m, 1): c for m, c in terms.items()}
                for terms, _ in gb.records]
    mixed = {append(m, 0): c for m, c in f.packed.items()}
    mixed.update({append(m, 1): field.neg(c) for m, c in f.packed.items()})
    ext_gens.append(mixed)
    epk = _elimination_packing(n + 1)
    basis = _reduce_basis(
        _buchberger([t for t in ext_gens if t], field, epk), field, epk)
    # under the block order, a t-free leading monomial forces the whole
    # element t-free, so these form a grevlex basis of I intersect (f)
    pk = _packing(n)
    divisor = _record(f.packed, field, pk)[0]
    split_last = epk.split_last
    quotients = []
    for terms, lm in basis:
        if split_last(lm)[1] == 0:
            inter = {split_last(m)[0]: c for m, c in terms.items()}
            quot = _exact_divide(inter, divisor, field, pk)
            if quot is None:
                raise ArithmeticError("colon ideal: inexact division")
            quotients.append(Poly.from_packed(field, n, quot))
    return groebner(quotients, field=field, nvars=n)


def _independent_dim(supports, n: int) -> int:
    """Size of a largest subset of the n variables containing no support.

    ``supports`` are the variable bit masks of the leading monomials; an
    empty support (the monomial 1) excludes even the empty set: -1.
    A subset contains no support iff its complement meets every one, so
    this is n minus the size of a smallest set of variables meeting
    every support.  Depth first, that set grows one variable at a time,
    a variable of a support it does not meet yet (the smallest such
    support, so a pure power forces its variable), and a branch stops
    once the supports left cannot beat the best size so far: pairwise
    disjoint ones each need a variable of their own.
    """
    if 0 in supports:
        return -1
    best = n   # every variable meets every (nonempty) support

    def grow(left, size):
        nonlocal best
        if not left:
            best = size
            return
        need, seen = 0, 0
        for supp in left:
            if not supp & seen:
                seen |= supp
                need += 1
        if size + need >= best:
            return
        supp = min(left, key=int.bit_count)
        while supp:
            var = supp & -supp
            supp ^= var
            grow([t for t in left if not t & var], size + 1)

    grow(list(supports), 0)
    return n - best


def ideal_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the zero set over the algebraic closure.

    -1 for the unit ideal.  Computed as the largest variable subset S
    such that no leading monomial is supported inside S.
    """
    support = _packing(gb.nvars).support
    return _independent_dim([support(lm) for _, lm in gb.records], gb.nvars)


def _floored_leads(gens: Sequence[Poly], floor: int, field: Field,
                   nvars: int) -> list:
    """Packed leading monomials of a floored Buchberger run on ``gens``.

    The run stops on a unit record, or once pure powers of nvars -
    ``floor`` variables force the dimension down to ``floor``.
    """
    pk = _packing(nvars)
    seed = [g.packed for g in gens if g.packed]
    pure = 0   # bit mask of the variables with a pure power so far

    def stop(var):
        nonlocal pure
        if var < 0:
            return True
        pure |= 1 << var
        return nvars - pure.bit_count() <= floor

    return [rec[1] for rec in _buchberger(seed, field, pk, stop)]


def _dimension_floor(gens: Sequence[Poly], floor: int, field: Field,
                     nvars: int) -> int:
    """Dimension of the ideal the generators span, exact above ``floor``.

    Some value <= ``floor`` otherwise (-1 for the unit ideal).
    """
    support = _packing(nvars).support
    leads = _floored_leads(gens, floor, field, nvars)
    return _independent_dim([support(m) for m in leads], nvars)


def _cone_to_projective(cone: int) -> int:
    """Projective dimension of a zero set from that of its affine cone.

    Cone minus one; cones of dimension <= 0 (the unit and the
    irrelevant ideal) give -1, the empty set.
    """
    return cone - 1 if cone >= 1 else -1


def projective_dimension(gb: GroebnerBasis) -> int:
    """Dimension of the projective zero set; -1 when empty."""
    bits = _packing(gb.nvars).bits   # the shift of the degree field
    if any(m >> bits != lm >> bits for terms, lm in gb.records
           for m in terms):
        raise ValueError("projective question on non-homogeneous basis")
    return _cone_to_projective(ideal_dimension(gb))
