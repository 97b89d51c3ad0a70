"""Reduced Groebner bases and exact ideal decisions.

Buchberger with the normal selection strategy and both classical pair
criteria.  Each S-pair is ranked once, when it is formed, by the order
key of its lcm and then by its indices, and waits in a heap; ranks are
distinct, so the pop order is the order of a full scan for the
smallest rank.  Normal forms take their leading monomials from a heap
keyed by the negated order key.  The public order is grevlex with the
last variable cheapest (that is where homogenization puts X_0); a block
order eliminating an auxiliary last variable is used internally for
colon ideals.

The engine works on packed monomials (Monagan & Pearce, CASC 2007).
A monomial in n variables is one int of n + 1 fields, 16 bits each:
exponent e[i] sits at bit 16*i, so e[n-1] is the most significant
exponent field, and the total degree sits above them all.  The top bit
of every field is a guard bit, clear in every valid monomial; G is the
mask of all guard bits.  A product is a + b, a quotient b - a, and a
divides b iff ((b + G - a) & G) == G.  The lcm takes each field's
larger value through the guard bits of a + G - b and recomputes the
degree.  With L = 16*n, the grevlex key is ((M >> L) << (L + 1)) - M,
i.e. the degree above the negated exponent fields; the elimination key
puts the last exponent above the grevlex key of the rest.  Both are
plain ints that sort exactly as the tuple keys of ``MonomialOrder``.
An exponent or degree of 2**15 or more does not fit: packing such an
input, or any product or lcm the engine forms that reaches it, raises
ValueError instead of wrapping.  ``groebner``, ``normal_form``
and ``colon_ideal`` pack their inputs once and unpack the result once;
everything public keeps exponent tuples.

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
dim I <= n - k.  ``_dimension_floor(gens, floor, ...)`` stops on a
unit record, or once n - k <= ``floor``; either way the dimension read
off the partial basis is exact when it exceeds ``floor`` and <=
``floor`` otherwise (dim <= 0 iff every variable has a pure power).  A
run that never stops reads the dimension off the unreduced basis,
whose leading monomials already generate LT(I), so the basis is never
reduced.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import lshift
from typing import Callable, Sequence

from .fields import Field
from .polynomials import Poly, grevlex_key

_WIDTH = 16                    # bits per packed field, guard bit on top
_LIMIT = 1 << (_WIDTH - 1)     # every exponent and degree stays below
_FIELD = (1 << _WIDTH) - 1


def _grevlex_packed(nvars):
    bits = nvars * _WIDTH
    return lambda m: ((m >> bits) << (bits + 1)) - m


def _elim_last_packed(nvars):
    bits = nvars * _WIDTH
    low = max(nvars - 1, 0) * _WIDTH
    rest = (1 << low) - 1

    def key(m):
        t = (m >> low) & _FIELD
        return (((t << _WIDTH) + (m >> bits) - t) << low) - (m & rest)
    return key


class MonomialOrder:
    """A term order: a sort key on exponent tuples and one on packed ints.

    ``key(a) < key(b)`` iff a is smaller than b; ``packed(nvars)`` is the
    same order as an int key on monomials packed in ``nvars`` variables.
    """

    __slots__ = ("kind", "key", "packed")

    def __init__(self, kind: str, key: Callable, packed: Callable):
        self.kind = kind
        self.key = key
        self.packed = packed

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"MonomialOrder({self.kind})"


GREVLEX = MonomialOrder("grevlex", grevlex_key, _grevlex_packed)

# t (the last variable) dominates, grevlex on the rest: eliminates t.
ELIM_LAST = MonomialOrder(
    "elim_last", lambda e: (e[-1], grevlex_key(e[:-1])), _elim_last_packed)


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


# -- packed monomials ----------------------------------------------------

def _overflow():
    raise ValueError(f"exponent or degree reaches the packing limit {_LIMIT}")


class _Packing:
    """Packing of monomials in ``nvars`` variables, with one order's key."""

    __slots__ = ("guard", "key", "_shifts", "_bits", "_exps", "_ones",
                 "_top")

    def __init__(self, nvars: int, order: MonomialOrder):
        self._shifts = tuple(range(0, nvars * _WIDTH, _WIDTH))
        self._bits = nvars * _WIDTH
        self.guard = sum(_LIMIT << s
                         for s in range(0, self._bits + 1, _WIDTH))
        self._exps = sum((_LIMIT - 1) << s for s in self._shifts)
        self._ones = sum(1 << s for s in self._shifts)
        self._top = max(nvars - 1, 0) * _WIDTH
        self.key = order.packed(nvars)

    def pack(self, e) -> int:
        deg = sum(e)
        if deg >= _LIMIT:
            _overflow()
        return sum(map(lshift, e, self._shifts)) + (deg << self._bits)

    def unpack(self, m: int) -> tuple:
        return tuple((m >> s) & _FIELD for s in self._shifts)

    def pack_terms(self, terms: dict) -> dict:
        pack = self.pack
        return {pack(m): c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        unpack = self.unpack
        return {unpack(m): c for m, c in terms.items()}

    def lcm(self, a: int, b: int) -> int:
        g = (a + self.guard - b) & self.guard   # guards where a >= b
        take_a = g - (g >> (_WIDTH - 1))        # value bits of those fields
        e = (a & take_a | b & ~take_a) & self._exps
        # times _ones, the top exponent field collects the degree
        m = e + ((((e * self._ones) >> self._top) & _FIELD) << self._bits)
        if m & self.guard:
            _overflow()
        return m

    def power_var(self, m: int):
        """i when m is a pure power of x_i, -1 when m is 1, else None."""
        if not m:
            return -1
        e = m & self._exps
        i = (e.bit_length() - 1) // _WIDTH
        return i if e == (m >> self._bits) << (i * _WIDTH) else None

    def support(self, m: int) -> int:
        """Bit mask of the variables that occur in m."""
        return sum(1 << i for i, s in enumerate(self._shifts)
                   if (m >> s) & _FIELD)


_packing = cache(_Packing)   # one packing per (nvars, order)


# -- packed engine -------------------------------------------------------
# A basis record is (terms_dict, leading_monomial, leading_coefficient),
# every monomial packed.

def _record(terms, key):
    lm = max(terms, key=key)
    return (terms, lm, terms[lm])


def _normal_form(terms, records, field, pk):
    """Full remainder of ``terms`` modulo the records (deterministic).

    ``work`` holds the coefficients; the heap holds each monomial pushed
    when it entered ``work``, and a popped monomial no longer there was
    cancelled.  Reduction adds only monomials below the one it removes,
    so the heap yields the leading monomial of ``work`` every time.
    """
    key, guard = pk.key, pk.guard
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
        gterms, glm, glc = hit
        factor = field.mul(c, field.inv(glc))
        shift = lm - glm
        for gm, gc in gterms.items():
            if gm == glm:
                continue
            m2 = gm + shift
            if m2 & guard:
                _overflow()
            old = work.get(m2)
            v = field.sub(zero if old is None else old, field.mul(factor, gc))
            if v == zero:
                work.pop(m2, None)
            else:
                if old is None:
                    heappush(heap, (-key(m2), m2))
                work[m2] = v
    return rem


def _s_poly(rec_i, rec_j, lcm, field, guard):
    zero = field.zero
    ti, lmi, lci = rec_i
    tj, lmj, lcj = rec_j
    si, sj = lcm - lmi, lcm - lmj
    ci, cj = field.inv(lci), field.inv(lcj)
    out = {}
    for m, c in ti.items():
        m2 = m + si
        if m2 & guard:
            _overflow()
        out[m2] = field.mul(ci, c)
    for m, c in tj.items():
        m2 = m + sj
        if m2 & guard:
            _overflow()
        v = field.sub(out.get(m2, zero), field.mul(cj, c))
        if v == zero:
            out.pop(m2, None)
        else:
            out[m2] = v
    return out


def _buchberger(seed_terms, field, pk, stop=None):
    """Unreduced basis of the seeds' ideal, as a list of records.

    ``stop(var)`` is called right after a record whose leading
    monomial is 1 (var -1) or a pure power of x_var joins the basis;
    when it returns true, the partial basis is returned as it stands.
    """
    key, guard, lcm_of = pk.key, pk.guard, pk.lcm
    power_var = pk.power_var
    basis = []
    queue = []       # (key of the lcm, i, j, lcm), smallest rank first
    pending = set()  # the (i, j) in queue, for the chain criterion

    def add_record(terms):
        rec = _record(terms, key)
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
    """Unique reduced form: minimal, inter-reduced, monic, sorted."""
    key, guard = pk.key, pk.guard
    recs = sorted(basis, key=lambda r: key(r[1]))
    kept = []
    for rec in recs:
        probe = rec[1] + guard
        if not any((probe - k[1]) & guard == guard for k in kept):
            kept.append(rec)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1:]
            rem = _normal_form(kept[idx][0], others, field, pk)
            if rem != kept[idx][0]:
                kept[idx] = _record(rem, key)
                changed = True
    out = []
    for terms, lm, lc in kept:
        inv = field.inv(lc)
        out.append(({m: field.mul(inv, c) for m, c in terms.items()}, lm))
    out.sort(key=lambda t: key(t[1]), reverse=True)
    return out


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
    pk = _packing(nvars, order)
    seed = [pk.pack_terms(g.terms) for g in gens if not g.is_zero()]
    basis = _buchberger(seed, field, pk)
    polys = tuple(Poly(field, nvars, pk.unpack_terms(t), _clean=True)
                  for t, _ in _reduce_basis(basis, field, pk))
    return GroebnerBasis(field, nvars, order, polys)


def normal_form(f: Poly, gb: GroebnerBasis) -> Poly:
    """Remainder of multivariate division; zero iff f lies in the ideal."""
    if f.nvars != gb.nvars or f.field != gb.field:
        raise ValueError("polynomial not in the basis ring")
    pk = _packing(gb.nvars, gb.order)
    records = [_record(pk.pack_terms(g.terms), pk.key) for g in gb.gens]
    rem = _normal_form(pk.pack_terms(f.terms), records, gb.field, pk)
    return Poly(gb.field, gb.nvars, pk.unpack_terms(rem), _clean=True)


def _exact_divide(num, div, field, pk):
    """Quotient of an exact division of packed term maps.

    ``pk`` gives the packing and the order; raises ArithmeticError if
    the division is inexact.  The smallest monomial of a product is the
    product of the smallest ones, so a divisor whose smallest monomial
    does not divide the numerator's is rejected before any arithmetic.
    """
    key, guard = pk.key, pk.guard
    if num and (min(num, key=key) + guard
                - min(div, key=key)) & guard != guard:
        raise ArithmeticError("inexact division")
    dlm = max(div, key=key)
    dinv = field.inv(div[dlm])
    zero, one = field.zero, field.one
    work = dict(num)
    quot = {}
    while work:
        lm = max(work, key=key)
        c = work.pop(lm)
        if (lm + guard - dlm) & guard != guard:
            raise ArithmeticError("inexact division")
        shift = lm - dlm
        qc = c if dinv == one else field.mul(c, dinv)
        quot[shift] = qc
        for dm, dc in div.items():
            if dm == dlm:
                continue
            m2 = dm + shift
            if m2 & guard:
                _overflow()
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
    pk = _packing(n + 1, ELIM_LAST)
    pack = pk.pack
    # t*I and (1 - t)*f inside K[x_1..x_n, t]
    ext_gens = []
    for g in gb.gens:
        ext_gens.append({pack(m + (1,)): c for m, c in g.terms.items()})
    mixed = {pack(m + (0,)): c for m, c in f.terms.items()}
    for m, c in f.terms.items():
        mt = pack(m + (1,))
        v = field.sub(mixed.get(mt, field.zero), c)
        if v == field.zero:
            mixed.pop(mt, None)
        else:
            mixed[mt] = v
    ext_gens.append(mixed)
    basis = _reduce_basis(
        _buchberger([t for t in ext_gens if t], field, pk), field, pk)
    # under the block order, a t-free leading monomial forces the whole
    # element t-free, so these form a grevlex basis of I intersect (f)
    gpk = _packing(n, GREVLEX)
    fpacked = gpk.pack_terms(f.terms)
    quotients = []
    for terms, lm in basis:
        if pk.unpack(lm)[-1] == 0:
            inter = {gpk.pack(e[:-1]): c
                     for e, c in pk.unpack_terms(terms).items()}
            quotients.append(Poly(
                field, n,
                gpk.unpack_terms(_exact_divide(inter, fpacked, field, gpk)),
                _clean=True))
    return groebner(quotients, GREVLEX, field=field, nvars=n)


def _independent_dim(supports, n: int) -> int:
    """Size of a largest subset of the n variables containing no support.

    ``supports`` are the variable bit masks of the leading monomials; an
    empty support (the monomial 1) excludes even the empty set: -1.
    """
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            sset = sum(1 << i for i in subset)
            if all(supp & ~sset for supp in supports):
                return size
    return -1


def ideal_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the zero set over the algebraic closure.

    -1 for the unit ideal.  Computed as the largest variable subset S
    such that no leading monomial is supported inside S.
    """
    supports = [sum(1 << i for i, e in enumerate(g.leading_monomial()) if e)
                for g in gb.gens]
    return _independent_dim(supports, gb.nvars)


def _dimension_floor(gens: Sequence[Poly], floor: int, field: Field,
                     nvars: int) -> int:
    """Dimension of the ideal the generators span, exact above ``floor``.

    Returns the exact dimension when it exceeds ``floor`` and some value
    <= ``floor`` otherwise (-1 for the unit ideal).  Buchberger stops on
    a unit record, or once pure powers of nvars - ``floor`` variables
    force the dimension down to ``floor``; a run that never stops reads
    the dimension off the unreduced basis, whose leading monomials
    already generate LT(I).
    """
    pk = _packing(nvars, GREVLEX)
    seed = [pk.pack_terms(g.terms) for g in gens if not g.is_zero()]
    pure = 0   # bit mask of the variables with a pure power so far

    def stop(var):
        nonlocal pure
        if var < 0:
            return True
        pure |= 1 << var
        return nvars - pure.bit_count() <= floor

    basis = _buchberger(seed, field, pk, stop)
    return _independent_dim([pk.support(rec[1]) for rec in basis], nvars)


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
