"""Defect taxonomy for polynomial systems over F_q.

The exact flags:

* ``in_B0``: all declared degrees attained and the affine zero set is
  empty over the closure, i.e. the full ideal is the unit ideal.
* ``set_theoretic_ci``: the affine zero set has dimension exactly r-s.
* ``regular_sequence``: each F_i is neither zero nor a zero divisor
  modulo its predecessors and the full ideal is proper.  Order-sensitive
  by definition.  Decided by prefix dimension: K[X] is Cohen-Macaulay,
  so F_1..F_s is regular iff every prefix ideal I_i = (F_1..F_i) has
  dimension exactly r-i, and the first prefix that misses r-i is the
  first failing index (Eisenbud, *Commutative Algebra*, ch. 17-18).
  Krull's principal ideal theorem gives dim I_i >= r-i for a proper
  I_i, so a prefix fails by being too large or by being the unit ideal.
* ``ideal_theoretic_ci``: regular sequence whose ideal is radical.
  Radicality for a complete intersection over the perfect ground field
  reduces to generic smoothness: the ideal is radical iff the locus
  where the affine Jacobian drops rank has dimension < r - s.  At a
  point P = (1 : x) of V(F^h), dF_i^h/dX_j = dF_i/dx_j for j >= 1, and
  Euler's identity sum_j X_j dF_i^h/dX_j = d_i F_i^h vanishes at P (in
  every characteristic; cap-relative homogenization keeps F_i^h
  homogeneous of degree d_i).  So the X_0 column is -sum_j x_j times
  column j, and the two Jacobians have the same rank at P: the affine
  rank-defect locus is the fiber set off X_0 = 0, of dimension
  <= fiber_dim.
* ``fiber_dim``: projective dimension of the homogenized system
  together with all maximal minors of its Jacobian in X_0..X_r.  The
  thresholds fiber_dim >= r-s and >= r-s-1 are membership in the
  projections of the incidence-variety strata that drive the bounds.

The affine flags (``in_B0``, ``set_theoretic_ci``, ``regular_sequence``)
are read off one list: the dimension of each prefix ideal I_i, computed
with floor r-i-1 (``groebner._dimension_floor``), exact above the floor
and some value <= the floor otherwise.  Krull's principal ideal theorem
makes the floor exact: a proper ideal with i generators has dimension
>= r-i, so a result at or below r-i-1 means I_i is the unit ideal, and
every other result is the exact dimension.  The full ideal I_s is one
floored Buchberger run, never reduced; a reduced basis is built only in
the witness search, once an exact divisor needs its membership test.

Stage order: one homogenization and one Jacobian build the fiber ideal
J = (F^h, minors) in X_0..X_r (``_fiber_ideal``), and the rank test
below is asked of it at most once.  When it proves the fiber empty on
a system whose degrees are all full and which has at most one linear
generator, the report is decided with no Buchberger run (below).
Every other system runs the prefix dimensions, then, unless the rank
test filled, one floored Buchberger run on J, cone floor 0, which
yields both ``fiber_dim`` and the rank-defect dimension
(``_fiber_dims``), then the witness search.  By Euler's argument above,
the affine rank-defect locus is V(J) off X_0 = 0, a dense open part of
V(J : X_0^infinity), so the two have one dimension.  J is homogeneous
and X_0 is the cheapest grevlex variable, so striking the X_0 powers
out of the leading monomials of a basis of J leaves generators of
LT(J : X_0^infinity) (Bayer & Stillman, *Invent. Math.* 87, 1987;
Eisenbud, *Commutative Algebra*, Prop. 15.12).  A run with
fiber_dim >= 0 never stops early, so its leading monomials are those
of a full basis, whose records are homogeneous.  A run that stops holds
a unit record or a pure power of X_0; both reads then give -1, which is
right, since the rank-defect locus lies inside the empty fiber set.

The rank test.  Over a prime field, when every generator of J has
degree <= 2, ``resultant.fills_degree`` asks whether the multiples of
the generators span all forms of degree D, the least degree, at least
each generator's, at which they are as many as the degree-D monomials.
If they do, every X_j^D lies in J, so the fiber set is empty and
J : X_0^infinity is the unit ideal: (-1, -1), exactly what the floored
run reads, with no run.  A short rank decides nothing; the test only
ever answers "empty".  It fills on most systems of the Monte Carlo
and census shapes (394 of 400 q=101 draws at r=3, d=(2,2)); on seeded
draws at r=3 and 4 and on the whole q=2, d=(2,1) census it filled on
every system with an empty fiber, except at q=2, r=4, d=(2,2), where
it needs one degree more.  The gate keeps it off where it does not
pay: with a cubic generator the least degree filled on none of 30
draws at q=101, r=3, d=(3,2) (1.0 ms spent before a 6.4 ms run), and
the degree that does fill cost 9.9 ms (41 ms against a 23 ms run at
d=(3,3)).  The test itself runs over any field, and the gate keeps
extension fields out because it did not pay there: with the gate
lifted, only q=8 at r=3 ran the fiber stage clearly faster (0.60 ->
0.42 ms a system), q=9 at r=3 ran slower (0.78 -> 0.85 ms), and at r=4
q=4 went 2.25 -> 3.42 ms and q=9 2.57 -> 4.30 ms.

An empty fiber decides the whole report.  Let every degree be full and
the top forms of the linear generators be independent, which holds at
once when at most one generator is linear.  If J has no projective
zero, the Jacobian of F^h has rank s at every point of V(F^h), which
is not empty (s < r forms in P^r), so V(F^h) is smooth of pure
dimension r-s >= 1 and F^h is a regular sequence of forms.  A complete
intersection of positive dimension is connected (Hartshorne,
*Algebraic Geometry*, III Ex. 5.5), and a smooth connected variety is
irreducible; a complete intersection that is smooth is reduced, so
(F^h) is radical.  V(F^h) does not lie in X_0 = 0: by radicality that
would put X_0 in (F^h)_1, the span of the linear F_i^h = l_i + c_i X_0,
and a combination sum a_i (l_i + c_i X_0) = X_0 forces sum a_i l_i = 0,
so every a_i = 0 when the top forms l_i are independent, and then
X_0 = 0.  So V(F) is a dense open part of V(F^h) and not empty.  Each
prefix F_1^h..F_i^h is a regular sequence too, so its zero set has pure
dimension r-i; that set contains V(F^h), so some component meets the
chart X_0 != 0, where it is V(F_1..F_i).  Hence every prefix ideal has
dimension r-i: ``regular_sequence`` holds with no failing index,
``set_theoretic_ci`` holds, ``in_B0`` is False, ``fiber_dim`` and the
rank-defect dimension are -1, so ``ideal_theoretic_ci`` holds and the
report reads ``CertifiedIrreducible``, exactly what the prefix runs
would give.  A degree-dropped system stays on the full path: its V(F)
may be empty, and its report then needs the failing index, which only
the prefix runs give.  So does every system with two or more linear
generators, whose top forms may be dependent: over F_101 at r=4,
d=(2,1,1), F = (x_0^2 + x_1^2 + x_2x_3 + x_3^2 + x_2 + 1, x_0, x_0 + 1)
fills with every degree full, yet V(F) is empty and the sequence fails
at index 3.

Irreducibility is a certified trichotomy, not a decision procedure:
a small singular locus (fiber_dim <= r-s-2 on a full-degree system
with nonempty zero set) certifies an irreducible normal complete
intersection; a generator that factors into parts neither of which
lies in the ideal certifies reducibility; everything else is
Undetermined.  The B_2 answer is therefore a bracket
[in_B2_lower, in_B2_upper], never a guessed point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Optional

from .fields import _digits
from .groebner import (
    groebner,
    _cone_to_projective, _dimension_floor, _exact_divide, _floored_leads,
    _independent_dim, _normal_form,
)
# not called here: bench/tracing.py wraps them; --trace 1 stops without them
from .groebner import colon_ideal, normal_form  # noqa: F401
from .polynomials import (
    Poly, PolySystem, _packing, degree_block, jacobian_minors,
    packed_monomials,
)
from .resultant import fills_degree

CERTIFIED_IRREDUCIBLE = "CertifiedIrreducible"
CERTIFIED_REDUCIBLE = "CertifiedReducible"
UNDETERMINED = "Undetermined"

DEFAULT_WITNESS_BUDGET = 4096


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    degree_full: tuple
    in_L: bool
    in_B0: bool
    regular_sequence: bool
    regular_sequence_failure_index: Optional[int]
    set_theoretic_ci: bool
    ideal_theoretic_ci: bool
    fiber_dim: int
    in_piW_rs: bool
    in_piW_rs1: bool
    irreducibility: str
    in_B1: bool
    in_B2_lower: bool
    in_B2_upper: bool

    def to_json_dict(self):
        blob = {f.name: getattr(self, f.name) for f in fields(self)}
        blob["degree_full"] = list(self.degree_full)
        return blob


def _prefix_dimensions(system: PolySystem) -> list:
    """Floored dimension of each prefix ideal (F_1..F_i), i = 1..s.

    Prefix i runs with floor r-i-1, so by Krull each entry is the exact
    dimension of a proper prefix and <= r-i-1 for the unit ideal.
    """
    field, r = system.field, system.r
    return [_dimension_floor(system.polys[:i], r - i - 1, field, r)
            for i in range(1, system.s + 1)]


def _first_failure(dims: list, r: int):
    """(ok, first failing index): stage i fails when dims[i-1] != r-i."""
    for i, dim in enumerate(dims, start=1):
        if dim != r - i:
            return False, i
    return True, None


def is_regular_sequence(system: PolySystem):
    """Exact test by prefix dimension; returns (ok, first failing index).

    Stage i fails when dim (F_1..F_i) != r-i: F_i is zero or a zero
    divisor modulo its predecessors (the dimension stays r-i+1), or the
    prefix is the unit ideal (-1; r-i >= 1 because s < r).
    """
    return _first_failure(_prefix_dimensions(system), system.r)


def initial_form_criterion(system: PolySystem) -> bool:
    """Sufficient regular-sequence test via top homogeneous components.

    Requires all degrees full.  True iff the initial forms cut the
    minimal possible dimension r-1-s in P^(r-1); this forces the
    initial forms, hence the system, to be a regular sequence.  That
    is a cone of dimension r-s in A^r, read off one floored run in r
    variables (floor r-s-1, exact above it); sufficient, not necessary.
    """
    if not all(system.degree_full()):
        raise ValueError("initial-form criterion needs full degrees")
    r, s = system.r, system.s
    inits = [f.initial_form(d) for f, d in zip(system.polys, system.caps)]
    return _dimension_floor(inits, r - s - 1, system.field, r) == r - s


def _fiber_ideal(system: PolySystem) -> tuple:
    """(generators of J = (F^h, minors), whether the rank test fills J).

    One homogenization and one Jacobian.  ``resultant.fills_degree`` is
    asked only over a prime field and when every generator has degree
    <= 2 (module docstring); elsewhere the answer is False, unasked.
    """
    field = system.field
    homog = system.homogenized()
    gens = homog + jacobian_minors(homog)
    # the whole policy of the rank test: fills_degree answers over any
    # field, but over an extension field it was measured not to pay
    filled = (field.q == field.p and all(g.degree() <= 2 for g in gens)
              and fills_degree(gens, field))
    return gens, filled


def _fiber_dims(system: PolySystem, ideal=None) -> tuple:
    """(fiber_dim, affine rank-defect dimension), both exact, <= 1 run.

    ``ideal`` is ``_fiber_ideal(system)``, built here when not given.
    (-1, -1) with no run when the rank test fills J.  The run is floored
    at cone dimension 0 (every cone of dimension <= 0 gives -1) on F^h
    and its homogenized minors in X_0..X_r.  The rank-defect read
    strikes X_0 (bit r) out of every leading support: V(J : X_0^infinity),
    the fiber set off X_0 = 0 (module docstring).  X_0 is then free, so
    that cone's dimension is one more than the read over x_1..x_r alone,
    which is the projective dimension.
    """
    r, field = system.r, system.field
    gens, filled = ideal or _fiber_ideal(system)
    if filled:
        return -1, -1
    support = _packing(r + 1).support
    leads = {support(m) for m in _floored_leads(gens, 0, field, r + 1)}
    return (_cone_to_projective(_independent_dim(leads, r + 1)),
            _independent_dim({supp & ~(1 << r) for supp in leads}, r))


def _rank_defect_dimension(system: PolySystem) -> int:
    """Dimension of V(F, all s-by-s affine Jacobian minors) in A^r; exact."""
    return _fiber_dims(system)[1]


def fiber_dimension(system: PolySystem) -> int:
    """Projective dimension of V(F^h, all homogenized Jacobian minors).

    This is the fiber of the incidence variety over the system; -1 when
    the homogenized system has no rank-defect zero in P^r.  Membership:
    pi(W_{r-s}) iff result >= r-s, pi(W_{r-s-1}) iff result >= r-s-1.
    """
    return _fiber_dims(system)[0]


@cache
def _witness_candidates(q: int, r: int, gdeg: int) -> tuple:
    """(term map, top form) of the monic maps of exact degree ``gdeg``.

    Index order: index idx reads its base-q digits over
    ``packed_monomials(r, gdeg)`` (grevlex descending, least significant
    first).  The top form is the degree-``gdeg`` part as a tuple of
    items, a hashable key.  A candidate holds element indices, and 1 is
    the one of every field of order q, so the maps depend on q alone.
    () when the q^len(mons) indices exceed ``DEFAULT_WITNESS_BUDGET``.
    """
    mons = packed_monomials(r, gdeg)
    count = q ** len(mons)
    if count > DEFAULT_WITNESS_BUDGET:
        return ()
    top = set(degree_block(r, gdeg))
    out = []
    for idx in range(count):
        terms = {m: d for m, d in zip(mons, _digits(idx, q, len(mons))) if d}
        # mons descend in grevlex: the first term is the leading one;
        # below gdeg or not monic (_exact_divide needs it monic): skipped
        lead = next(iter(terms), None)
        if lead in top and terms[lead] == 1:
            out.append((terms, tuple((m, d) for m, d in terms.items()
                                     if m in top)))
    return tuple(out)


def find_reducibility_witness(system: PolySystem):
    """Search for F_i = G*H with G, H both outside the ideal.

    Sound and deliberately incomplete: divisors are found by exhaustive
    enumeration of low-degree monic candidates (``_witness_candidates``),
    skipped entirely when the candidate count exceeds
    ``DEFAULT_WITNESS_BUDGET``.  The two normal-form checks subsume
    coprimality; with a radical ideal they certify that
    V = V(I+G) union V(I+H) splits the zero set into proper parts.
    Top forms multiply in a domain, so G | F_i needs top(G) | top(F_i);
    that test is made once per top form, and the full division only
    where it passes.  The reduced basis of the ideal is computed only
    when the first exact divisor reaches the checks, which reduce the
    term maps of G and H against its records; Poly objects are built
    only for the witness returned.  Returns (i, G, H) or None.
    """
    field, r, q = system.field, system.r, system.field.q
    records = None
    pk = _packing(r)
    for i, f in enumerate(system.polys, start=1):
        if f.is_zero() or f.degree() < 2:
            continue
        ftop = f.initial_form(f.degree()).packed
        for gdeg in range(1, f.degree()):
            divides = {}   # top form -> does it divide top(F_i)
            for terms, top in _witness_candidates(q, r, gdeg):
                if top not in divides:
                    divides[top] = _exact_divide(
                        ftop, dict(top), field, pk) is not None
                if not divides[top]:
                    continue
                quot = _exact_divide(f.packed, terms, field, pk)
                if quot is None:
                    continue
                if records is None:
                    records = groebner(list(system.polys)).records
                if (not _normal_form(terms, records, field, pk)
                        or not _normal_form(quot, records, field, pk)):
                    continue
                # a copy: the cached map must not escape into a Poly
                return (i, Poly.from_packed(field, r, dict(terms)),
                        Poly.from_packed(field, r, quot))
    return None


def classify(system: PolySystem) -> ClassificationReport:
    """Fill every report field; exact except the certified trichotomy.

    Pure and deterministic in the system alone; safe to run on many
    systems concurrently.
    """
    r, s = system.r, system.s
    degree_full = system.degree_full()
    all_full = all(degree_full)

    gens, filled = _fiber_ideal(system)
    if filled and all_full and system.caps.count(1) <= 1:
        # the empty fiber decides every exact flag (module docstring)
        rs, fail_idx, stci, b0, fdim, rdim = True, None, True, False, -1, -1
    else:
        dims = _prefix_dimensions(system)
        rs, fail_idx = _first_failure(dims, r)
        stci = dims[-1] == r - s
        # not dims[-1] == -1: a unit ideal may stop on pure powers first
        b0 = all_full and dims[-1] <= r - s - 1
        fdim, rdim = _fiber_dims(system, (gens, filled))
    itci = rs and rdim <= r - s - 1

    if all_full and not b0 and fdim <= r - s - 2:
        irreducibility = CERTIFIED_IRREDUCIBLE
    elif itci and find_reducibility_witness(system) is not None:
        irreducibility = CERTIFIED_REDUCIBLE
    else:
        irreducibility = UNDETERMINED

    in_b1 = not itci
    return ClassificationReport(
        degree_full=degree_full,
        in_L=not all_full,
        in_B0=b0,
        regular_sequence=rs,
        regular_sequence_failure_index=fail_idx,
        set_theoretic_ci=stci,
        ideal_theoretic_ci=itci,
        fiber_dim=fdim,
        in_piW_rs=fdim >= r - s,
        in_piW_rs1=fdim >= r - s - 1,
        irreducibility=irreducibility,
        in_B1=in_b1,
        in_B2_lower=in_b1 or irreducibility == CERTIFIED_REDUCIBLE,
        in_B2_upper=irreducibility != CERTIFIED_IRREDUCIBLE,
    )
