"""Defect taxonomy for polynomial systems over F_q.

The exact flags:

* ``in_B0``: all declared degrees attained and the affine zero set is
  empty over the closure.
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
  where the affine Jacobian drops rank has dimension < r - s.
* ``fiber_dim``: projective dimension of the homogenized system
  together with all maximal minors of its Jacobian in X_0..X_r.  The
  thresholds fiber_dim >= r-s and >= r-s-1 are membership in the
  projections of the incidence-variety strata that drive the bounds.

Irreducibility is a certified trichotomy, not a decision procedure:
a small singular locus (fiber_dim <= r-s-2 on a full-degree system
with nonempty zero set) certifies an irreducible normal complete
intersection; a generator that factors into parts neither of which
lies in the ideal certifies reducibility; everything else is
Undetermined.  The B_2 answer is therefore a bracket
[in_B2_lower, in_B2_upper], never a guessed point.

The two randomized operations (Kollar slicing, generic minor
combinations) are one-sided cross-checks over a field of size at least
2**20; their streams are keyed by (seed, system digest) so outcomes do
not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fields import MIN_RANDOMIZED_FIELD, ensure_min_size
from .groebner import (
    GREVLEX, GroebnerBasis, groebner, ideal_dimension, normal_form,
    projective_dimension, _dimension_floor, _exact_divide, _packing,
)
# not called here: bench/tracing.py wraps it; --trace 1 stops without it
from .groebner import colon_ideal  # noqa: F401
from .polynomials import (
    Poly, PolySystem, canonical_digest, embed_poly, jacobian_minors,
    monomials_upto,
)
from .rng import HashStream

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
        return {
            "degree_full": list(self.degree_full),
            "in_L": self.in_L,
            "in_B0": self.in_B0,
            "regular_sequence": self.regular_sequence,
            "regular_sequence_failure_index":
                self.regular_sequence_failure_index,
            "set_theoretic_ci": self.set_theoretic_ci,
            "ideal_theoretic_ci": self.ideal_theoretic_ci,
            "fiber_dim": self.fiber_dim,
            "in_piW_rs": self.in_piW_rs,
            "in_piW_rs1": self.in_piW_rs1,
            "irreducibility": self.irreducibility,
            "in_B1": self.in_B1,
            "in_B2_lower": self.in_B2_lower,
            "in_B2_upper": self.in_B2_upper,
        }


def in_B0(system: PolySystem) -> bool:
    """Full degrees and empty affine zero set over the closure.

    Degree-dropped empty systems are charged to the L_i strata, not B_0.
    """
    if not all(system.degree_full()):
        return False
    return groebner(list(system.polys)).is_unit


def is_regular_sequence(system: PolySystem,
                        gb_affine: GroebnerBasis = None):
    """Exact test by prefix dimension; returns (ok, first failing index).

    Stage i fails when dim (F_1..F_i) != r-i: F_i is zero or a zero
    divisor modulo its predecessors (the dimension stays r-i+1), or the
    prefix is the unit ideal (-1; r-i >= 1 because s < r).  Each prefix
    runs with floor r-i-1, at which only the unit ideal lands; the full
    ideal reads ``gb_affine`` when the caller already holds it.
    """
    field, r = system.field, system.r
    for i in range(1, system.s + 1):
        if i == system.s and gb_affine is not None:
            dim = ideal_dimension(gb_affine)
        else:
            dim = _dimension_floor(system.polys[:i], r - i - 1, field, r)
        if dim != r - i:
            return False, i
    return True, None


def initial_form_criterion(system: PolySystem) -> bool:
    """Sufficient regular-sequence test via top homogeneous components.

    Requires all degrees full.  True iff the initial forms cut the
    minimal possible dimension r-1-s in P^(r-1); this forces the
    initial forms, hence the system, to be a regular sequence.  One
    basis in r variables; sufficient, not necessary.
    """
    if not all(system.degree_full()):
        raise ValueError("initial-form criterion needs full degrees")
    inits = [f.initial_form(d) for f, d in zip(system.polys, system.caps)]
    gb = groebner(inits, field=system.field, nvars=system.r)
    return projective_dimension(gb) == system.r - 1 - system.s


def _rank_defect_dimension(system: PolySystem) -> int:
    """Dimension of V(F_s, all s-by-s affine Jacobian minors).

    Exact only above the floor r-s-1, the one threshold its callers
    test: at or below it the result is some value <= r-s-1, because the
    basis computation stops once its leading monomials force that bound.
    """
    gens = list(system.polys) + jacobian_minors(list(system.polys))
    return _dimension_floor(gens, system.r - system.s - 1, system.field,
                            system.r)


def is_radical_ci(system: PolySystem) -> bool:
    """Radicality of the ideal of a regular sequence (exact).

    For an unmixed complete intersection over the perfect field F_q,
    radical is equivalent to generically smooth, i.e. to the affine
    rank-defect locus having dimension at most r-s-1.  Raises if the
    system is not a regular sequence.
    """
    ok, idx = is_regular_sequence(system)
    if not ok:
        raise ValueError(f"not a regular sequence (fails at index {idx})")
    return _rank_defect_dimension(system) <= system.r - system.s - 1


def fiber_dimension(system: PolySystem) -> int:
    """Projective dimension of V(F^h, all homogenized Jacobian minors).

    This is the fiber of the incidence variety over the system; -1 when
    the homogenized system has no rank-defect zero in P^r.  Membership:
    pi(W_{r-s}) iff result >= r-s, pi(W_{r-s-1}) iff result >= r-s-1.
    Exact: the affine cone is computed with floor 0, and every cone of
    dimension <= 0 gives -1, so the basis computation may stop as soon
    as each of X_0..X_r has a pure power among its leading monomials.
    """
    homog = system.homogenized()
    gens = homog + jacobian_minors(homog)
    cone = _dimension_floor(gens, 0, system.field, system.r + 1)
    return cone - 1 if cone >= 1 else -1


def find_reducibility_witness(system: PolySystem,
                              gb_affine: GroebnerBasis = None,
                              budget: int = DEFAULT_WITNESS_BUDGET):
    """Search for F_i = G*H with G, H both outside the ideal.

    Sound and deliberately incomplete: divisors are found by exhaustive
    enumeration of low-degree candidates, skipped entirely when the
    candidate count exceeds ``budget``.  The two normal-form checks
    subsume coprimality; with a radical ideal they certify that
    V = V(I+G) union V(I+H) splits the zero set into proper parts.
    Returns (i, G, H) or None.
    """
    field, r, q = system.field, system.r, system.field.q
    if gb_affine is None:
        gb_affine = groebner(list(system.polys))
    pk = _packing(r, GREVLEX)
    for i, f in enumerate(system.polys, start=1):
        if f.is_zero() or f.degree() < 2:
            continue
        fdeg = int(f.degree())
        fpacked = pk.pack_terms(f.terms)
        for gdeg in range(1, fdeg):
            mons = monomials_upto(r, gdeg)
            count = q ** len(mons)
            if count > budget:
                continue
            elems = [field.element_from_index(d) for d in range(q)]
            packed = [pk.pack(m) for m in mons]
            top = {pk.pack(m) for m in mons if sum(m) == gdeg}
            for idx in range(count):
                terms = {}
                rest = idx
                for m in packed:
                    rest, digit = divmod(rest, q)
                    if digit:
                        terms[m] = elems[digit]
                # mons descend in grevlex: the first term is the leading one
                lead = next(iter(terms), None)
                if lead not in top:
                    continue  # degree below gdeg
                if terms[lead] != field.one:
                    continue  # divisors only matter up to scalar
                try:
                    quot = _exact_divide(fpacked, terms, field, pk)
                except ArithmeticError:
                    continue
                cand = Poly(field, r, pk.unpack_terms(terms), _clean=True)
                other = Poly(field, r, pk.unpack_terms(quot), _clean=True)
                if normal_form(cand, gb_affine).is_zero():
                    continue
                if normal_form(other, gb_affine).is_zero():
                    continue
                return i, cand, other
    return None


def classify(system: PolySystem,
             witness_budget: int = DEFAULT_WITNESS_BUDGET
             ) -> ClassificationReport:
    """Fill every report field; exact except the certified trichotomy.

    Pure and deterministic in the system alone; safe to run on many
    systems concurrently.
    """
    r, s = system.r, system.s
    degree_full = system.degree_full()
    all_full = all(degree_full)

    gb_aff = groebner(list(system.polys), field=system.field, nvars=r)
    affine_empty = gb_aff.is_unit
    b0 = all_full and affine_empty

    rs, fail_idx = is_regular_sequence(system, gb_aff)
    stci = (not affine_empty) and ideal_dimension(gb_aff) == r - s
    itci = rs and _rank_defect_dimension(system) <= r - s - 1

    fdim = fiber_dimension(system)

    if all_full and not b0 and fdim <= r - s - 2:
        irreducibility = CERTIFIED_IRREDUCIBLE
    elif itci and find_reducibility_witness(
            system, gb_aff, witness_budget) is not None:
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


# -- randomized one-sided cross-checks -----------------------------------

def kollar_dimension_test(gens, d: int, seed: int = 0) -> bool:
    """Randomized test for dim >= d of a projective zero set.

    Adjoins d linear forms with coefficients uniform over a field of
    size >= 2**20 and tests projective nonemptiness.  One-sided: when
    the true dimension is >= d the sliced set is nonempty for every
    specialization (a dimension count forces the intersection), so True
    is always returned; when the true dimension is < d a rare unlucky
    specialization may still answer True, never the reverse.
    """
    if d < 1:
        raise ValueError("target dimension must be >= 1")
    if not gens:
        raise ValueError("need at least one polynomial to fix the ring")
    if any(not g.is_homogeneous() for g in gens):
        raise ValueError("slicing test needs homogeneous generators")
    field = gens[0].field
    n = gens[0].nvars
    big, embed = ensure_min_size(field, MIN_RANDOMIZED_FIELD)
    stream = HashStream("kollar", seed, canonical_digest(gens), d)
    lifted = [embed_poly(g, big, embed) for g in gens]
    for _ in range(d):
        terms = {}
        for i in range(n):
            c = big.element_from_index(stream.randint(big.q))
            if c != big.zero:
                mono = tuple(1 if t == i else 0 for t in range(n))
                terms[mono] = c
        lifted.append(Poly(big, n, terms, _clean=True))
    # cone of a nonempty projective set; floor 0 decides dim >= 1 exactly
    return _dimension_floor(lifted, 0, big, n) >= 1


def minor_combo_fiber_test(system: PolySystem, count: int,
                           seed: int = 0) -> int:
    """Fiber dimension probed with 1 or 2 random minor combinations.

    Returns the projective dimension of V(F^h, combo_1[, combo_2]) with
    the combination coefficients uniform over a field of size >= 2**20.
    One-sided by containment: the result is always >= the exact fiber
    dimension; for random coefficients the threshold predicates
    (>= r-s for one combination, >= r-s-1 for two) agree with the exact
    fiber with high probability.
    """
    if count not in (1, 2):
        raise ValueError("count must be 1 or 2")
    field = system.field
    homog = system.homogenized()
    minors = jacobian_minors(homog)
    big, embed = ensure_min_size(field, MIN_RANDOMIZED_FIELD)
    stream = HashStream("minor-combo", seed, canonical_digest(homog), count)
    lifted = [embed_poly(g, big, embed) for g in homog]
    lifted_minors = [embed_poly(m, big, embed) for m in minors]
    for _ in range(count):
        acc = Poly.zero(big, system.r + 1)
        for mpoly in lifted_minors:
            lam = big.element_from_index(stream.randint(big.q))
            acc = acc + mpoly.scale(lam)
        lifted.append(acc)
    cone = _dimension_floor(lifted, 0, big, system.r + 1)
    return cone - 1 if cone >= 1 else -1
