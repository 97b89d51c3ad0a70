"""Randomized one-sided dimension checks, kept as test oracles.

Neither check is part of the exact pipeline: ``classify``, ``sample``,
``census`` and ``bounds`` decide every flag exactly and call neither.
They check the exact answers with a different method: lift the
generators into a field of size at least 2**20 (``ensure_min_size``,
``embed_poly``), adjoin random forms, and take the engine's floored
dimension.

* ``kollar_dimension_test``: generic hyperplane slicing (Kollar).
* ``minor_combo_fiber_test``: the fiber dimension probed with one or
  two generic combinations of the Jacobian minors.

Their streams are keyed by (seed, system digest), so outcomes depend
on the inputs alone.
"""

import hashlib

from defectus.fields import Field, extension_of
from defectus.groebner import _cone_to_projective, _dimension_floor
from defectus.polynomials import Poly, PolySystem, embed_poly, jacobian_minors
from defectus.rng import HashStream

# the randomized checks draw from a field of at least this size
MIN_RANDOMIZED_FIELD = 1 << 20


def ensure_min_size(field: Field, min_size: int) -> Field:
    """``field`` itself when |field| >= min_size, otherwise the smallest
    sufficient extension over it: ``extension_of``'s seed-0 tower, so
    the same field always lifts to the same extension.

    Elements of ``field`` are elements of the result as they stand.
    """
    if field.q >= min_size:
        return field
    m = 1
    size = field.q
    while size < min_size:
        size *= field.q
        m += 1
    return extension_of(field, m)


def canonical_digest(polys) -> int:
    """64-bit key of a polynomial sequence: SHA-256 of canonical bytes."""
    h = hashlib.sha256()
    for f in polys:
        h.update(f.canonical_bytes())
    return int.from_bytes(h.digest()[:8], "big")


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
    big = ensure_min_size(field, MIN_RANDOMIZED_FIELD)
    stream = HashStream("kollar", seed, canonical_digest(gens), d)
    lifted = [embed_poly(g, big) for g in gens]
    for _ in range(d):
        terms = {}
        for i in range(n):
            c = stream.randint(big.q)
            if c:
                mono = tuple(1 if t == i else 0 for t in range(n))
                terms[mono] = c
        lifted.append(Poly(big, n, terms))
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
    big = ensure_min_size(field, MIN_RANDOMIZED_FIELD)
    stream = HashStream("minor-combo", seed, canonical_digest(homog), count)
    lifted = [embed_poly(g, big) for g in homog]
    lifted_minors = [embed_poly(m, big) for m in minors]
    for _ in range(count):
        acc = Poly.zero(big, system.r + 1)
        for mpoly in lifted_minors:
            acc = acc + mpoly.scale(stream.randint(big.q))
        lifted.append(acc)
    return _cone_to_projective(_dimension_floor(lifted, 0, big, system.r + 1))
