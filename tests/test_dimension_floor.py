"""The answer-driven stop: the engine hook and the floored dimension.

The floored stages (``fiber_dimension`` with cone floor 0,
``_rank_defect_dimension`` with floor r-s-1) are checked against the
full route, a reduced basis read by ``projective_dimension`` and
``ideal_dimension``.  The whole q=2, d=(2,1) census runs under the
``slow`` marker: ``pytest -m slow``.
"""

import importlib

import pytest

from defectus import (
    BoundInputs, Poly, PolySystem, field_make, groebner, ideal_dimension,
    jacobian_minors, normal_form, prime_power_decompose,
    projective_dimension, sample_system, system_from_census_index,
)
from defectus.groebner import GREVLEX
from defectus.rng import HashStream

import reference_groebner
from conftest import random_poly

gbmod = importlib.import_module("defectus.groebner")
clmod = importlib.import_module("defectus.classify")

_CENSUS = BoundInputs(3, 2, 2, (2, 1))


def _field(q):
    return field_make(*prime_power_decompose(q))


@pytest.fixture
def stops(monkeypatch):
    """Record the var of every stop that fires."""
    fired = []
    engine = gbmod._buchberger

    def watched(seed, field, pk, stop=None):
        def wrapped(var):
            hit = stop(var)
            if hit:
                fired.append(var)
            return hit
        return engine(seed, field, pk, stop and wrapped)

    monkeypatch.setattr(gbmod, "_buchberger", watched)
    return fired


def _check_stages(system):
    """Floored stages against the full bases; True if rank-defect <= floor."""
    r, s, field = system.r, system.s, system.field
    homog = system.homogenized()
    full_fiber = projective_dimension(
        groebner(homog + jacobian_minors(homog), field=field, nvars=r + 1))
    assert clmod.fiber_dimension(system) == full_fiber
    gens = list(system.polys) + jacobian_minors(list(system.polys))
    full_rd = ideal_dimension(groebner(gens, field=field, nvars=r))
    floor = r - s - 1
    got = clmod._rank_defect_dimension(system)
    if full_rd > floor:
        assert got == full_rd
    else:
        assert got <= floor
    return full_rd <= floor


@pytest.mark.parametrize("stride", [
    37, pytest.param(1, marks=pytest.mark.slow, id="whole")])
def test_floored_stages_match_full_on_census(stride):
    field = field_make(2, 1)
    for idx in range(0, 2 ** 14, stride):
        _check_stages(system_from_census_index(_CENSUS, field, idx))


@pytest.mark.parametrize("q", [3, 4, 101])
def test_floored_stages_match_full_on_draws(q, stops):
    field = _field(q)
    inputs = BoundInputs(3, 2, q, (2, 2))
    for i in range(25):
        _check_stages(sample_system(inputs, field,
                                    HashStream("floor-draws", q, i)))
    # cone floor 0 and rank-defect floor 0 both stop on pure powers
    assert any(var >= 0 for var in stops)


@pytest.mark.parametrize("q,d", [(2, (2, 1)), (3, (2, 2)), (101, (2, 2))])
def test_floored_stages_match_full_at_floor_one(q, d, stops):
    # r=4, s=2: the rank-defect floor is 1, read off the leading
    # monomials by the independent-subset helper
    field = _field(q)
    inputs = BoundInputs(4, 2, q, d)
    at_floor = early = 0
    for i in range(20):
        system = sample_system(inputs, field, HashStream("floor-one", q, i))
        at_floor += _check_stages(system)
        del stops[:]
        clmod._rank_defect_dimension(system)
        early += any(var >= 0 for var in stops)
    assert at_floor
    assert early


def test_floor_one_stop_fires_on_a_line(stops):
    # V(x1*x2, x3) in A^4 is two planes meeting in a line: the
    # rank-defect locus V(x1, x2, x3) has dimension 1 = r-s-1, forced
    # by the third pure power among x3, x2, x1 (x1 is variable 0)
    field = field_make(7, 1)
    x = [Poly.variable(field, 4, i) for i in range(4)]
    system = PolySystem(field, 4, 2, (2, 1), (x[0] * x[1], x[2]))
    assert clmod._rank_defect_dimension(system) == 1
    assert stops == [0]


def _hook_cases():
    out = []
    for q, n, deg in [(2, 3, 2), (3, 3, 2), (101, 4, 2), (4, 3, 2)]:
        field = _field(q)
        stream = HashStream("hook", q, n)
        for _ in range(6):
            gens = [random_poly(field, n, deg, stream) for _ in range(3)]
            if all(not g.is_zero() for g in gens):
                out.append((field, n, gens))
    return out


def test_hook_fires_only_on_pure_powers():
    for field, n, gens in _hook_cases():
        pk = gbmod._packing(n, GREVLEX)
        seed = [pk.pack_terms(g.terms) for g in gens]
        calls = []

        def record(var):
            calls.append(var)
            return False

        full = gbmod._buchberger(seed, field, pk, record)
        # without a stop the run is the run without a callback
        plain = gbmod._buchberger(seed, field, pk)
        assert [r[0] for r in full] == [r[0] for r in plain]
        pure = []
        for rec in full:
            nonzero = [i for i, e in enumerate(pk.unpack(rec[1])) if e]
            if len(nonzero) <= 1:
                pure.append(nonzero[0] if nonzero else -1)
        assert calls == pure


def test_stop_returns_partial_basis_inside_the_ideal():
    stopped = 0
    for field, n, gens in _hook_cases():
        pk = gbmod._packing(n, GREVLEX)
        seed = [pk.pack_terms(g.terms) for g in gens]
        plain = gbmod._buchberger(seed, field, pk)
        partial = gbmod._buchberger(seed, field, pk,
                                    lambda var: True)
        # the stop fires at the first pure power, which ends the basis
        assert partial == plain[:len(partial)]
        assert pk.power_var(partial[-1][1]) is not None or \
            len(partial) == len(plain)
        stopped += len(partial) < len(plain)
        gb = groebner(gens)
        for terms, _, _ in partial:
            poly = Poly(field, n, pk.unpack_terms(terms))
            assert normal_form(poly, gb).is_zero()
    assert stopped


def test_unit_input_gives_unit_basis():
    field = field_make(5, 1)
    x = [Poly.variable(field, 3, i) for i in range(3)]
    one = Poly.constant(field, 3, field.one)
    unit = [one]
    # a unit record found only after several S-pairs
    mid = [x[0] * x[1] + one, x[1] * x[1] + x[2], x[0] * x[2] + x[1],
           x[0] + x[1] * x[2]]
    for gens in (unit, [x[0], x[0] + one], mid):
        ref = reference_groebner.groebner_terms(
            [g.terms for g in gens], field, GREVLEX.key)
        assert ref == [one.terms]
        gb = groebner(gens)
        assert gb.is_unit
        assert list(gb.gens) == [one]
