import math
from fractions import Fraction

import pytest

from defectus import (
    BoundInputs, BudgetExceeded, Poly, PolySystem, decimal_string, derive,
    enumerate_points, field_make, groebner, ideal_dimension,
    point_count_bound, sample_system,
)
from defectus.rng import HashStream


def test_derive_reference_values():
    rep = derive(BoundInputs(3, 2, 101, (2, 2)))
    assert (rep.delta, rep.sigma, rep.dimF, rep.n_minors) == (4, 2, 20, 6)
    assert rep.c1 == (12, 12)
    assert rep.c2 == (24, 24)
    assert rep.prob_B1 == Fraction(32768, 1030301)
    assert rep.prob_B2 == Fraction(4096, 10201)
    assert not rep.vacuous_B1 and not rep.vacuous_B2


def test_derive_symbolic_shape():
    # prob_B1 = (32/q)^3 and prob_B2 = (64/q)^2 at r=3, s=2, d=(2,2)
    for q in (7, 101, 997):
        rep = derive(BoundInputs(3, 2, q, (2, 2)))
        assert rep.prob_B1 == Fraction(32, q) ** 3
        assert rep.prob_B2 == Fraction(64, q) ** 2


def test_count_prob_identity():
    for q, d in ((101, (2, 2)), (7, (2, 3)), (3, (2, 2))):
        rep = derive(BoundInputs(3, 2, q, d))
        assert Fraction(rep.count_B1, q ** rep.dimF) == rep.prob_B1
        assert Fraction(rep.count_B2, q ** rep.dimF) == rep.prob_B2


def test_vacuous_flags_at_small_q():
    rep = derive(BoundInputs(3, 2, 2, (2, 2)))
    assert rep.vacuous_B1 and rep.vacuous_B2
    assert rep.prob_B1 >= 1 and rep.prob_B2 >= 1
    assert rep.nonvacuous_threshold_B1 == 32
    assert rep.nonvacuous_threshold_B2 == 64


def test_inapplicable_when_degree_one():
    rep = derive(BoundInputs(3, 2, 101, (2, 1)))
    assert not rep.applicable
    assert rep.count_B1 is None and rep.prob_B1 is None
    # structural fields still present
    assert rep.delta == 2 and rep.sigma == 1
    assert rep.dimF == math.comb(5, 3) + math.comb(4, 3)


def test_input_validation():
    with pytest.raises(ValueError):
        BoundInputs(3, 3, 7, (2, 2, 2))        # s = r
    with pytest.raises(ValueError):
        BoundInputs(3, 2, 6, (2, 2))           # q not a prime power
    with pytest.raises(ValueError):
        BoundInputs(3, 2, 7, (2, 0))           # cap below 1


def test_monomial_count_inequality():
    # C(d+r-1, r-1) >= r-s+2 whenever d >= 2, across the working range
    for r in range(3, 9):
        for s in range(2, r):
            for d in range(2, 6):
                assert math.comb(d + r - 1, r - 1) >= r - s + 2


def test_dimension_formula_matches_layout():
    from defectus.experiment import coefficient_layout
    for d in ((2, 2), (3, 1), (1, 1)):
        inputs = BoundInputs(3, 2, 7, d)
        rep = derive(inputs)
        assert rep.dimF == sum(len(m) for m in coefficient_layout(inputs))


def test_point_count_examples():
    assert point_count_bound(2, 1, 3) == 6
    assert point_count_bound(1, 0, 3) == 1
    assert point_count_bound(0, 5, 3) == 0
    with pytest.raises(ValueError):
        point_count_bound(-1, 1, 3)


def test_enumerate_points_example(f2):
    system = PolySystem(
        f2, 3, 2, (1, 1),
        (Poly.variable(f2, 3, 0), Poly.variable(f2, 3, 1)))
    pts = enumerate_points(system)
    assert sorted(pts) == [(0, 0, 0), (0, 0, 1)]


def test_enumerate_points_nonresidue(f3):
    # X1^2 + 1 has no zero in F_3 (-1 is a non-residue) but gains one in F_9
    system = PolySystem(
        f3, 3, 2, (2, 1),
        (Poly.from_int_terms(f3, 3, {(2, 0, 0): 1, (0, 0, 0): 1}),
         Poly.variable(f3, 3, 1)))
    assert enumerate_points(system, ext_degree=1) == []
    assert len(enumerate_points(system, ext_degree=2)) > 0


def test_enumerate_points_bound_example(f3):
    # V(X1*X2, X3) over F_3: the two coordinate axes in the plane X3=0
    system = PolySystem(
        f3, 3, 2, (2, 1),
        (Poly.from_int_terms(f3, 3, {(1, 1, 0): 1}),
         Poly.variable(f3, 3, 2)))
    pts = enumerate_points(system)
    assert len(pts) == 5
    dim = ideal_dimension(groebner(list(system.polys)))
    assert len(pts) <= point_count_bound(2, dim, 3)


def test_enumerate_points_all_zeros(f3):
    inputs = BoundInputs(3, 2, 3, (2, 1))
    for idx in range(10):
        system = sample_system(inputs, f3, HashStream("enum", idx))
        for pt in enumerate_points(system):
            assert all(f.evaluate(pt) == f3.zero for f in system.polys)


def test_enumeration_budget(f3):
    system = PolySystem(
        f3, 3, 2, (1, 1),
        (Poly.variable(f3, 3, 0), Poly.variable(f3, 3, 1)))
    with pytest.raises(BudgetExceeded):
        enumerate_points(system, ext_degree=1, budget=10)
    try:
        enumerate_points(system, ext_degree=13)
    except BudgetExceeded as exc:
        assert exc.required == 3 ** 39


def test_budget_env_override(monkeypatch):
    from defectus.bounds import enumeration_budget
    monkeypatch.setenv("DEFECTUS_BUDGET", "12345")
    assert enumeration_budget() == 12345
    monkeypatch.setenv("DEFECTUS_BUDGET", "zero")
    with pytest.raises(ValueError):
        enumeration_budget()
    monkeypatch.delenv("DEFECTUS_BUDGET")
    assert enumeration_budget() == 1 << 20


def test_decimal_string_values():
    assert decimal_string(Fraction(0)) == "0"
    assert decimal_string(Fraction(1, 2)) == "5.00000e-01"
    assert decimal_string(Fraction(32768, 1030301)) == "3.18043e-02"
    assert decimal_string(Fraction(4096, 10201)) == "4.01529e-01"
    assert decimal_string(Fraction(-1, 3)) == "-3.33333e-01"
    assert decimal_string(Fraction(999999999, 1)) == "1.00000e+09"  # rounds up


def test_decimal_string_against_decimal_module():
    from decimal import Decimal, getcontext
    getcontext().prec = 60
    cases = [Fraction(1, 7), Fraction(17 ** 80, 3), Fraction(3, 17 ** 80),
             Fraction(32768, 1030301), Fraction(12345, 7)]
    for fr in cases:
        # these magnitudes can overflow or flush to zero as IEEE doubles
        rendered = Decimal(decimal_string(fr))
        truth = Decimal(fr.numerator) / Decimal(fr.denominator)
        assert abs(rendered / truth - 1) < Decimal("1e-5")
