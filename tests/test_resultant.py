import ast
import math
from collections import Counter
from pathlib import Path

import pytest

from defectus import (
    BoundInputs, Poly, PolySystem, field_make, jacobian_minors, matrix_rank,
    prime_power_decompose, projective_dimension, resultant_vanishes,
    sample_system, system_from_census_index,
)
import defectus.classify as clmod
import defectus.resultant as resmod
from defectus.experiment import census_size
from defectus.groebner import _dimension_floor, groebner
from defectus.polynomials import monomials_exact
from defectus.resultant import fills_degree
from defectus.rng import HashStream

from conftest import random_poly
from reference_resultant import (
    dense_rank, dense_vanishes, determinant, macaulay_build, resultant_value,
)


def _coordinate_powers(field, r, degrees):
    return [
        Poly.from_int_terms(
            field, r, {tuple(degrees[i] if j == i else 0
                             for j in range(r)): 1})
        for i in range(r)
    ]


def test_monomial_system_normalizes_to_one(f101):
    for degrees in ((1, 1, 1), (2, 2, 2), (2, 3, 1), (3, 3, 3)):
        polys = _coordinate_powers(f101, 3, degrees)
        assert resultant_value(polys, degrees) == f101.one


def test_linear_resultant_is_determinant(f101):
    stream = HashStream("linear-res")
    for _ in range(20):
        a, b, c, d = (stream.randint(101) for _ in range(4))
        F = Poly.from_int_terms(f101, 2, {(1, 0): a, (0, 1): b})
        G = Poly.from_int_terms(f101, 2, {(1, 0): c, (0, 1): d})
        expected = (a * d - b * c) % 101
        got = resultant_value([F, G], (1, 1))
        if got is None:
            # degenerate Macaulay minor; vanishing still decidable
            assert resultant_vanishes([F, G], (1, 1)) == (expected == 0)
        else:
            assert got == expected


def test_matrix_shape_invariant(f101):
    degrees = (2, 3, 2)
    polys = _coordinate_powers(f101, 3, degrees)
    mm = macaulay_build(polys, degrees)
    crit = sum(d - 1 for d in degrees) + 1
    assert mm.critical_degree == crit
    expected_cols = math.comb(crit + 3 - 1, 3 - 1)
    assert len(mm.monomials) == expected_cols
    assert len(mm.numerator) == expected_cols
    assert all(len(row) == expected_cols for row in mm.numerator)


def test_build_validation(f101):
    polys = _coordinate_powers(f101, 3, (2, 2, 2))
    with pytest.raises(ValueError):
        macaulay_build(polys, (2, 2))           # wrong arity
    with pytest.raises(ValueError):
        macaulay_build(polys, (2, 2, 3))        # degree mismatch
    x1 = Poly.variable(f101, 3, 0)
    one = Poly.constant(f101, 3, 1)
    with pytest.raises(ValueError):
        macaulay_build([x1 + one, x1, x1], (1, 1, 1))  # inhomogeneous


def test_simple_vanishing_cases(f101):
    x = [Poly.variable(f101, 2, i) for i in range(2)]
    assert not resultant_vanishes(x, (1, 1))
    y = [Poly.variable(f101, 3, i) for i in range(3)]
    sys_products = [y[0] * y[1], y[0] * y[2], y[1] * y[2]]
    # X1 = X2 = 0 kills all three products: common zero (0:0:1)
    assert resultant_vanishes(sys_products, (2, 2, 2))


def test_zero_form_always_vanishes(f101):
    y = [Poly.variable(f101, 3, i) for i in range(3)]
    system = [Poly.zero(f101, 3), y[1], y[2]]
    assert resultant_vanishes(system, (1, 1, 1))


def test_scaling_law(f101):
    # scaling F_i by lam multiplies Res by lam^(delta/d_i)
    stream = HashStream("scaling")
    degrees = (2, 1, 2)
    delta = math.prod(degrees)
    done = 0
    while done < 25:
        polys = [random_poly(f101, 3, d, stream, homogeneous=True)
                 for d in degrees]
        base = resultant_value(polys, degrees)
        if base is None or base == f101.zero:
            continue
        i = stream.randint(3)
        lam = f101.element_from_index(1 + stream.randint(100))
        scaled = list(polys)
        scaled[i] = scaled[i].scale(lam)
        got = resultant_value(scaled, degrees)
        if got is None:
            continue
        assert got == f101.mul(base, f101.pow(lam, delta // degrees[i]))
        done += 1


def test_groebner_cross_oracle(f101):
    stream = HashStream("cross-oracle-small")
    agree = 0
    for idx in range(60):
        degrees = tuple(1 + stream.randint(3) for _ in range(3))
        polys = [random_poly(f101, 3, d, stream, homogeneous=True)
                 for d in degrees]
        vanishes = resultant_vanishes(polys, degrees)
        exact_empty = projective_dimension(groebner(
            [p for p in polys if not p.is_zero()] or [Poly.zero(f101, 3)],
            field=f101, nvars=3)) < 0
        assert vanishes == (not exact_empty)
        agree += 1
    assert agree == 60


def test_determinant_and_rank_helpers(f7):
    rows = [[1, 2, 0], [0, 1, 4], [3, 0, 1]]
    # cofactor expansion oracle: 1*(1-0) - 2*(0-12) + 0 = 25 = 4 mod 7
    assert determinant(rows, f7) == 25 % 7
    assert matrix_rank(rows, f7) == 3
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert determinant(singular, f7) == 0
    assert matrix_rank(singular, f7) == 2
    assert determinant([], f7) == f7.one  # empty product convention


# -- differential test: the rank test against Groebner emptiness ----------

_DIFF_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (101, 1))
_DIFF_MAX_DEGREE = {2: 3, 3: 3, 4: 2}


def _diff_form(field, mons, stream):
    """A zero (1 in 20), dense (5 in 20) or sparse form on the monomials
    ``mons``; the sparse ones have one to three of them."""
    r = len(mons[0])
    style = stream.randint(20)
    if style == 0:
        return Poly.zero(field, r)
    picks = mons if style < 6 else {
        mons[stream.randint(len(mons))]
        for _ in range(1 + stream.randint(3))}
    return Poly(field, r, {m: field.element_from_index(stream.randint(field.q))
                           for m in picks})


def test_rank_test_matches_groebner_emptiness():
    fields = [field_make(p, k) for p, k in _DIFF_FIELDS]
    mons = {(r, d): monomials_exact(r, d)
            for r, top in _DIFF_MAX_DEGREE.items() for d in range(1, top + 1)}
    degenerate = 0
    for idx in range(700):
        stream = HashStream("resultant-differential", idx)
        field = fields[idx % len(fields)]
        r = 2 + (idx // len(fields)) % 3
        degrees = tuple(1 + stream.randint(_DIFF_MAX_DEGREE[r])
                        for _ in range(r))
        polys = [_diff_form(field, mons[r, d], stream) for d in degrees]
        # the fiber stage's Groebner route: the affine cone has positive
        # dimension iff the projective zero set is nonempty
        nonempty = _dimension_floor(polys, 0, field, r) > 0
        assert resultant_vanishes(polys, degrees) == nonempty, idx
        den = macaulay_build(polys, degrees).denominator
        degenerate += determinant(den, field) == field.zero
    # the quotient formula would not apply to these: the rank test must
    # decide them on its own
    assert degenerate >= 200


# -- differential test: the incremental reducer against dense elimination

_REDUCER_FIELDS = ((2, 1), (3, 1), (2, 2), (3, 2), (101, 1))


def _combination(field, rows, stream):
    """a * (one row) + b * (another), a and b drawn."""
    a, b = (field.element_from_index(stream.randint(field.q))
            for _ in range(2))
    u, v = (rows[stream.randint(len(rows))] for _ in range(2))
    return [field.add(field.mul(a, x), field.mul(b, y))
            for x, y in zip(u, v)]


def test_matrix_rank_matches_dense_elimination():
    fields = [field_make(p, k) for p, k in _REDUCER_FIELDS]
    short = Counter()
    for idx in range(500):
        stream = HashStream("rank-differential", idx)
        field = fields[idx % len(fields)]
        nrows, ncols = 1 + stream.randint(7), 1 + stream.randint(7)
        rows = [[field.element_from_index(stream.randint(field.q))
                 for _ in range(ncols)]]
        # about half the rows after the first are planted dependent
        for _ in range(nrows - 1):
            rows.append(_combination(field, rows, stream) if stream.randint(2)
                        else [field.element_from_index(stream.randint(field.q))
                              for _ in range(ncols)])
        rank = matrix_rank(rows, field)
        assert rank == dense_rank(rows, field), idx
        short[field.q] += rank < min(nrows, ncols)
    assert all(short[p ** k] >= 20 for p, k in _REDUCER_FIELDS)


def test_resultant_vanishes_matches_dense_elimination():
    fields = [field_make(p, k) for p, k in _REDUCER_FIELDS]
    mons = {(r, d): monomials_exact(r, d)
            for r in (2, 3) for d in range(4)}
    vanished = Counter()
    for idx in range(300):
        stream = HashStream("vanishes-differential", idx)
        field = fields[idx % len(fields)]
        r = 2 + (idx // len(fields)) % 2
        degrees = sorted(1 + stream.randint(3 if r == 2 else 2)
                         for _ in range(r))
        polys = [_diff_form(field, mons[r, d], stream) for d in degrees]
        if stream.randint(2):
            # F_r = g * F_1 adds no equation: the first r - 1 forms share
            # a projective zero, so the resultant vanishes
            g = _diff_form(field, mons[r, degrees[-1] - degrees[0]], stream)
            polys[-1] = g * polys[0]
        vanishes = resultant_vanishes(polys, degrees)
        assert vanishes == dense_vanishes(polys, degrees), idx
        vanished[field.q, vanishes] += 1
    assert all(vanished[p ** k, v] for p, k in _REDUCER_FIELDS
               for v in (False, True))


# -- the fiber rank test -------------------------------------------------

def test_fills_degree_examples(f2, f101):
    for field in (f2, f101, field_make(2, 2)):
        x = [Poly.variable(field, 3, i) for i in range(3)]
        # no common zero: S_4 has no monomial with every exponent <= 1
        assert fills_degree([v * v for v in x], field)
        # X_1 = X_2 = 0 kills all three products: common zero (0:0:1)
        assert not fills_degree(
            [x[0] * x[1], x[0] * x[2], x[1] * x[2]], field)
        # mixed degrees, D = 2: the linear forms' multiples and X_3^2
        assert fills_degree([x[0], x[1], x[2] * x[2]], field)
        assert not fills_degree([x[0], x[1], x[1] * x[2]], field)
        with pytest.raises(ValueError):
            fills_degree([x[0] + x[1] * x[1], x[1], x[2]], field)


def test_fills_degree_needs_as_many_forms_as_variables(monkeypatch, f101):
    # fewer nonzero forms than variables share a projective zero; the
    # degree search would never end on them
    def no_search(nvars, degs):
        raise AssertionError("degree search")

    monkeypatch.setattr(resmod, "_least_degree", no_search)
    x = [Poly.variable(f101, 3, i) for i in range(3)]
    zero = Poly.zero(f101, 3)
    assert not fills_degree([x[0] * x[0]], f101)
    assert not fills_degree([zero] * 5, f101)
    assert not fills_degree([x[0] * x[0], zero, zero, x[1] * x[1]], f101)
    assert not fills_degree([], f101)


def _fiber_ideal(system):
    homog = system.homogenized()
    return homog + jacobian_minors(homog)


def test_fill_means_the_floored_run_reads_empty(monkeypatch):
    # wherever the test fills, classify's floored run on the same fiber
    # ideal reads (-1, -1); odd draws plant F_1 = g*h, whose fiber holds
    # V(g, h, F_2) and is never empty
    monkeypatch.setattr(clmod, "fills_degree", lambda forms, field: False)
    filled = Counter()
    for q in (2, 3, 5, 101, 4, 8, 9):
        field = field_make(*prime_power_decompose(q))
        for r, d in ((3, (2, 2)), (4, (2, 2)), (4, (2, 1))):
            inputs = BoundInputs(r, len(d), q, d)
            for i in range(12):
                system = sample_system(inputs, field,
                                       HashStream("fill", q, r, *d, i))
                if i % 2:
                    g, h = sample_system(
                        BoundInputs(r, 2, q, (1, 1)), field,
                        HashStream("fill-planted", q, r, *d, i)).polys
                    system = PolySystem(field, r, len(d), d,
                                        (g * h,) + system.polys[1:])
                hit = fills_degree(_fiber_ideal(system), field)
                if hit:
                    assert clmod._fiber_dims(system) == (-1, -1), \
                        (q, r, d, i)
                filled[q, r, d, hit] += 1
    cases = {key[:3] for key in filled}
    assert all(filled[case + (False,)] for case in cases)
    # in characteristic 2, r=4, d=(2,2) did not fill at its least degree
    # on any draw: there the quadrics' Euler sums vanish
    assert all(filled[case + (True,)] for case in cases
               if case[0] % 2 or case[1:] != (4, (2, 2)))


@pytest.mark.slow
def test_fill_means_the_floored_run_reads_empty_on_census(monkeypatch, f2):
    # the whole q=2, d=(2,1) census; here the test also fills on every
    # system whose fiber is empty
    monkeypatch.setattr(clmod, "fills_degree", lambda forms, field: False)
    inputs = BoundInputs(3, 2, 2, (2, 1))
    filled = [0, 0]
    for idx in range(census_size(inputs)):
        system = system_from_census_index(inputs, f2, idx)
        hit = fills_degree(_fiber_ideal(system), f2)
        assert hit == (clmod._fiber_dims(system) == (-1, -1)), idx
        filled[hit] += 1
    assert all(filled)


def test_resultant_module_is_independent_of_groebner():
    path = Path(__file__).parent.parent / "src" / "defectus" / "resultant.py"
    banned = {"groebner", "rng", "ensure_min_size", "MIN_RANDOMIZED_FIELD",
              "extension_of", "embed_poly"}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {(node.module or "").rsplit(".", 1)[-1]}
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        else:
            continue
        assert not names & banned, names & banned
