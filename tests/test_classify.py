import ast
import hashlib
import json
import pickle
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from defectus import (
    CERTIFIED_IRREDUCIBLE, CERTIFIED_REDUCIBLE, BoundInputs, Poly, PolySystem,
    colon_ideal, fiber_dimension, field_make, find_reducibility_witness,
    ideal_dimension, initial_form_criterion, is_regular_sequence,
    jacobian_minors, matrix_rank, normal_form, prime_power_decompose,
    projective_dimension, sample_system, system_from_census_index,
)
import defectus.classify as clmod
from defectus.classify import classify
from defectus.experiment import census_size
from defectus.groebner import _dimension_floor, groebner
from defectus.rng import HashStream

from conftest import random_poly
from randomized_checks import kollar_dimension_test, minor_combo_fiber_test


def _system(field, caps, int_term_maps, r=3):
    polys = tuple(Poly.from_int_terms(field, r, t) for t in int_term_maps)
    return PolySystem(field, r, len(caps), tuple(caps), polys)


def test_in_B0_examples(f7):
    empty_full = _system(f7, (2, 2),
                         [{(2, 0, 0): 1}, {(2, 0, 0): 1, (0, 0, 0): 1}])
    rep = classify(empty_full)
    assert rep.in_B0 and not rep.set_theoretic_ci
    # empty but degree-dropped: belongs to L_i, not B_0
    empty_dropped = _system(f7, (2, 2),
                            [{(1, 0, 0): 1}, {(1, 0, 0): 1, (0, 0, 0): 1}])
    rep = classify(empty_dropped)
    assert rep.in_L and not rep.in_B0 and not rep.set_theoretic_ci
    nonempty = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}])
    rep = classify(nonempty)
    assert not rep.in_B0 and rep.set_theoretic_ci


def test_set_theoretic_ci_without_regular_sequence(f7):
    # (x1*x2, x1*x3, x1 - 1) in A^4 cuts the line x1=1, x2=x3=0, of
    # dimension r-s = 1, but x1*x3 is a zero divisor modulo x1*x2
    system = _system(f7, (2, 2, 1),
                     [{(1, 1, 0, 0): 1}, {(1, 0, 1, 0): 1},
                      {(1, 0, 0, 0): 1, (0, 0, 0, 0): -1}], r=4)
    rep = classify(system)
    assert rep.set_theoretic_ci and not rep.in_B0
    assert not rep.regular_sequence
    assert rep.regular_sequence_failure_index == 2
    assert is_regular_sequence(system) == (False, 2)


def test_regular_sequence_examples(f7):
    coords = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}])
    assert is_regular_sequence(coords) == (True, None)
    repeated = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(1, 0, 0): 1}])
    assert is_regular_sequence(repeated) == (False, 2)
    # X2*(X1X3) lies in (X1X2) while X2 does not: a zero divisor at i=2
    zd = _system(f7, (2, 2), [{(1, 1, 0): 1}, {(1, 0, 1): 1}])
    assert is_regular_sequence(zd) == (False, 2)


def test_regular_sequence_zero_and_improper(f7):
    leading_zero = _system(f7, (1, 1), [{}, {(0, 1, 0): 1}])
    assert is_regular_sequence(leading_zero) == (False, 1)
    # the first prefix has dimension r-1, but the full ideal is (1)
    improper = _system(f7, (1, 1),
                       [{(1, 0, 0): 1}, {(1, 0, 0): 1, (0, 0, 0): 1}])
    assert is_regular_sequence(improper) == (False, 2)


def _colon_regular_sequence(system):
    # the staged colon-ideal test: stage i fails when F_i is zero, when
    # (F_1..F_{i-1} : F_i) grows, or when the prefix ideal becomes (1)
    gb = None
    for i, f in enumerate(system.polys, start=1):
        if f.is_zero():
            return False, i
        if i > 1 and colon_ideal(gb, f) != gb:
            return False, i
        gb = groebner(list(system.polys[:i]))
        if gb.is_unit:
            return False, i
    return True, None


def _regular_sequence_disagreements(systems):
    """Systems where a dimension-based answer differs from the colon test;
    also the Counter of reference answers, to show both outcomes occur."""
    bad, seen = [], Counter()
    for system in systems:
        want = _colon_regular_sequence(system)
        seen[want] += 1
        rep = classify(system)
        got = (is_regular_sequence(system),
               (rep.regular_sequence, rep.regular_sequence_failure_index))
        if any(answer != want for answer in got):
            bad.append((system.digest(), want, got))
    return bad, seen


def _rs_draws(q, r, d, count):
    p, k = prime_power_decompose(q)
    field = field_make(p, k)
    s = len(d)
    inputs = BoundInputs(r, s, q, d)
    return (sample_system(inputs, field, HashStream("rsproto", q, r, s, i))
            for i in range(count))


@pytest.mark.parametrize("q,d,count", [(2, (1, 1, 1), 600),
                                       (3, (2, 1, 1), 250)])
def test_regular_sequence_matches_colon_ideals(q, d, count):
    bad, seen = _regular_sequence_disagreements(_rs_draws(q, 4, d, count))
    assert not bad
    assert seen[(True, None)] and len(seen) > 1


@pytest.mark.slow
def test_regular_sequence_matches_colon_ideals_census_q2(f2):
    inputs = BoundInputs(3, 2, 2, (2, 1))
    systems = (system_from_census_index(inputs, f2, idx)
               for idx in range(census_size(inputs)))
    bad, seen = _regular_sequence_disagreements(systems)
    assert not bad
    assert sum(seen.values()) == 16384 and len(seen) == 3


@pytest.mark.slow
@pytest.mark.parametrize("q,r,d,count", [
    (2, 4, (1, 1, 1), 2000), (3, 4, (2, 1, 1), 400), (2, 4, (2, 2), 300),
    (4, 3, (2, 2), 200), (3, 5, (2, 2, 1), 150), (2, 5, (2, 1, 1, 1), 600),
])
def test_regular_sequence_matches_colon_ideals_at_scale(q, r, d, count):
    bad, _ = _regular_sequence_disagreements(_rs_draws(q, r, d, count))
    assert not bad


def test_initial_form_criterion_examples(f7):
    good = _system(f7, (2, 2),
                   [{(2, 0, 0): 1, (0, 1, 0): 1},
                    {(0, 0, 2): 1, (1, 0, 0): 1}])
    assert initial_form_criterion(good)
    bad = _system(f7, (2, 2),
                  [{(2, 0, 0): 1}, {(2, 0, 0): 1, (0, 0, 0): 1}])
    assert not initial_form_criterion(bad)
    dropped = _system(f7, (2, 2), [{(1, 0, 0): 1}, {(0, 1, 0): 1}])
    with pytest.raises(ValueError):
        initial_form_criterion(dropped)


def test_initial_form_criterion_implies_regular(f2):
    # exhaustive over the 256 linear systems at q=2
    inputs = BoundInputs(3, 2, 2, (1, 1))
    for idx in range(256):
        system = system_from_census_index(inputs, f2, idx)
        if not all(system.degree_full()):
            continue
        if initial_form_criterion(system):
            assert is_regular_sequence(system)[0]


def test_radical_examples(f7, f2):
    # every example is a regular sequence, so ideal_theoretic_ci is
    # exactly the radicality of its ideal
    def radical(system):
        rep = classify(system)
        assert rep.regular_sequence
        return rep.ideal_theoretic_ci

    smooth = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}])
    assert radical(smooth)
    fat = _system(f7, (2, 1), [{(2, 0, 0): 1}, {(0, 0, 1): 1}])
    assert not radical(fat)
    fat2 = _system(f2, (2, 1), [{(2, 0, 0): 1}, {(0, 0, 1): 1}])
    assert not radical(fat2)  # minors vanish formally in char 2
    squarefree = _system(f7, (2, 1), [{(1, 1, 0): 1}, {(0, 0, 1): 1}])
    assert radical(squarefree)


def test_radical_requires_regular_sequence(f7):
    # a smooth ideal (x1) that its repeated generator fails to cut as a
    # regular sequence is not an ideal-theoretic complete intersection
    repeated = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(1, 0, 0): 1}])
    rep = classify(repeated)
    assert (rep.regular_sequence, rep.regular_sequence_failure_index) == \
        (False, 2)
    assert not rep.ideal_theoretic_ci and rep.in_B1


def test_fiber_dimension_examples(f7):
    coords = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}])
    assert fiber_dimension(coords) == -1
    cross = _system(f7, (2, 1), [{(1, 1, 0): 1}, {(0, 0, 1): 1}])
    assert fiber_dimension(cross) == 0  # the single point (1:0:0:0)
    # hand computation in odd characteristic: fiber is the line X0=X1=0
    b0sys = _system(f7, (2, 2),
                    [{(2, 0, 0): 1}, {(2, 0, 0): 1, (0, 0, 0): 1}])
    assert fiber_dimension(b0sys) == 1


def test_fiber_dimension_zero_system(f7):
    zero = _system(f7, (1, 1), [{}, {}])
    assert fiber_dimension(zero) == 3  # all of P^r


def test_classify_canonical_examples(f7):
    line = classify(_system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}]))
    assert line.ideal_theoretic_ci and not line.in_B1
    assert line.irreducibility == CERTIFIED_IRREDUCIBLE
    assert not line.in_B2_lower and not line.in_B2_upper

    pair_of_lines = classify(
        _system(f7, (2, 1), [{(1, 1, 0): 1}, {(0, 0, 1): 1}]))
    assert pair_of_lines.ideal_theoretic_ci and not pair_of_lines.in_B1
    assert pair_of_lines.irreducibility == CERTIFIED_REDUCIBLE
    assert pair_of_lines.in_B2_lower and pair_of_lines.in_B2_upper

    b0sys = classify(_system(f7, (2, 2),
                             [{(2, 0, 0): 1}, {(2, 0, 0): 1, (0, 0, 0): 1}]))
    assert b0sys.in_B0 and not b0sys.regular_sequence
    assert b0sys.in_B1 and b0sys.in_B2_lower and b0sys.in_B2_upper


def test_report_invariants_random(f5):
    inputs = BoundInputs(3, 2, 5, (2, 2))
    for idx in range(60):
        system = sample_system(inputs, f5, HashStream("inv", idx))
        rep = classify(system)
        if rep.in_B1:
            assert rep.in_B2_lower
        if rep.in_B2_lower:
            assert rep.in_B2_upper
        if rep.ideal_theoretic_ci:
            assert rep.regular_sequence and not rep.in_B0
        if rep.irreducibility == CERTIFIED_IRREDUCIBLE:
            assert rep.ideal_theoretic_ci
        if rep.regular_sequence:
            # sufficiency chain: proper regular sequences cut dimension r-s
            gb = groebner(list(system.polys))
            assert ideal_dimension(gb) == system.r - system.s
        assert rep.in_piW_rs == (rep.fiber_dim >= 1)
        assert rep.in_piW_rs1 == (rep.fiber_dim >= 0)


def test_linear_ground_truth_exhaustive(f2):
    # caps all 1: ITCI holds exactly when the linear-part matrix has rank s
    inputs = BoundInputs(3, 2, 2, (1, 1))
    for idx in range(256):
        system = system_from_census_index(inputs, f2, idx)
        rows = []
        for poly in system.polys:
            row = []
            for var in range(3):
                mono = tuple(1 if t == var else 0 for t in range(3))
                row.append(poly.terms.get(mono, f2.zero))
            rows.append(row)
        rank_full = matrix_rank(rows, f2) == 2
        assert classify(system).ideal_theoretic_ci == rank_full


def test_witness_finds_split(f7):
    system = _system(f7, (2, 1), [{(1, 1, 0): 1}, {(0, 0, 1): 1}])
    hit = find_reducibility_witness(system)
    assert hit is not None
    i, g, h = hit
    assert i == 1
    assert g * h == system.polys[0]


def test_witness_budget_skips(f101):
    system = PolySystem(
        f101, 3, 2, (2, 1),
        (Poly.from_int_terms(f101, 3, {(1, 1, 0): 1}),
         Poly.variable(f101, 3, 2)))
    # 101^4 degree-1 candidates exceed DEFAULT_WITNESS_BUDGET: no witness
    assert find_reducibility_witness(system) is None


def test_witness_certificate_semantics(f3):
    # whenever a witness is reported on an ITCI system, its parts must
    # multiply back to the generator and both survive reduction
    inputs = BoundInputs(3, 2, 3, (2, 2))
    found = 0
    for idx in range(120):
        system = sample_system(inputs, f3, HashStream("witness", idx))
        rep = classify(system)
        if not rep.ideal_theoretic_ci:
            continue
        hit = find_reducibility_witness(system)
        if hit is None:
            continue
        found += 1
        i, g, h = hit
        gb = groebner(list(system.polys))
        assert g * h == system.polys[i - 1]
        assert not normal_form(g, gb).is_zero()
        assert not normal_form(h, gb).is_zero()
        assert g.degree() >= 1 and h.degree() >= 1
    assert found >= 1  # the sample does contain certified splits


def test_kollar_examples(f7):
    x = [Poly.variable(f7, 4, i) for i in range(4)]
    line = [x[0], x[1]]  # P^1 inside P^3
    for seed in range(5):
        assert kollar_dimension_test(line, 1, seed)
    empty = x  # irrelevant ideal
    for seed in range(5):
        assert not kollar_dimension_test(empty, 1, seed)
        assert not kollar_dimension_test(empty, 2, seed)
    with pytest.raises(ValueError):
        kollar_dimension_test(line, 0)


def test_kollar_agreement_random(f101):
    stream = HashStream("kollar-agree")
    hits = 0
    total = 25
    for idx in range(total):
        gens = [random_poly(f101, 4, 2, stream, homogeneous=True)
                for _ in range(2)]
        if all(g.is_zero() for g in gens):
            gens = [Poly.variable(f101, 4, 0), Poly.variable(f101, 4, 1)]
        exact = projective_dimension(groebner(gens))
        got = kollar_dimension_test(gens, 1, seed=idx)
        if exact >= 1:
            assert got  # forced direction never fails
        if got == (exact >= 1):
            hits += 1
    assert hits >= total - 1


def test_minor_combo_one_sided(f101):
    inputs = BoundInputs(3, 2, 101, (2, 2))
    for idx in range(8):
        system = sample_system(inputs, f101, HashStream("combo", idx))
        exact = fiber_dimension(system)
        for count in (1, 2):
            got = minor_combo_fiber_test(system, count, seed=idx)
            assert got >= exact
    with pytest.raises(ValueError):
        minor_combo_fiber_test(system, 3)


def test_package_stays_exact():
    # the randomized checks and their field lift live in tests/ only,
    # and classify draws no random numbers
    package = Path(__file__).parent.parent / "src" / "defectus"
    moved = {"kollar_dimension_test", "minor_combo_fiber_test",
             "ensure_min_size", "MIN_RANDOMIZED_FIELD", "canonical_digest"}
    for path in sorted(package.glob("*.py")):
        defined = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                defined.add(node.id)
        assert not defined & moved, (path.name, defined & moved)
    tree = ast.parse((package / "classify.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").rsplit(".", 1)[-1] != "rng"
            assert all(alias.name != "rng" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all(alias.name.rsplit(".", 1)[-1] != "rng"
                       for alias in node.names)


def test_classify_json_fields(f7):
    rep = classify(_system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}]))
    blob = rep.to_json_dict()
    expected_keys = {
        "degree_full", "in_L", "in_B0", "regular_sequence",
        "regular_sequence_failure_index", "set_theoretic_ci",
        "ideal_theoretic_ci", "fiber_dim", "in_piW_rs", "in_piW_rs1",
        "irreducibility", "in_B1", "in_B2_lower", "in_B2_upper",
    }
    assert set(blob) == expected_keys


@pytest.mark.parametrize("q,r,d", [
    (101, 3, (2, 2)), (4, 3, (2, 2)), (3, 3, (2, 1)), (9, 3, (2, 2)),
    (2, 3, (2, 1)), (101, 4, (2, 2)), (3, 4, (2, 1, 1)),
])
def test_dehomogenized_minors_are_the_affine_minors(q, r, d):
    # the homogenized minors whose columns exclude X_0 (the last
    # index), at X_0 = 1, equal the affine minors term for term and in
    # column order; degree drops included
    field = field_make(*prime_power_decompose(q))
    inputs = BoundInputs(r, len(d), q, d)
    s = len(d)
    systems = []
    for i in range(20):
        system = sample_system(inputs, field, HashStream("dehom", q, r, i))
        # the same draw with the top form of F_1 removed: a degree drop
        f1 = system.polys[0]
        dropped = (f1 - f1.initial_form(d[0]),) + system.polys[1:]
        systems += [system, PolySystem(field, r, s, d, dropped)]
    for system in systems:
        homog = jacobian_minors(system.homogenized())
        got = [m.dehomogenize()
               for m, cols in zip(homog, combinations(range(r + 1), s))
               if r not in cols]
        want = jacobian_minors(list(system.polys))
        assert [g.sorted_terms() for g in got] == \
            [w.sorted_terms() for w in want]


def test_classify_builds_one_jacobian_per_system(monkeypatch, f2):
    calls = []
    minors = clmod.jacobian_minors

    def counted(polys):
        calls.append(len(polys))
        return minors(polys)

    monkeypatch.setattr(clmod, "jacobian_minors", counted)
    inputs = BoundInputs(3, 2, 2, (2, 1))
    systems = [system_from_census_index(inputs, f2, i)
               for i in range(0, 16384, 97)]
    regular = 0
    for n, system in enumerate(systems, start=1):
        regular += clmod.classify(system).regular_sequence
        assert len(calls) == n
    assert regular  # the rank-defect read decides itci on these


def test_classify_makes_one_fiber_run_per_system(monkeypatch, f2, f101):
    # s floored prefix runs and one floored fiber run, which also yields
    # the rank-defect dimension: no stage runs Buchberger of its own.
    # The fiber run is skipped when the fiber ideal fills its degree
    import defectus.groebner as gbmod

    runs, filled = [], []
    engine, fills = gbmod._buchberger, clmod.fills_degree

    def counted(seed, field, pk, stop=None):
        if stop is not None:
            runs.append(stop)
        return engine(seed, field, pk, stop)

    def watched(forms, field):
        filled.append(fills(forms, field))
        return filled[-1]

    monkeypatch.setattr(gbmod, "_buchberger", counted)
    monkeypatch.setattr(clmod, "fills_degree", watched)
    seen = Counter()

    def check(system):
        del runs[:], filled[:]
        clmod.classify(system)
        assert len(filled) == 1
        assert len(runs) == system.s + (not filled[0])
        seen[filled[0]] += 1

    draws = BoundInputs(3, 2, 101, (2, 2))
    for i in range(50):
        check(sample_system(draws, f101, HashStream("sample", 42, i)))
    census = BoundInputs(3, 2, 2, (2, 1))
    for i in range(0, 16384, 97):
        check(system_from_census_index(census, f2, i))
    assert seen[True] and seen[False]


@pytest.mark.parametrize("q,d,called", [
    (101, (3, 2), False), (4, (2, 2), False), (101, (2, 2), True)])
def test_fiber_rank_test_is_gated(monkeypatch, q, d, called):
    # a cubic generator of J (d_1 = 3), or an extension field: the
    # fiber run decides alone
    calls = []
    monkeypatch.setattr(clmod, "fills_degree",
                        lambda forms, field: calls.append(field))
    field = field_make(*prime_power_decompose(q))
    inputs = BoundInputs(3, 2, q, d)
    for i in range(6):
        clmod.classify(sample_system(inputs, field,
                                     HashStream("gated", q, i)))
    assert len(calls) == (6 if called else 0)


def test_rank_defect_read_below_the_fiber(f2):
    # q=2, r=3, d=(2,2), census index 2134: F_1 = x_3 under cap 2 and
    # F_2 = x_1x_3 + x_3^2 + x_2 + x_3.  The fiber set is a curve that
    # lies in X_0 = 0, so the rank-defect locus is empty and the ideal
    # is radical
    system = system_from_census_index(BoundInputs(3, 2, 2, (2, 2)), f2, 2134)
    x = [Poly.variable(f2, 3, i) for i in range(3)]
    assert system.polys == (x[2], x[0] * x[2] + x[2] * x[2] + x[1] + x[2])
    assert clmod._fiber_dims(system) == (1, -1)
    rep = classify(system)
    assert rep.fiber_dim == 1 and rep.ideal_theoretic_ci


def _affine_route_itci(system, rep):
    # the affine route: a floored run on (F, affine Jacobian minors)
    r, s = system.r, system.s
    polys = list(system.polys)
    return rep.regular_sequence and _dimension_floor(
        polys + jacobian_minors(polys), r - s - 1, system.field,
        r) <= r - s - 1


@pytest.mark.parametrize("q,r,d", [
    (3, 3, (2, 2)), (4, 3, (2, 2)), (101, 3, (2, 2)),
    (3, 4, (2, 2)), (4, 4, (2, 1)), (101, 4, (2, 2, 1)),
])
def test_gated_itci_matches_the_rank_defect_stage(q, r, d):
    field = field_make(*prime_power_decompose(q))
    s = len(d)
    inputs = BoundInputs(r, s, q, d)
    decided = Counter()
    for i in range(40):
        system = sample_system(inputs, field, HashStream("gate", q, r, i))
        if i % 2:
            # F_1 a product of two drawn linear forms, a square on every
            # other one: uniform draws almost never reach fiber_dim r-s
            g, h = sample_system(BoundInputs(r, 2, q, (1, 1)), field,
                                 HashStream("gate-planted", q, r, i)).polys
            f1 = g * (g if i % 4 == 1 else h)
            system = PolySystem(field, r, s, d, (f1,) + system.polys[1:])
        rep = classify(system)
        assert rep.ideal_theoretic_ci == _affine_route_itci(system, rep)
        if rep.regular_sequence and rep.fiber_dim >= r - s:
            decided[rep.ideal_theoretic_ci] += 1
    assert decided[False]  # a large fiber over a non-radical ideal


@pytest.mark.slow
def test_itci_matches_the_affine_minors_run_on_census(f2):
    # q=2, d=(2,2): 2**20 systems; stride 19 keeps the run near a minute
    inputs = BoundInputs(3, 2, 2, (2, 2))
    itci = 0
    for idx in range(0, census_size(inputs), 19):
        system = system_from_census_index(inputs, f2, idx)
        rep = classify(system)
        assert rep.ideal_theoretic_ci == _affine_route_itci(system, rep)
        itci += rep.ideal_theoretic_ci
    assert itci


def test_witness_candidates_at_the_budget_edge():
    # 8^4 = 4096 maps is not over the budget; of them, the monic ones of
    # exact degree 1 lead with 1 on x_1, x_2 or x_3: 8^3 + 8^2 + 8
    assert clmod.DEFAULT_WITNESS_BUDGET == 4096
    assert len(clmod._witness_candidates(8, 3, 1)) == 584
    assert clmod._witness_candidates(9, 3, 1) == ()


def test_classify_homogenizes_once_per_system(monkeypatch, f2):
    calls = []
    homogenize = Poly.homogenize

    def counted(self, cap):
        calls.append(cap)
        return homogenize(self, cap)

    monkeypatch.setattr(Poly, "homogenize", counted)
    inputs = BoundInputs(3, 2, 2, (2, 1))
    systems = [system_from_census_index(inputs, f2, i)
               for i in range(0, 16384, 97)]
    regular = 0
    for n, system in enumerate(systems, start=1):
        regular += clmod.classify(system).regular_sequence
        assert len(calls) == n * system.s
    assert regular  # the rank-defect read decides itci on these


def test_report_pickles_unchanged(f7):
    # census workers ship their rows back pickled; slots keep each small
    rep = classify(_system(f7, (2, 1), [{(1, 1, 0): 1}, {(0, 0, 1): 1}]))
    assert not hasattr(rep, "__dict__")
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep
    assert back.to_json_dict() == rep.to_json_dict()


def _reference_witness(system, gb):
    # the enumeration on exponent tuples, with the reference division
    from defectus.classify import DEFAULT_WITNESS_BUDGET
    from defectus.polynomials import monomials_upto
    from reference_groebner import exact_divide, grevlex_key
    field, r = system.field, system.r
    for i, f in enumerate(system.polys, start=1):
        if f.is_zero() or f.degree() < 2:
            continue
        for gdeg in range(1, int(f.degree())):
            mons = monomials_upto(r, gdeg)
            count = field.q ** len(mons)
            if count > DEFAULT_WITNESS_BUDGET:
                continue
            for idx in range(count):
                terms, rest = {}, idx
                for m in mons:
                    rest, digit = divmod(rest, field.q)
                    if digit:
                        terms[m] = field.element_from_index(digit)
                cand = Poly(field, r, terms)
                if cand.degree() != gdeg \
                        or cand.leading_coefficient() != field.one:
                    continue
                try:
                    quot = exact_divide(f.terms, terms, field, grevlex_key)
                except ArithmeticError:
                    continue
                other = Poly(field, r, quot)
                if normal_form(cand, gb).is_zero() \
                        or normal_form(other, gb).is_zero():
                    continue
                return i, cand, other
    return None


def _witness_draw(field, idx, planted, d):
    inputs = BoundInputs(3, 2, field.q, d)
    system = sample_system(inputs, field, HashStream("witness-ref", idx))
    if not planted:
        return system
    # F_1 becomes a product of a drawn linear form and a drawn form of
    # degree d_1 - 1: a uniform F_1 factors too rarely for 40 draws to
    # show one
    g, h = sample_system(BoundInputs(3, 2, field.q, (1, d[0] - 1)), field,
                         HashStream("witness-planted", idx)).polys
    return PolySystem(field, 3, 2, d, (g * h, system.polys[1]))


# seed 1 gives F_8 its other modulus: the candidates, cached per order,
# serve every field of that order; at q=2, d=(3,2) the cubic meets
# candidates of degree 1 and 2
@pytest.mark.parametrize("p,k,seed,planted,d", [
    (3, 1, 0, False, (2, 2)), (2, 2, 0, False, (2, 2)),
    (2, 1, 0, False, (2, 2)), (2, 3, 0, True, (2, 2)),
    (2, 3, 1, True, (2, 2)), (2, 1, 0, False, (3, 2)),
    (2, 1, 0, True, (3, 2)),
], ids=["3-1", "2-2", "2-1", "2-3", "2-3-seed1", "2-1-d32",
        "2-1-d32-planted"])
def test_witness_matches_reference_enumeration(p, k, seed, planted, d):
    # the packed search returns the reference's first (i, G, H)
    field = field_make(p, k, seed)
    if seed:
        assert field.modulus != field_make(p, k).modulus
    hits = 0
    for idx in range(40):
        system = _witness_draw(field, idx, planted, d)
        hit = find_reducibility_witness(system)
        assert hit == _reference_witness(system, groebner(list(system.polys)))
        hits += hit is not None
    assert hits


def _reports_digest(systems):
    h = hashlib.sha256()
    for system in systems:
        blob = json.dumps(classify(system).to_json_dict(), sort_keys=True)
        h.update(blob.encode())
    return h.hexdigest()


@pytest.mark.parametrize("q,r,d,expected", [
    (101, 3, (2, 2),
     "ed117acdc5ac109961e55aa6dfcec3ac886bccda2dafe5092e2a1f8ff1c9a6d1"),
    (4, 3, (2, 2),
     "3eab3328c3d302181a31bb72dd279ea7b4cfe39d491497d549722138b9625982"),
    (3, 4, (2, 1, 1),
     "f6ee6c7203b7fa80eb191e724bc969455a3d2cadff5c6e0896d20c1ce354b7ba"),
    (8, 3, (2, 2),
     "b7b8b8eb3f98490e3b38a8e07f621fdfc6d16020722056b6a1ee604f30f63988"),
    (9, 3, (2, 2),
     "c7344c1f7f5f61fe7dcf81127b0b9d6f2160f313e0f3c9dfbb1654d918d4cf57"),
])
def test_reports_are_pinned_on_draws(q, r, d, expected):
    # every report field of 100 seeded draws; any change to a decision
    # path that alters one flag of one system changes the digest
    field = field_make(*prime_power_decompose(q))
    inputs = BoundInputs(r, len(d), q, d)
    assert _reports_digest(
        sample_system(inputs, field, HashStream("pin-reports", q, r, i))
        for i in range(100)) == expected


def test_reports_are_pinned_on_census(f2):
    # an odd stride: a stride of 2**k would fix F_2's low coefficients
    inputs = BoundInputs(3, 2, 2, (2, 1))
    assert _reports_digest(
        system_from_census_index(inputs, f2, i)
        for i in range(0, 16384, 13)) == (
        "13165b59c14fd684fa83e2be911c5deb978626cd62370d4497b2471c7a6de7eb")
