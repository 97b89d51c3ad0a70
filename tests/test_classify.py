import pickle
from collections import Counter

import pytest

from defectus import (
    CERTIFIED_IRREDUCIBLE, CERTIFIED_REDUCIBLE, BoundInputs, Poly,
    PolySystem, classify, colon_ideal, fiber_dimension, field_make,
    find_reducibility_witness, groebner, ideal_dimension, in_B0,
    initial_form_criterion, is_radical_ci, is_regular_sequence,
    kollar_dimension_test, matrix_rank, minor_combo_fiber_test,
    normal_form, prime_power_decompose, projective_dimension, sample_system,
    system_from_census_index,
)
from defectus.experiment import census_size
from defectus.rng import HashStream

from conftest import random_poly


def _system(field, caps, int_term_maps, r=3):
    polys = tuple(Poly.from_int_terms(field, r, t) for t in int_term_maps)
    return PolySystem(field, r, len(caps), tuple(caps), polys)


def test_in_B0_examples(f7):
    empty_full = _system(f7, (2, 2),
                         [{(2, 0, 0): 1}, {(2, 0, 0): 1, (0, 0, 0): 1}])
    assert in_B0(empty_full)
    # empty but degree-dropped: belongs to L_i, not B_0
    empty_dropped = _system(f7, (2, 2),
                            [{(1, 0, 0): 1}, {(1, 0, 0): 1, (0, 0, 0): 1}])
    assert not in_B0(empty_dropped)
    nonempty = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}])
    assert not in_B0(nonempty)


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
        gb = groebner(list(system.polys), field=system.field, nvars=system.r)
        got = (is_regular_sequence(system),
               is_regular_sequence(system, gb),
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
    smooth = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(0, 1, 0): 1}])
    assert is_radical_ci(smooth)
    fat = _system(f7, (2, 1), [{(2, 0, 0): 1}, {(0, 0, 1): 1}])
    assert not is_radical_ci(fat)
    fat2 = _system(f2, (2, 1), [{(2, 0, 0): 1}, {(0, 0, 1): 1}])
    assert not is_radical_ci(fat2)  # minors vanish formally in char 2
    squarefree = _system(f7, (2, 1), [{(1, 1, 0): 1}, {(0, 0, 1): 1}])
    assert is_radical_ci(squarefree)


def test_radical_requires_regular_sequence(f7):
    repeated = _system(f7, (1, 1), [{(1, 0, 0): 1}, {(1, 0, 0): 1}])
    with pytest.raises(ValueError):
        is_radical_ci(repeated)


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
    # 101^4 degree-1 candidates blow any reasonable budget: no witness
    assert find_reducibility_witness(system, budget=1000) is None


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
    from defectus.polynomials import grevlex_key, monomials_upto
    from reference_groebner import exact_divide
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


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
def test_witness_matches_reference_enumeration(p, k):
    # the packed search returns the reference's first (i, G, H)
    field = field_make(p, k)
    inputs = BoundInputs(3, 2, field.q, (2, 2))
    hits = 0
    for idx in range(40):
        system = sample_system(inputs, field, HashStream("witness-ref", idx))
        gb = groebner(list(system.polys))
        hit = find_reducibility_witness(system, gb)
        assert hit == _reference_witness(system, gb)
        hits += hit is not None
    assert hits
