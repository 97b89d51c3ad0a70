"""Acceptance battery: one test and one printed PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear;
the heavy criteria (exhaustive cover census, the 20000-draw Monte Carlo
run) parallelize over the available cores.
"""

import json
import math
import os
from fractions import Fraction

from defectus import (
    CERTIFIED_REDUCIBLE, BoundInputs, ExperimentConfig, Poly,
    cp_upper_one_sided, enumerate_points, fiber_dimension, field_make,
    find_reducibility_witness, ideal_dimension, initial_form_criterion,
    is_regular_sequence, linear_census_oracle, projective_dimension,
    resultant_vanishes, run_census, run_monte_carlo, sample_system,
    system_from_census_index,
)
from defectus.classify import classify
from defectus.cli import main as cli_main
from defectus.experiment import _map_chunks, _ranges
from defectus.groebner import groebner
from defectus.polynomials import monomials_exact
from defectus.rng import HashStream

from randomized_checks import kollar_dimension_test, minor_combo_fiber_test
from reference_resultant import resultant_value

THREADS = os.cpu_count() or 1


def _verdict(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# -- criterion 1: linear-case exact census --------------------------------

def test_criterion_1_linear_census():
    details = []
    ok = True
    for q, expected in ((2, 88), (3, 105 * 9)):
        inputs = BoundInputs(3, 2, q, (1, 1))
        oracle = linear_census_oracle(inputs)
        report, _ = run_census(
            ExperimentConfig(inputs=inputs, mode="census", threads=THREADS))
        collapsed = (report.counts.in_B2_lower == report.counts.in_B2_upper
                     == report.counts.in_B1)
        match = (report.counts.in_B1 == oracle["in_B1"] == expected
                 and report.counts.n == oracle["total"])
        ok = ok and collapsed and match
        details.append(f"q={q}: |B_1|={report.counts.in_B1}/{report.counts.n}")
    _verdict("criterion 1: linear census equals rank oracle, bracket exact",
             ok, "; ".join(details))


# -- criterion 2: exhaustive cover soundness -------------------------------

_C2_INPUTS = BoundInputs(3, 2, 2, (2, 1))


def _crit2_worker(rng):
    start, stop = rng
    field = field_make(2, 1)
    violations = []
    for idx in range(start, stop):
        system = system_from_census_index(_C2_INPUTS, field, idx)
        rep = classify(system)
        full = all(rep.degree_full)
        if full and not rep.in_B0:
            if rep.fiber_dim <= 0 and not rep.ideal_theoretic_ci:
                violations.append((idx, "cover: fiber<=r-s-1 but not ITCI"))
            if rep.fiber_dim <= -1:
                if rep.irreducibility == CERTIFIED_REDUCIBLE:
                    violations.append((idx, "certified reducible in cover"))
                if find_reducibility_witness(system) is not None:
                    violations.append((idx, "witness exists in cover"))
        if full and initial_form_criterion(system) \
                and not is_regular_sequence(system)[0]:
            violations.append((idx, "initial-form criterion unsound"))
    return violations


def test_criterion_2_cover_soundness_exhaustive():
    total = 2 ** 14
    violations = []
    jobs = _ranges(total, THREADS * 8)
    for part in _map_chunks(_crit2_worker, jobs, THREADS):
        violations.extend(part)
    _verdict("criterion 2: cover soundness on all 16384 systems "
             "(q=2, d=(2,1))", not violations,
             f"violations={violations[:3] if violations else 0}")


# -- criterion 3: Monte Carlo bound verification ---------------------------

def test_criterion_3_monte_carlo_bounds():
    inputs = BoundInputs(3, 2, 101, (2, 2))
    report = run_monte_carlo(
        ExperimentConfig(inputs=inputs, mode="monte_carlo", n_samples=20000,
                         seed=42, threads=THREADS))
    prob_b1 = Fraction(32768, 1030301)
    prob_b2 = Fraction(4096, 10201)
    assert report.bound_report.prob_B1 == prob_b1
    assert report.bound_report.prob_B2 == prob_b2
    cp_ok = Fraction(report.p1_cp_upper_one_sided) <= prob_b1
    p2_ok = report.p2_upper_hat <= prob_b2
    _verdict(
        "criterion 3: Monte Carlo q=101 n=20000 seed=42 clears both bounds",
        cp_ok and p2_ok and report.verdict_B1 == "PASS"
        and report.verdict_B2 == "PASS",
        f"B1 count={report.counts.in_B1}, CP upper="
        f"{report.p1_cp_upper_one_sided:.2e} <= {float(prob_b1):.2e}; "
        f"P2 upper={float(report.p2_upper_hat):.4f} <= {float(prob_b2):.4f}")


# -- criterion 4: vacuous-bound honesty ------------------------------------

def test_criterion_4_vacuous_bounds_flagged():
    inputs = BoundInputs(3, 2, 2, (2, 2))
    report = run_monte_carlo(
        ExperimentConfig(inputs=inputs, mode="monte_carlo", n_samples=200,
                         seed=42, threads=THREADS))
    ok = (report.bound_report.vacuous_B1 and report.bound_report.vacuous_B2
          and report.verdict_B1 == "VACUOUS_PASS"
          and report.verdict_B2 == "VACUOUS_PASS")
    _verdict("criterion 4: q=2 bounds flagged vacuous, verdict VACUOUS_PASS",
             ok, f"verdicts=({report.verdict_B1}, {report.verdict_B2})")


# -- criterion 5: resultant / groebner oracle equivalence ------------------

def _random_homogeneous(field, nvars, degree, stream):
    terms = {}
    for m in monomials_exact(nvars, degree):
        idx = stream.randint(field.q)
        if idx:
            terms[m] = field.element_from_index(idx)
    return Poly(field, nvars, terms)


def _crit5_worker(rng):
    start, stop = rng
    field = field_make(101, 1)
    disagreements = []
    for idx in range(start, stop):
        stream = HashStream("accept5", idx)
        degrees = tuple(1 + stream.randint(3) for _ in range(3))
        polys = [_random_homogeneous(field, 3, d, stream) for d in degrees]
        vanishes = resultant_vanishes(polys, degrees)
        gb = groebner(polys, field=field, nvars=3)
        if vanishes != (projective_dimension(gb) >= 0):
            disagreements.append(idx)
    return disagreements


def test_criterion_5_resultant_oracle_equivalence():
    disagreements = []
    jobs = _ranges(200, THREADS * 4)
    for part in _map_chunks(_crit5_worker, jobs, THREADS):
        disagreements.extend(part)

    field = field_make(101, 1)
    mono = [Poly.from_int_terms(
        field, 3, {tuple(2 if j == i else 0 for j in range(3)): 1})
        for i in range(3)]
    norm_ok = resultant_value(mono, (2, 2, 2)) == field.one

    stream = HashStream("accept5-scaling")
    degrees = (2, 2, 2)
    delta = 8
    scaling_hits = 0
    scaling_total = 50
    while scaling_hits < scaling_total:
        polys = [_random_homogeneous(field, 3, d, stream) for d in degrees]
        base = resultant_value(polys, degrees)
        if base is None or base == field.zero:
            continue
        i = stream.randint(3)
        lam = field.element_from_index(1 + stream.randint(100))
        scaled = list(polys)
        scaled[i] = scaled[i].scale(lam)
        got = resultant_value(scaled, degrees)
        expected = field.mul(base, field.pow(lam, delta // degrees[i]))
        assert got == expected, f"scaling probe failed: {got} != {expected}"
        scaling_hits += 1

    _verdict("criterion 5: resultant vs groebner 200/200, Res(monomials)=1, "
             "50/50 scaling probes",
             not disagreements and norm_ok,
             f"disagreements={disagreements[:3] if disagreements else 0}")


# -- criterion 6: one-sidedness of the randomized tests --------------------

_C6_INPUTS = BoundInputs(3, 2, 101, (2, 2))


def _crit6_worker(rng):
    start, stop = rng
    field = field_make(101, 1)
    forced_violations = 0
    kollar_agree = combo1_agree = combo2_agree = 0
    for idx in range(start, stop):
        system = sample_system(_C6_INPUTS, field,
                               HashStream("accept6", idx))
        homog = system.homogenized()
        exact_pd = projective_dimension(groebner(homog))
        got = kollar_dimension_test(homog, 1, seed=idx)
        if exact_pd >= 1 and not got:
            forced_violations += 1
        if got == (exact_pd >= 1):
            kollar_agree += 1

        exact_fiber = fiber_dimension(system)
        combo1 = minor_combo_fiber_test(system, 1, seed=idx)
        combo2 = minor_combo_fiber_test(system, 2, seed=idx)
        if combo1 < exact_fiber or combo2 < exact_fiber:
            forced_violations += 1
        if (combo1 >= 1) == (exact_fiber >= 1):
            combo1_agree += 1
        if (combo2 >= 0) == (exact_fiber >= 0):
            combo2_agree += 1
    return forced_violations, kollar_agree, combo1_agree, combo2_agree


def test_criterion_6_randomized_tests_one_sided():
    total = 500
    forced = kagree = c1agree = c2agree = 0
    jobs = _ranges(total, THREADS * 8)
    for part in _map_chunks(_crit6_worker, jobs, THREADS):
        forced += part[0]
        kagree += part[1]
        c1agree += part[2]
        c2agree += part[3]
    threshold = math.ceil(0.99 * total)
    ok = (forced == 0 and kagree >= threshold and c1agree >= threshold
          and c2agree >= threshold)
    _verdict("criterion 6: 500 systems, forced direction never errs, "
             "agreement >= 99%", ok,
             f"forced={forced}, agreement=({kagree}, {c1agree}, {c2agree})"
             f"/{total}")


# -- criterion 7: point-count bound ----------------------------------------

def test_criterion_7_point_count_bound():
    violations = []
    cases = [(2, (2, 2), 50), (3, (2, 1), 50)]
    for q, caps, n_sys in cases:
        field = field_make(q, 1)
        inputs = BoundInputs(3, 2, q, caps)
        for idx in range(n_sys):
            system = sample_system(inputs, field,
                                   HashStream("accept7", q, idx))
            points = enumerate_points(system)
            gb = groebner(list(system.polys), field=field, nvars=3)
            dim = ideal_dimension(gb)
            if dim < 0:
                if points:
                    violations.append((q, idx, "empty but has points"))
                continue
            degree_bound = 1
            for f in system.polys:
                if not f.is_zero() and f.degree() >= 1:
                    degree_bound *= int(f.degree())
            if len(points) > degree_bound * q ** dim:
                violations.append((q, idx, len(points)))
    _verdict("criterion 7: |V(F_q)| <= deg * q^dim on 100 enumerable systems",
             not violations, f"violations={violations[:3] or 0}")


# -- criterion 8: determinism across thread counts -------------------------

def test_criterion_8_thread_determinism(tmp_path):
    outs = []
    for threads in (1, 2):
        path = tmp_path / f"census_t{threads}.json"
        code = cli_main(["census", "--q", "2", "--r", "3", "--s", "2",
                         "--d", "1,1", "--threads", str(threads),
                         "--no-meta", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    census_ok = outs[0] == outs[1]

    outs = []
    for threads in (1, 2):
        path = tmp_path / f"mc_t{threads}.json"
        code = cli_main(["sample", "--q", "7", "--r", "3", "--s", "2",
                         "--d", "2,2", "--n", "80", "--seed", "3",
                         "--threads", str(threads), "--no-meta",
                         "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    mc_ok = outs[0] == outs[1]

    # repeat of the same invocation is byte-identical too
    path = tmp_path / "mc_repeat.json"
    cli_main(["sample", "--q", "7", "--r", "3", "--s", "2", "--d", "2,2",
              "--n", "80", "--seed", "3", "--threads", "2", "--no-meta",
              "--out", str(path)])
    repeat_ok = path.read_bytes() == outs[1]

    _verdict("criterion 8: byte-identical reports across --threads",
             census_ok and mc_ok and repeat_ok,
             f"census={census_ok}, mc={mc_ok}, repeat={repeat_ok}")
