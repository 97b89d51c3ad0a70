import dataclasses
import hashlib
import json
import math
import os

import pytest

from defectus import (
    CERTIFIED_REDUCIBLE, BoundInputs, BudgetExceeded, ClassificationReport,
    ExperimentConfig, OutcomeCounts, cp_interval, cp_upper_one_sided, derive,
    field_make, linear_census_oracle, run_census, run_monte_carlo,
    sample_system, system_from_census_index,
)
import defectus.experiment as experiment
from defectus.classify import classify
from defectus.experiment import (
    _binom_cdf, _verdicts, census_size, coefficient_layout, gaussian_binomial,
    matrices_of_rank,
)
from defectus.rng import HashStream


def _mc_config(q, d, n, seed=0, threads=1, **kw):
    return ExperimentConfig(inputs=BoundInputs(3, 2, q, d),
                            mode="monte_carlo", n_samples=n, seed=seed,
                            threads=threads, **kw)


def test_sample_determinism(f101):
    inputs = BoundInputs(3, 2, 101, (2, 2))
    a = sample_system(inputs, f101, HashStream("sample", 42, 7))
    b = sample_system(inputs, f101, HashStream("sample", 42, 7))
    c = sample_system(inputs, f101, HashStream("sample", 42, 8))
    assert a == b
    assert a != c


def test_zero_draw_is_possible_and_fails_regularity(f2):
    inputs = BoundInputs(3, 2, 2, (1, 1))
    zero = system_from_census_index(inputs, f2, 0)
    assert all(p.is_zero() for p in zero.polys)
    rep = classify(zero)
    assert not rep.regular_sequence
    assert rep.regular_sequence_failure_index == 1


def test_coefficient_uniformity_chi(f5):
    # 100000 pooled coefficient draws, each element within 4 sigma
    inputs = BoundInputs(3, 2, 5, (1, 1))
    width = sum(len(m) for m in coefficient_layout(inputs))
    n_systems = 100_000 // width
    counts = [0] * 5
    for idx in range(n_systems):
        stream = HashStream("sample", 2024, idx)
        for _ in range(width):
            counts[stream.randint(5)] += 1
    draws = n_systems * width
    expect = draws / 5
    sigma = math.sqrt(draws * 0.2 * 0.8)
    for c in counts:
        assert abs(c - expect) <= 4 * sigma


def test_census_index_bijection(f2):
    inputs = BoundInputs(3, 2, 2, (1, 1))
    total = census_size(inputs)
    assert total == 256
    seen = set()
    for idx in range(total):
        system = system_from_census_index(inputs, f2, idx)
        seen.add(tuple(p.canonical_bytes() for p in system.polys))
    assert len(seen) == total


def test_census_order_is_lexicographic(f2):
    # index 0 is the zero system; index 1 sets the least significant slot,
    # which is the constant term of the last generator
    inputs = BoundInputs(3, 2, 2, (1, 1))
    zero = system_from_census_index(inputs, f2, 0)
    assert all(p.is_zero() for p in zero.polys)
    one = system_from_census_index(inputs, f2, 1)
    assert one.polys[0].is_zero()
    assert one.polys[1].degree() == 0


def _systems_digest(systems):
    h = hashlib.sha256()
    for system in systems:
        h.update(system.digest())
    return h.hexdigest()


@pytest.mark.parametrize("q, pk, expected", [
    (101, (101, 1),
     "4fd1dda23eb4c6099c7b66f9e373d7ee9a40e9e07b5571b92e7d48bdd7887223"),
    (4, (2, 2),
     "06b436f6aa9c17a122c3af763e6c1cd795b1b1ee240d046cb6a86b01c8fd2f09"),
])
def test_sample_draw_order_is_pinned(q, pk, expected):
    # one stream.randint(q) per slot, generator by generator, monomials
    # descending: any change of order changes every seeded report
    inputs, field = BoundInputs(3, 2, q, (2, 2)), field_make(*pk)
    assert _systems_digest(
        sample_system(inputs, field, HashStream("sample", 42, i))
        for i in range(100)) == expected


def test_census_digit_order_is_pinned(f2):
    inputs = BoundInputs(3, 2, 2, (2, 1))
    assert _systems_digest(
        system_from_census_index(inputs, f2, i)
        for i in range(0, 16384, 37)) == (
        "f01b789fc6c1f8aa6604d2a371f4fd4279c063d0030e03e544f0a93a1c6cb2bf")


def test_aggregation_is_a_monoid(f3):
    inputs = BoundInputs(3, 2, 3, (1, 1))
    reports = [classify(sample_system(inputs, f3, HashStream("agg", i)))
               for i in range(30)]
    parts = [OutcomeCounts.from_report(r) for r in reports]
    total = OutcomeCounts.zero(2)
    for p in parts:
        total = total + p
    # arbitrary re-partition gives identical totals
    left = OutcomeCounts.zero(2)
    for p in parts[:11]:
        left = left + p
    right = OutcomeCounts.zero(2)
    for p in parts[11:]:
        right = right + p
    assert left + right == total
    assert total.n == 30
    assert (total.certified_irreducible + total.certified_reducible
            + total.undetermined) == 30


def test_gaussian_binomial_and_rank_counts():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert matrices_of_rank(2, 3, 1, 2) == 21
    assert sum(matrices_of_rank(2, 3, t, 2) for t in range(3)) == 2 ** 6
    assert sum(matrices_of_rank(2, 3, t, 3) for t in range(3)) == 3 ** 6


def test_linear_oracle_values():
    q2 = linear_census_oracle(BoundInputs(3, 2, 2, (1, 1)))
    assert q2["in_B1"] == 22 * 4 == 88
    assert q2["total"] == 256
    q3 = linear_census_oracle(BoundInputs(3, 2, 3, (1, 1)))
    assert q3["in_B1"] == 105 * 9
    assert q3["total"] == 3 ** 8
    with pytest.raises(ValueError):
        linear_census_oracle(BoundInputs(3, 2, 2, (2, 1)))


def test_census_matches_oracle_q2():
    inputs = BoundInputs(3, 2, 2, (1, 1))
    report, rows = run_census(
        ExperimentConfig(inputs=inputs, mode="census", threads=2),
        dump_rows=True)
    oracle = linear_census_oracle(inputs)
    assert report.counts.n == 256
    assert report.counts.in_B1 == oracle["in_B1"]
    assert report.counts.in_B2_lower == report.counts.in_B2_upper
    assert len(rows) == 256
    assert [idx for idx, _ in rows] == list(range(256))
    # each of the 8 chunks (4 per thread) ships equal reports as one object
    distinct = set(rep for _, rep in rows)
    assert len({id(rep) for _, rep in rows}) <= 8 * len(distinct) < 256


def test_census_budget_refusal(monkeypatch):
    monkeypatch.setenv("DEFECTUS_BUDGET", "1000")
    config = ExperimentConfig(inputs=BoundInputs(3, 2, 101, (2, 2)),
                              mode="census")
    with pytest.raises(BudgetExceeded):
        run_census(config)


@pytest.mark.parametrize("budget,refused", [("255", True), ("256", False)])
def test_census_budget_boundary(monkeypatch, budget, refused):
    # 2^8 systems: the exponent comparison refuses exactly above 256
    monkeypatch.setenv("DEFECTUS_BUDGET", budget)
    config = ExperimentConfig(inputs=BoundInputs(3, 2, 2, (1, 1)),
                              mode="census")
    if refused:
        with pytest.raises(BudgetExceeded, match=r"census needs 2\^8 ") as exc:
            run_census(config)
        assert exc.value.required == 256
    else:
        assert run_census(config)[0].counts.n == 256


@pytest.mark.parametrize("mode", ["monte_carlo", "census"])
def test_bound_bits_refusal_comes_before_any_system(monkeypatch, mode):
    # q^dimF = 2^18733638 is past the bound report's bit budget (and
    # the census budget): both runners refuse before the first system
    def no_chunks(*args):
        raise AssertionError("systems were classified")

    monkeypatch.setattr(experiment, "_map_chunks", no_chunks)
    config = ExperimentConfig(inputs=BoundInputs(6, 2, 2, (40, 40)),
                              mode=mode, n_samples=1)
    runner = run_monte_carlo if mode == "monte_carlo" else run_census
    with pytest.raises(BudgetExceeded, match=r" needs 2\^18733638 "):
        runner(config)


def test_field_refusal_comes_before_any_worker(monkeypatch):
    # F_{3^700} is past the field budget: the runner builds the field
    # itself, so it refuses before the workers would each build it
    def no_chunks(*args):
        raise AssertionError("workers were started")

    monkeypatch.setattr(experiment, "_map_chunks", no_chunks)
    config = ExperimentConfig(inputs=BoundInputs(3, 2, 3 ** 700, (2, 2)),
                              mode="monte_carlo", n_samples=1)
    with pytest.raises(BudgetExceeded, match=r"the field needs 3\^700 "):
        run_monte_carlo(config)


def test_threads_below_one_rejected():
    with pytest.raises(ValueError, match="threads"):
        _mc_config(7, (2, 2), 3, threads=0)


def _fake_pool(monkeypatch, cores):
    """Record the worker count each Pool is asked for and the number of
    jobs it maps, as (processes, jobs); map in this process.

    ``default_threads`` reads ``cores``, so no real process is started
    and the cap does not depend on the machine.
    """
    import multiprocessing
    import defectus.experiment as expmod

    requested = []

    class FakePool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            requested.append((self.processes, len(jobs)))
            return [fn(j) for j in jobs]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: FakeContext())
    monkeypatch.setattr(expmod, "default_threads", lambda: cores)
    return requested


def test_pool_is_capped_at_the_chunk_count(monkeypatch):
    # 64 threads on 64 cores, 3 samples: 3 chunks, so 3 workers
    requested = _fake_pool(monkeypatch, 64)
    report = run_monte_carlo(_mc_config(7, (2, 2), 3, threads=64))
    assert requested == [(3, 3)]
    assert report.counts.n == 3


def test_pool_is_capped_at_the_machine(monkeypatch):
    # 100000 threads, 40 samples, but only 2 cores: 2 workers and four
    # chunks each, not 40 chunks of one
    requested = _fake_pool(monkeypatch, 2)
    report = run_monte_carlo(_mc_config(7, (2, 2), 40, threads=100000))
    assert requested == [(2, 8)]
    assert report.counts.n == 40


def test_default_threads_reads_the_affinity_set(monkeypatch):
    # under taskset or a cpuset the process may use fewer CPUs than the
    # machine has, and no more workers than those can run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert experiment.default_threads() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert experiment.default_threads() == 8


def test_cp_closed_forms():
    # x = 0: the one-sided upper bound is 1 - alpha^(1/n) exactly
    for n, conf in ((20000, 0.99), (500, 0.95), (50, 0.99)):
        alpha = 1 - conf
        expected = 1 - alpha ** (1 / n)
        assert cp_upper_one_sided(0, n, conf) == pytest.approx(
            expected, abs=1e-9)
        lo, hi = cp_interval(0, n, conf)
        assert lo == 0.0
        assert hi == pytest.approx(1 - (alpha / 2) ** (1 / n), abs=1e-9)
    assert cp_upper_one_sided(10, 10, 0.99) == 1.0
    lo, hi = cp_interval(10, 10, 0.99)
    assert hi == 1.0 and lo > 0


def test_cp_interval_covers_point_estimate():
    for x, n in ((1, 50), (3, 100), (7, 22)):
        lo, hi = cp_interval(x, n, 0.99)
        assert lo < x / n < hi
        assert cp_upper_one_sided(x, n, 0.99) < hi  # one-sided is tighter


def test_cp_interval_tails_against_brute_force():
    # equal-tailed: each endpoint puts exactly alpha/2 past the count
    def survival(x, n, p):
        return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
                   for j in range(x, n + 1))

    for x, n in ((1, 50), (3, 100), (7, 22)):
        lo, hi = cp_interval(x, n, 0.99)
        assert survival(x, n, lo) == pytest.approx(0.005, abs=1e-9)
        assert 1 - survival(x + 1, n, hi) == pytest.approx(0.005, abs=1e-9)


def _bisect_100(fn, target):
    # the solver as it was: always 100 bisection steps
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_solver_stops_with_its_bracket_bit_identically():
    # once the midpoint equals an end of the bracket no later step moves
    # it, so stopping there returns the 100-step answer to the bit
    cases = [(x, n) for n in (1, 10, 200) for x in {0, 1, n // 2, n - 1, n}]
    cases += [(0, 16384), (3, 16384), (120, 16384)]
    for x, n in cases:
        fn = _binom_cdf(x, n)
        for alpha in (0.05, 0.01):
            for target in (alpha, alpha / 2, 1 - alpha / 2):
                assert experiment._solve_decreasing(fn, target) == \
                    _bisect_100(fn, target), (x, n, target)


def test_binom_cdf_bit_identical_to_direct_formula():
    # hoisting the log binomial coefficients out of the p loop keeps
    # the left-to-right float expression, hence every bit of the sum
    def direct(x, n, p):
        if p <= 0.0:
            return 1.0
        if p >= 1.0:
            return 1.0 if x >= n else 0.0
        lp, l1p = math.log(p), math.log1p(-p)
        total = 0.0
        for j in range(x + 1):
            total += math.exp(
                math.lgamma(n + 1) - math.lgamma(j + 1)
                - math.lgamma(n - j + 1) + j * lp + (n - j) * l1p)
        return min(total, 1.0)

    grid = [(3840, 16384), (0, 1), (0, 200), (0, 16384), (7, 8),
            (199, 200), (16383, 16384), (3, 40), (57, 1000)]
    for x, n in grid:
        cdf = _binom_cdf(x, n)
        ps = [0.0, 1.0, 1e-9, 1 - 1e-9, x / n, (x + 1) / n,
              *(k / 13 for k in range(1, 13))]
        for p in ps:
            assert cdf(p).hex() == direct(x, n, p).hex(), (x, n, p)


def test_mc_thread_independence():
    base = dict(q=7, d=(2, 2), n=50, seed=5)
    r1 = run_monte_carlo(_mc_config(threads=1, **base))
    r2 = run_monte_carlo(_mc_config(threads=2, **base))
    assert json.dumps(r1.to_json_dict(False), sort_keys=True) == \
        json.dumps(r2.to_json_dict(False), sort_keys=True)


def test_mc_counts_partition():
    rep = run_monte_carlo(_mc_config(q=5, d=(2, 2), n=40, seed=3, threads=2))
    c = rep.counts
    assert c.n == 40
    assert c.certified_irreducible + c.certified_reducible + c.undetermined \
        == 40
    assert rep.p2_lower_hat <= rep.p2_upper_hat


def test_mc_vacuous_verdict():
    rep = run_monte_carlo(_mc_config(q=2, d=(2, 2), n=30, seed=1))
    assert rep.bound_report.vacuous_B1 and rep.bound_report.vacuous_B2
    assert rep.verdict_B1 == "VACUOUS_PASS"
    assert rep.verdict_B2 == "VACUOUS_PASS"


def test_mc_b2_verdict_needs_confidence():
    # one draw verifies neither bound; before, B_2 passed on the point
    # estimate 0/1 while B_1 already said NOT_VERIFIED
    rep = run_monte_carlo(_mc_config(q=101, d=(2, 2), n=1, seed=42))
    assert rep.counts.in_B2_upper == 0
    assert rep.verdict_B1 == "NOT_VERIFIED"
    assert rep.verdict_B2 == "NOT_VERIFIED"


def test_verdict_outcomes():
    # q=101, d=(2,2): prob_B1 = 32768/1030301 ~ 0.032 and
    # prob_B2 = 4096/10201 ~ 0.40; one rule decides both bounds in both
    # modes, so Monte Carlo B_1 fails once its CP lower end passes prob_B1
    mc = derive(BoundInputs(3, 2, 101, (2, 2)))
    # the shape's census, 101^20 systems, is out of reach, and so is the
    # CP solve of p_1 on its counts: the census rows judge 1000 systems
    # against count bounds of 40 (B_1) and 60 (B_2)
    census = dataclasses.replace(mc, count_B1=40, count_B2=60)
    # (bounds, mode, n, in_B1, in_B2_lower, in_B2_upper, B_1, B_2); the
    # comments give the CP lower end of the count that decides
    table = [
        (mc, "monte_carlo", 200, 0, 0, 3, "PASS", "PASS"),
        (mc, "monte_carlo", 200, 0, 0, 90, "PASS", "NOT_VERIFIED"),  # 0
        (mc, "monte_carlo", 200, 0, 90, 90, "PASS", "NOT_VERIFIED"),  # .36
        (mc, "monte_carlo", 200, 0, 120, 120, "PASS", "FAIL"),  # .51
        (mc, "monte_carlo", 200, 0, 0, 0, "PASS", "PASS"),
        (mc, "monte_carlo", 200, 5, 5, 5, "NOT_VERIFIED", "PASS"),
        (mc, "monte_carlo", 200, 7, 7, 7, "NOT_VERIFIED", "PASS"),
        (mc, "monte_carlo", 200, 15, 15, 15, "FAIL", "PASS"),  # .035
        (mc, "monte_carlo", 200, 120, 120, 120, "FAIL", "FAIL"),
        (census, "census", 1000, 40, 0, 0, "PASS", "PASS"),
        (census, "census", 1000, 41, 0, 0, "FAIL", "PASS"),
        (census, "census", 1000, 0, 59, 60, "PASS", "PASS"),
        (census, "census", 1000, 0, 60, 61, "PASS", "NOT_VERIFIED"),
        (census, "census", 1000, 0, 61, 62, "PASS", "FAIL"),
    ]
    for bounds, mode, n, b1, lower, upper, want_b1, want_b2 in table:
        counts = OutcomeCounts(n=n, in_B1=b1, in_B2_lower=lower,
                               in_B2_upper=upper, degree_drop=(0, 0))
        got = _verdicts(counts, bounds, mode, 0.99)[:2]
        assert got == (want_b1, want_b2), (mode, b1, lower, upper)


def test_assemble_solves_each_cp_end_once(monkeypatch):
    # p_1's low, high and one-sided upper end, plus, in Monte Carlo, the
    # low end of in_B2_lower and the one-sided end of in_B2_upper
    solves = []
    solve = experiment._solve_decreasing

    def counted(fn, target):
        solves.append(target)
        return solve(fn, target)

    monkeypatch.setattr(experiment, "_solve_decreasing", counted)
    counts = OutcomeCounts(n=200, in_B1=5, in_B2_lower=7, in_B2_upper=9,
                           degree_drop=(0, 0))
    inputs = BoundInputs(3, 2, 101, (2, 2))
    for mode, want in (("monte_carlo", 5), ("census", 3)):
        config = ExperimentConfig(inputs=inputs, mode=mode, n_samples=200)
        solves.clear()
        experiment._assemble(config, counts, 0.0)
        assert len(solves) == want, mode


def test_every_report_flag_is_counted():
    # from_report counts each boolean flag of a report under its name
    flags = [f.name for f in dataclasses.fields(ClassificationReport)
             if f.type in (bool, "bool")]
    assert len(flags) == 10
    assert set(flags) <= {f.name for f in dataclasses.fields(OutcomeCounts)}
    for value in (True, False):
        rep = ClassificationReport(
            degree_full=(True, False), regular_sequence_failure_index=None,
            fiber_dim=0, irreducibility=CERTIFIED_REDUCIBLE,
            **dict.fromkeys(flags, value))
        counts = OutcomeCounts.from_report(rep, 3)
        assert all(getattr(counts, name) == 3 * value for name in flags)


def test_inapplicable_verdict_linear():
    config = ExperimentConfig(inputs=BoundInputs(3, 2, 2, (1, 1)),
                              mode="census", threads=2)
    report, _ = run_census(config)
    assert report.verdict_B1 == "INAPPLICABLE"
    assert report.verdict_B2 == "INAPPLICABLE"


def test_estimator_consistency_census_vs_mc():
    # the CP interval from a seeded MC run contains the exact census ratio
    inputs = BoundInputs(3, 2, 3, (1, 1))
    census_rep, _ = run_census(
        ExperimentConfig(inputs=inputs, mode="census", threads=2))
    exact = census_rep.counts.in_B1 / census_rep.counts.n
    mc_rep = run_monte_carlo(
        ExperimentConfig(inputs=inputs, mode="monte_carlo", n_samples=400,
                         seed=17, threads=2))
    assert mc_rep.p1_cp_low <= exact <= mc_rep.p1_cp_high


def test_report_json_schema_fields():
    rep = run_monte_carlo(_mc_config(q=5, d=(2, 2), n=10, seed=0))
    blob = rep.to_json_dict()
    for key in ("schema_version", "mode", "inputs", "seed", "confidence",
                "counts", "p1_hat", "p1_cp_low", "p1_cp_high",
                "p1_cp_upper_one_sided", "p2_lower_hat", "p2_upper_hat",
                "bounds", "verdict_B1", "verdict_B2", "meta"):
        assert key in blob
    assert "meta" not in rep.to_json_dict(include_meta=False)
    assert blob["counts"]["n"] == 10


def test_mc_over_extension_field():
    # q = 4 exercises vector coefficients through the entire pipeline
    config = ExperimentConfig(inputs=BoundInputs(3, 2, 4, (2, 2)),
                              mode="monte_carlo", n_samples=12, seed=3,
                              threads=2)
    rep = run_monte_carlo(config)
    assert rep.counts.n == 12
    assert rep.verdict_B1 == "VACUOUS_PASS"  # 2*s*sigma*delta = 32 > 4
    blob = rep.to_json_dict(False)
    assert blob["inputs"] == {"r": 3, "s": 2, "q": 4, "p": 2, "k": 2,
                              "d": [2, 2]}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(inputs=BoundInputs(3, 2, 5, (1, 1)), mode="guess")
    with pytest.raises(ValueError):
        ExperimentConfig(inputs=BoundInputs(3, 2, 5, (1, 1)),
                         mode="monte_carlo", n_samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(inputs=BoundInputs(3, 2, 5, (1, 1)),
                         mode="monte_carlo", n_samples=5, confidence=1.5)
