"""Sampling, exhaustive census, aggregation, bound comparison.

Uniform sampling draws every coefficient of every monomial of degree
up to the cap i.i.d. from F_q, so degree drops and zero polynomials
are part of the measure.  Each sample owns a counter-based stream
keyed by (master seed, sample index): results are independent of
worker count and scheduling, and aggregation is a commutative merge of
integer counters.

Defect probabilities are reported with exact Clopper-Pearson binomial
intervals (defect events sit near zero counts, where normal
approximations are invalid), and the B_2 answer is always the
certified bracket, never a point estimate.  One rule judges both
bounds in both modes, on exact counts in a census and on
Clopper-Pearson ends in Monte Carlo.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache

from .bounds import (
    BoundInputs, BoundReport, BudgetExceeded, check_bound_bits, derive,
    enumeration_budget, fraction_json, max_exponent,
)
from .classify import (
    CERTIFIED_IRREDUCIBLE, CERTIFIED_REDUCIBLE, ClassificationReport,
    classify,
)
from .fields import Field, _digits, field_make, prime_power_decompose
from .polynomials import Poly, PolySystem, packed_monomials
from .rng import HashStream

CONFIDENCE_DEFAULT = 0.99
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    inputs: BoundInputs
    mode: str                       # "monte_carlo" | "census"
    n_samples: int = 0              # Monte Carlo only
    seed: int = 0
    threads: int = 1
    confidence: float = CONFIDENCE_DEFAULT

    def __post_init__(self):
        if self.mode not in ("monte_carlo", "census"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.n_samples < 1:
            raise ValueError("monte_carlo needs n_samples >= 1")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def build_field(self) -> Field:
        p, k = prime_power_decompose(self.inputs.q)
        return field_make(p, k)


# the boolean flags of a ClassificationReport, each counted under its name
_REPORT_FLAGS = ("in_L", "in_B0", "regular_sequence", "set_theoretic_ci",
                 "ideal_theoretic_ci", "in_piW_rs", "in_piW_rs1", "in_B1",
                 "in_B2_lower", "in_B2_upper")


@dataclass(frozen=True)
class OutcomeCounts:
    """Order-independent counters; merging is elementwise addition."""

    n: int = 0
    in_B0: int = 0
    in_B1: int = 0
    in_B2_lower: int = 0
    in_B2_upper: int = 0
    certified_irreducible: int = 0
    certified_reducible: int = 0
    undetermined: int = 0
    regular_sequence: int = 0
    set_theoretic_ci: int = 0
    ideal_theoretic_ci: int = 0
    in_piW_rs: int = 0
    in_piW_rs1: int = 0
    in_L: int = 0
    degree_drop: tuple = ()

    @classmethod
    def zero(cls, s: int):
        return cls(degree_drop=(0,) * s)

    @classmethod
    def from_report(cls, rep: ClassificationReport, n: int = 1):
        """The counts of ``n`` systems that all have report ``rep``."""
        irr = rep.irreducibility
        return cls(
            n=n,
            certified_irreducible=n * (irr == CERTIFIED_IRREDUCIBLE),
            certified_reducible=n * (irr == CERTIFIED_REDUCIBLE),
            undetermined=n * (irr not in (CERTIFIED_IRREDUCIBLE,
                                          CERTIFIED_REDUCIBLE)),
            degree_drop=tuple(n * (not full) for full in rep.degree_full),
            **{flag: n * getattr(rep, flag) for flag in _REPORT_FLAGS},
        )

    def __add__(self, other: "OutcomeCounts"):
        merged = {}
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name == "degree_drop":  # () is the empty merge
                merged[f.name] = (tuple(map(sum, zip(a, b)))
                                  if a and b else a or b)
            else:
                merged[f.name] = a + b
        return OutcomeCounts(**merged)

    def to_json_dict(self):
        blob = {f.name: getattr(self, f.name) for f in fields(self)}
        blob["degree_drop"] = list(self.degree_drop)
        return blob


@dataclass(frozen=True)
class EstimateReport:
    mode: str
    inputs: BoundInputs
    seed: int
    counts: OutcomeCounts
    bound_report: BoundReport
    confidence: float
    p1_hat: Fraction
    p1_cp_low: float
    p1_cp_high: float
    p1_cp_upper_one_sided: float
    p2_lower_hat: Fraction
    p2_upper_hat: Fraction
    verdict_B1: str
    verdict_B2: str
    wall_clock_sec: float
    threads: int

    def to_json_dict(self, include_meta: bool = True):
        out = {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "inputs": self.inputs.to_json_dict(),
            "seed": self.seed,
            "confidence": self.confidence,
            "counts": self.counts.to_json_dict(),
            "p1_hat": fraction_json(self.p1_hat),
            "p1_cp_low": self.p1_cp_low,
            "p1_cp_high": self.p1_cp_high,
            "p1_cp_upper_one_sided": self.p1_cp_upper_one_sided,
            "p2_lower_hat": fraction_json(self.p2_lower_hat),
            "p2_upper_hat": fraction_json(self.p2_upper_hat),
            "bounds": self.bound_report.to_json_dict(),
            "verdict_B1": self.verdict_B1,
            "verdict_B2": self.verdict_B2,
        }
        if include_meta:
            out["meta"] = {
                "wall_clock_sec": self.wall_clock_sec,
                "threads": self.threads,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime()),
            }
        return out


# -- sampling and census decoding ----------------------------------------

@cache
def _layout(r: int, d: tuple):
    return tuple(packed_monomials(r, di) for di in d)


def coefficient_layout(inputs: BoundInputs):
    """Packed monomial slots per generator, in canonical descending
    order."""
    return _layout(inputs.r, tuple(inputs.d))


def _system_from_digits(inputs: BoundInputs, field: Field,
                        digits) -> PolySystem:
    """Fill the layout slot by slot from the iterator ``digits`` of
    element indices."""
    polys = []
    for mons in coefficient_layout(inputs):
        # zip pulls a digit only while the generator has a slot left
        terms = {m: dig for m, dig in zip(mons, digits) if dig}
        polys.append(Poly.from_packed(field, inputs.r, terms))
    return PolySystem(field, inputs.r, inputs.s, tuple(inputs.d),
                      tuple(polys))


def sample_system(inputs: BoundInputs, field: Field,
                  stream: HashStream) -> PolySystem:
    """One uniform draw from the coefficient space F_{d_s}.

    Each slot takes one ``stream.randint(q)``, in layout order.
    """
    return _system_from_digits(
        inputs, field, iter(lambda: stream.randint(field.q), None))


def census_size(inputs: BoundInputs) -> int:
    return inputs.q ** inputs.dim_f


def system_from_census_index(inputs: BoundInputs, field: Field,
                             index: int) -> PolySystem:
    """Decode a census index to a system.

    Systems are ordered lexicographically by their coefficient vector
    read along the layout (generator by generator, monomials
    descending), most significant digit first.
    """
    digits = _digits(index, field.q, inputs.dim_f)
    return _system_from_digits(inputs, field, reversed(digits))


# -- the worker (top level so it pickles) -----------------------------------

def _chunk(args):
    """Classify the systems of indices [start, stop); (counts, rows)."""
    config, field, start, stop, want_rows = args
    inputs = config.inputs
    rows = [] if want_rows else None
    # equal reports are kept once, as [report, count]: the counts merge
    # once per distinct report, and the pickled rows share the reports
    shared = {}
    for idx in range(start, stop):
        if config.mode == "census":
            system = system_from_census_index(inputs, field, idx)
        else:
            system = sample_system(inputs, field,
                                   HashStream("sample", config.seed, idx))
        rep = classify(system)
        entry = shared.setdefault(rep, [rep, 0])
        entry[1] += 1
        if want_rows:
            rows.append((idx, entry[0]))
    acc = OutcomeCounts.zero(inputs.s)
    for rep, n in shared.values():
        acc = acc + OutcomeCounts.from_report(rep, n)
    return acc, rows


def _ranges(total: int, chunks: int):
    chunks = max(1, min(chunks, total)) if total else 1
    step = (total + chunks - 1) // chunks
    return [(a, min(a + step, total)) for a in range(0, total, step)]


def _map_chunks(worker, jobs, threads: int):
    # --threads is outside input: never more processes than usable CPUs
    workers = min(_workers(threads), len(jobs))
    if workers <= 1:
        return [worker(j) for j in jobs]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(worker, jobs)


def default_threads() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one (taskset and cpusets narrow it), else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(threads: int) -> int:
    """The processes a run of ``threads`` may use: at most the CPUs."""
    return min(threads, default_threads())


# -- interval and verdict machinery ---------------------------------------

def _binom_cdf(x: int, n: int):
    """p -> P[Bin(n, p) <= x], exact up to float evaluation of each term.

    The log binomial coefficients depend on (x, n) alone, so a solve
    computes them once and each bisection step only adds the p terms.
    """
    top = math.lgamma(n + 1)
    log_binom = [top - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                 for j in range(x + 1)]

    def cdf(p: float) -> float:
        if p <= 0.0:
            return 1.0
        if p >= 1.0:
            return 1.0 if x >= n else 0.0
        lp, l1p = math.log(p), math.log1p(-p)
        total = 0.0
        for j, c in enumerate(log_binom):
            total += math.exp(c + j * lp + (n - j) * l1p)
        return min(total, 1.0)

    return cdf


def _solve_decreasing(fn, target: float) -> float:
    """Root of a decreasing fn on (0, 1) by bisection, 100 steps at most.

    Once the midpoint equals an end of the bracket no later step moves
    it, so it is returned then.
    """
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return mid
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def cp_upper_one_sided(x: int, n: int, confidence: float) -> float:
    """One-sided Clopper-Pearson upper bound at the given confidence."""
    if x >= n:
        return 1.0
    alpha = 1.0 - confidence
    return _solve_decreasing(_binom_cdf(x, n), alpha)


def _cp_low(x: int, n: int, confidence: float) -> float:
    """Lower end of the two-sided equal-tailed Clopper-Pearson interval."""
    if x == 0:
        return 0.0
    # P[X >= x] = alpha/2, i.e. cdf(x-1) = 1 - alpha/2
    alpha = 1.0 - confidence
    return _solve_decreasing(_binom_cdf(x - 1, n), 1.0 - alpha / 2)


def cp_interval(x: int, n: int, confidence: float):
    """Two-sided equal-tailed Clopper-Pearson interval."""
    alpha = 1.0 - confidence
    hi = 1.0 if x == n else _solve_decreasing(_binom_cdf(x, n), alpha / 2)
    return _cp_low(x, n, confidence), hi


def _verdict(lower, upper, bound) -> str:
    """PASS when the upper side is within ``bound``, FAIL when the lower
    side already exceeds it, NOT_VERIFIED in between; compared exactly."""
    if Fraction(upper) <= bound:
        return "PASS"
    if Fraction(lower) > bound:
        return "FAIL"
    return "NOT_VERIFIED"


def _verdicts(counts: OutcomeCounts, bounds: BoundReport, mode: str,
              confidence: float):
    """(verdict_B1, verdict_B2, p_1's Clopper-Pearson numbers).

    INAPPLICABLE and VACUOUS_PASS (a probability bound >= 1, reported,
    never passed silently) come first; every other verdict is
    ``_verdict`` on two sides of the bound.  A census compares exact
    counts with the count bound: B_1's two sides are both ``in_B1``, so
    it never reads NOT_VERIFIED, and B_2's are the certified bracket
    [in_B2_lower, in_B2_upper].  Monte Carlo's sides, compared with the
    probability bound, are the lower end of the two-sided interval of
    the lower count and the one-sided upper bound of the upper count.
    p_1's numbers (low, high, one-sided upper) are solved here once;
    every report carries them.
    """
    n, x = counts.n, counts.in_B1
    p1 = (*cp_interval(x, n, confidence),
          cp_upper_one_sided(x, n, confidence))
    if not bounds.applicable:
        return "INAPPLICABLE", "INAPPLICABLE", p1

    census = mode == "census"
    v1 = v2 = "VACUOUS_PASS"
    if not bounds.vacuous_B1:
        v1 = (_verdict(x, x, bounds.count_B1) if census
              else _verdict(p1[0], p1[2], bounds.prob_B1))
    if not bounds.vacuous_B2:
        lower, upper = counts.in_B2_lower, counts.in_B2_upper
        v2 = (_verdict(lower, upper, bounds.count_B2) if census
              else _verdict(_cp_low(lower, n, confidence),
                            cp_upper_one_sided(upper, n, confidence),
                            bounds.prob_B2))
    return v1, v2, p1


def _assemble(config: ExperimentConfig, counts: OutcomeCounts,
              t0: float) -> EstimateReport:
    bounds = derive(config.inputs)
    n = counts.n
    v1, v2, (lo, hi, p1_upper) = _verdicts(counts, bounds, config.mode,
                                           config.confidence)
    return EstimateReport(
        mode=config.mode,
        inputs=config.inputs,
        seed=config.seed,
        counts=counts,
        bound_report=bounds,
        confidence=config.confidence,
        p1_hat=Fraction(counts.in_B1, n),
        p1_cp_low=lo,
        p1_cp_high=hi,
        p1_cp_upper_one_sided=p1_upper,
        p2_lower_hat=Fraction(counts.in_B2_lower, n),
        p2_upper_hat=Fraction(counts.in_B2_upper, n),
        verdict_B1=v1,
        verdict_B2=v2,
        wall_clock_sec=time.time() - t0,
        threads=config.threads,
    )


def _run(config: ExperimentConfig, total: int, want_rows: bool):
    """Classify indices [0, total) in chunks; (report, rows or None).

    Refuses first, with ``derive``'s check, a shape whose bound report
    would be too long to form, so no system is classified for nothing.
    The field is built here, before any worker starts: a field too large
    to build is refused once, and the forked workers inherit it.
    """
    check_bound_bits(config.inputs)
    t0 = time.time()
    field = config.build_field()
    # four chunks per process that can run
    jobs = [(config, field, a, b, want_rows)
            for a, b in _ranges(total, _workers(config.threads) * 4)]
    counts = OutcomeCounts.zero(config.inputs.s)
    rows = [] if want_rows else None
    for part_counts, part_rows in _map_chunks(_chunk, jobs, config.threads):
        counts = counts + part_counts
        if want_rows:
            rows.extend(part_rows)
    return _assemble(config, counts, t0), rows


def run_monte_carlo(config: ExperimentConfig) -> EstimateReport:
    """Classify n_samples independent uniform draws and compare bounds."""
    if config.mode != "monte_carlo":
        raise ValueError("config mode is not monte_carlo")
    return _run(config, config.n_samples, False)[0]


def run_census(config: ExperimentConfig, dump_rows: bool = False):
    """Classify every system in coefficient order; exact counts.

    Returns (report, rows); rows is None unless ``dump_rows``, in which
    case it lists (census index, ClassificationReport) for every
    system.  Refuses when the census exceeds ``enumeration_budget()``,
    comparing exponents: q^dimF itself is formed only once it fits.
    """
    if config.mode != "census":
        raise ValueError("config mode is not census")
    q, dim_f = config.inputs.q, config.inputs.dim_f
    budget = enumeration_budget()
    if dim_f > max_exponent(q, budget):
        raise BudgetExceeded(q, dim_f, budget, "census")
    return _run(config, census_size(config.inputs), dump_rows)


# -- rank-based oracle for the all-linear case -----------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def matrices_of_rank(m: int, n: int, t: int, q: int) -> int:
    """Count of m-by-n matrices over F_q of rank exactly t."""
    if t < 0 or t > min(m, n):
        return 0
    count = gaussian_binomial(m, t, q)
    for i in range(t):
        count *= q ** n - q ** i
    return count


def linear_census_oracle(inputs: BoundInputs) -> dict:
    """Exact linear-case counts from matrix ranks, no Groebner anywhere.

    For caps all 1 a system is defective (B_1, equivalently B_2: the
    bracket collapses) exactly when its s-by-r matrix of linear parts
    has rank below s, regardless of the constant terms.
    """
    if any(di != 1 for di in inputs.d):
        raise ValueError("linear oracle requires all caps equal to 1")
    r, s, q = inputs.r, inputs.s, inputs.q
    deficient = sum(matrices_of_rank(s, r, t, q) for t in range(s))
    defective = deficient * q ** s
    return {
        "total": q ** (s * (r + 1)),
        "in_B1": defective,
        "in_B2_lower": defective,
        "in_B2_upper": defective,
    }
