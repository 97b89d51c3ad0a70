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
certified bracket, never a point estimate.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .bounds import (
    BoundInputs, BoundReport, BudgetExceeded, decimal_string, derive,
    enumeration_budget,
)
from .classify import (
    CERTIFIED_IRREDUCIBLE, CERTIFIED_REDUCIBLE, DEFAULT_WITNESS_BUDGET,
    ClassificationReport, classify,
)
from .fields import Field, field_make, prime_power_decompose
from .polynomials import Poly, PolySystem, monomials_upto
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
    census_budget: Optional[int] = None
    witness_budget: int = DEFAULT_WITNESS_BUDGET
    confidence: float = CONFIDENCE_DEFAULT
    field_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("monte_carlo", "census"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.n_samples < 1:
            raise ValueError("monte_carlo needs n_samples >= 1")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")

    def build_field(self) -> Field:
        p, k = prime_power_decompose(self.inputs.q)
        return field_make(p, k, self.field_seed)


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
    def from_report(cls, rep: ClassificationReport):
        return cls(
            n=1,
            in_B0=int(rep.in_B0),
            in_B1=int(rep.in_B1),
            in_B2_lower=int(rep.in_B2_lower),
            in_B2_upper=int(rep.in_B2_upper),
            certified_irreducible=int(
                rep.irreducibility == CERTIFIED_IRREDUCIBLE),
            certified_reducible=int(
                rep.irreducibility == CERTIFIED_REDUCIBLE),
            undetermined=int(
                rep.irreducibility not in (CERTIFIED_IRREDUCIBLE,
                                           CERTIFIED_REDUCIBLE)),
            regular_sequence=int(rep.regular_sequence),
            set_theoretic_ci=int(rep.set_theoretic_ci),
            ideal_theoretic_ci=int(rep.ideal_theoretic_ci),
            in_piW_rs=int(rep.in_piW_rs),
            in_piW_rs1=int(rep.in_piW_rs1),
            in_L=int(rep.in_L),
            degree_drop=tuple(int(not full) for full in rep.degree_full),
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
        def frac(f):
            return {"num": f.numerator, "den": f.denominator,
                    "decimal": decimal_string(f) if f else "0"}

        out = {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "inputs": self.inputs.to_json_dict(),
            "seed": self.seed,
            "confidence": self.confidence,
            "counts": self.counts.to_json_dict(),
            "p1_hat": frac(self.p1_hat),
            "p1_cp_low": self.p1_cp_low,
            "p1_cp_high": self.p1_cp_high,
            "p1_cp_upper_one_sided": self.p1_cp_upper_one_sided,
            "p2_lower_hat": frac(self.p2_lower_hat),
            "p2_upper_hat": frac(self.p2_upper_hat),
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

def coefficient_layout(inputs: BoundInputs):
    """Monomial slots per generator, in canonical descending order."""
    return [monomials_upto(inputs.r, di) for di in inputs.d]


def sample_system(inputs: BoundInputs, field: Field,
                  stream: HashStream) -> PolySystem:
    """One uniform draw from the coefficient space F_{d_s}."""
    polys = []
    for mons in coefficient_layout(inputs):
        terms = {}
        for m in mons:
            idx = stream.randint(field.q)
            if idx:
                terms[m] = field.element_from_index(idx)
        polys.append(Poly(field, inputs.r, terms, _clean=True))
    return PolySystem(field, inputs.r, inputs.s, tuple(inputs.d),
                      tuple(polys))


def census_size(inputs: BoundInputs) -> int:
    return inputs.q ** sum(math.comb(di + inputs.r, inputs.r)
                           for di in inputs.d)


def system_from_census_index(inputs: BoundInputs, field: Field,
                             index: int) -> PolySystem:
    """Decode a census index to a system.

    Systems are ordered lexicographically by their coefficient vector
    read along the layout (generator by generator, monomials
    descending), most significant digit first.
    """
    layout = coefficient_layout(inputs)
    width = sum(len(mons) for mons in layout)
    digits = []
    for _ in range(width):
        index, dig = divmod(index, field.q)
        digits.append(dig)
    digits.reverse()
    polys = []
    pos = 0
    for mons in layout:
        terms = {}
        for m in mons:
            dig = digits[pos]
            pos += 1
            if dig:
                terms[m] = field.element_from_index(dig)
        polys.append(Poly(field, inputs.r, terms, _clean=True))
    return PolySystem(field, inputs.r, inputs.s, tuple(inputs.d),
                      tuple(polys))


# -- workers (top level so they pickle) -----------------------------------

def _mc_chunk(args):
    config, start, stop = args
    field = config.build_field()
    acc = OutcomeCounts.zero(config.inputs.s)
    for idx in range(start, stop):
        stream = HashStream("sample", config.seed, idx)
        system = sample_system(config.inputs, field, stream)
        acc = acc + OutcomeCounts.from_report(
            classify(system, config.witness_budget))
    return acc


def _census_chunk(args):
    config, start, stop, want_rows = args
    field = config.build_field()
    acc = OutcomeCounts.zero(config.inputs.s)
    rows = [] if want_rows else None
    # equal reports are kept once, so the pickled rows share them too
    shared = {}
    for idx in range(start, stop):
        system = system_from_census_index(config.inputs, field, idx)
        rep = classify(system, config.witness_budget)
        acc = acc + OutcomeCounts.from_report(rep)
        if want_rows:
            rows.append((idx, shared.setdefault(rep, rep)))
    return acc, rows


def _ranges(total: int, chunks: int):
    chunks = max(1, min(chunks, total)) if total else 1
    step = (total + chunks - 1) // chunks
    return [(a, min(a + step, total)) for a in range(0, total, step)]


def _map_chunks(worker, jobs, threads: int):
    if threads <= 1 or len(jobs) <= 1:
        return [worker(j) for j in jobs]
    with multiprocessing.get_context("fork").Pool(threads) as pool:
        return pool.map(worker, jobs)


def default_threads() -> int:
    return os.cpu_count() or 1


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
    """Root of a decreasing fn on (0, 1) by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
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


def cp_interval(x: int, n: int, confidence: float):
    """Two-sided equal-tailed Clopper-Pearson interval."""
    alpha = 1.0 - confidence
    if x == 0:
        lo = 0.0
    else:
        # lower endpoint: P[X >= x] = alpha/2, i.e. cdf(x-1) = 1 - alpha/2
        lo = _solve_decreasing(_binom_cdf(x - 1, n), 1.0 - alpha / 2)
    if x == n:
        hi = 1.0
    else:
        hi = _solve_decreasing(_binom_cdf(x, n), alpha / 2)
    return lo, hi


def _verdicts(counts: OutcomeCounts, bounds: BoundReport, mode: str,
              confidence: float):
    """PASS / FAIL / NOT_VERIFIED / VACUOUS_PASS / INAPPLICABLE per bound.

    Monte Carlo B_1 passes when the Clopper-Pearson upper bound clears
    the probability bound; census B_1 compares exact counts.  B_2 is
    judged through the certified bracket: PASS when the upper side
    clears the bound, FAIL only when the certified lower side already
    violates it, NOT_VERIFIED in between.  The census compares the
    bracket's exact counts with the count bound; Monte Carlo compares
    the one-sided Clopper-Pearson upper bound of the upper side, and the
    lower end of the two-sided interval of the lower side, with the
    probability bound.  Vacuous bounds (probability >= 1) are reported
    as VACUOUS_PASS, never silently.
    """
    if not bounds.applicable:
        return "INAPPLICABLE", "INAPPLICABLE"
    n = counts.n

    if bounds.vacuous_B1:
        v1 = "VACUOUS_PASS"
    elif mode == "census":
        v1 = "PASS" if counts.in_B1 <= bounds.count_B1 else "FAIL"
    else:
        upper = cp_upper_one_sided(counts.in_B1, n, confidence)
        v1 = "PASS" if Fraction(upper) <= bounds.prob_B1 else "NOT_VERIFIED"

    if bounds.vacuous_B2:
        v2 = "VACUOUS_PASS"
    elif mode == "census":
        if counts.in_B2_upper <= bounds.count_B2:
            v2 = "PASS"
        elif counts.in_B2_lower > bounds.count_B2:
            v2 = "FAIL"
        else:
            v2 = "NOT_VERIFIED"
    else:
        upper = cp_upper_one_sided(counts.in_B2_upper, n, confidence)
        lower, _ = cp_interval(counts.in_B2_lower, n, confidence)
        if Fraction(upper) <= bounds.prob_B2:
            v2 = "PASS"
        elif Fraction(lower) > bounds.prob_B2:
            v2 = "FAIL"
        else:
            v2 = "NOT_VERIFIED"
    return v1, v2


def _assemble(config: ExperimentConfig, counts: OutcomeCounts,
              t0: float) -> EstimateReport:
    bounds = derive(config.inputs)
    n = counts.n
    v1, v2 = _verdicts(counts, bounds, config.mode, config.confidence)
    lo, hi = cp_interval(counts.in_B1, n, config.confidence)
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
        p1_cp_upper_one_sided=cp_upper_one_sided(
            counts.in_B1, n, config.confidence),
        p2_lower_hat=Fraction(counts.in_B2_lower, n),
        p2_upper_hat=Fraction(counts.in_B2_upper, n),
        verdict_B1=v1,
        verdict_B2=v2,
        wall_clock_sec=time.time() - t0,
        threads=config.threads,
    )


def run_monte_carlo(config: ExperimentConfig) -> EstimateReport:
    """Classify n_samples independent uniform draws and compare bounds."""
    if config.mode != "monte_carlo":
        raise ValueError("config mode is not monte_carlo")
    t0 = time.time()
    jobs = [(config, a, b)
            for a, b in _ranges(config.n_samples, config.threads * 4)]
    parts = _map_chunks(_mc_chunk, jobs, config.threads)
    counts = OutcomeCounts.zero(config.inputs.s)
    for part in parts:
        counts = counts + part
    return _assemble(config, counts, t0)


def run_census(config: ExperimentConfig, dump_rows: bool = False):
    """Classify every system in coefficient order; exact counts.

    Returns (report, rows); rows is None unless ``dump_rows``, in which
    case it lists (census index, ClassificationReport) for every
    system.  Refuses when the census exceeds the budget.
    """
    if config.mode != "census":
        raise ValueError("config mode is not census")
    t0 = time.time()
    total = census_size(config.inputs)
    budget = (config.census_budget if config.census_budget is not None
              else enumeration_budget())
    if total > budget:
        raise BudgetExceeded(total, budget, "census")
    jobs = [(config, a, b, dump_rows)
            for a, b in _ranges(total, config.threads * 4)]
    parts = _map_chunks(_census_chunk, jobs, config.threads)
    counts = OutcomeCounts.zero(config.inputs.s)
    rows = [] if dump_rows else None
    for part_counts, part_rows in parts:
        counts = counts + part_counts
        if dump_rows:
            rows.extend(part_rows)
    return _assemble(config, counts, t0), rows


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
