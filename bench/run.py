#!/usr/bin/env python3
"""Benchmark for defectus: how fast systems over F_q are classified.

    python3 bench/run.py --workload mc_q101 --seed 42 --seconds 30 --trace 0

A run is whole rounds of run_monte_carlo or run_census on up to nproc
worker processes.  With --trace 0 every classify call the workers make
is timed, and the run prints the end-to-end metrics.  With --trace 1 the
rounds take half of --seconds, and a serial pass then classifies the
round-0 systems (a sample of the census) with spans around the
library's calls and prints the per-layer metrics.  Every output is
checked by bench/checks.py outside the timed regions.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from statistics import fmean, median, quantiles
from time import perf_counter

import checks
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

R, S = 3, 2
CONFIDENCE = 0.99
ROUND_SEED_STRIDE = 1_000_000   # Monte Carlo seed of round k: seed + k*stride
TRACED_SHARE = 1 / 2            # share of --seconds a traced run gives rounds
SETUP_PROBES = 11
COUNTING_SYSTEMS = 20           # systems in the field-call counting pass
MICRO_SECONDS = 0.05            # minimum time of one microkernel repeat
MICRO_REPEATS = 5

# serial: systems in the traced serial pass, which for Monte Carlo is
# also the round size.  min_rounds keeps the Monte Carlo sample large
# enough for the Clopper-Pearson check to mean something.
WORKLOADS = {
    "mc_q101": {"mode": "monte_carlo", "q": 101, "d": (2, 2),
                "serial": 200, "min_rounds": 2},
    "mc_q4": {"mode": "monte_carlo", "q": 4, "d": (2, 2),
              "serial": 200, "min_rounds": 1},
    "census_q2": {"mode": "census", "q": 2, "d": (2, 1),
                  "serial": 1000, "min_rounds": 1},
}


def load_library():
    """Import defectus from this checkout's src/, and from nowhere else."""
    if not (SRC / "defectus" / "__init__.py").is_file():
        raise SystemExit(f"error: no defectus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import defectus
    if Path(defectus.__file__).resolve().parent != SRC / "defectus":
        raise SystemExit(f"error: defectus imported from {defectus.__file__}")
    return defectus


@dataclass
class Prepared:
    spec: dict
    inputs: object
    field: object
    keys: list          # sample index (Monte Carlo) or census index
    systems: list


def setup(lib, spec):
    """What a run builds before its first timed call: inputs and field."""
    inputs = lib.BoundInputs(R, S, spec["q"], spec["d"])
    p, k = lib.prime_power_decompose(spec["q"])
    return inputs, lib.field_make(p, k, 0)


def prepare(lib, spec, seed, inputs, field):
    """The traced serial pass's systems."""
    if spec["mode"] == "monte_carlo":
        # the streams run_monte_carlo gives samples 0.. of seed ``seed``
        keys = list(range(spec["serial"]))
        systems = [lib.sample_system(inputs, field,
                                     lib.HashStream("sample", seed, i))
                   for i in keys]
    else:
        total = checks.census_counts(spec["q"], R, spec["d"])["n"]
        keys = sorted(random.Random(seed).sample(range(total), spec["serial"]))
        systems = [lib.system_from_census_index(inputs, field, i)
                   for i in keys]
    return Prepared(spec, inputs, field, keys, systems)


def measure_setup(args):
    """Median wall time from spawning a fresh interpreter to 'ready':
    interpreter start, import of defectus and ``setup``."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", args.workload,
                 "--seed", str(args.seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit("error: setup probe failed")
    return median(times)


# -- checking ----------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = dc_field(default_factory=list)

    def record(self, n, bad, problems):
        self.attempted += n
        self.failed += bad
        self.problems.extend(problems)


def library_terms(system, p):
    return [{m: checks.element_index(c, p) for m, c in f.terms.items()}
            for f in system.polys]


def system_problems(rep, polys, scan):
    """Per-report implications, plus a point scan of every in_B0 system."""
    out = checks.report_violations(rep, R, S)
    if rep.in_B0 and scan.has_zero(polys):
        out.append(f"in_B0 but a zero exists over {scan.scope}")
    return out


def bound_problems(rep, spec):
    applicable, prob_b1, prob_b2 = checks.paper_bounds(R, S, spec["q"],
                                                       spec["d"])
    b = rep.bound_report
    out = []
    if b.applicable != applicable or b.prob_B1 != prob_b1 \
            or b.prob_B2 != prob_b2:
        out.append("bound report differs from the paper's formulas")
    if not applicable:
        expected = ("INAPPLICABLE", "INAPPLICABLE")
    else:
        expected = tuple("VACUOUS_PASS" if pb >= 1 else None
                         for pb in (prob_b1, prob_b2))
    for got, want in zip((rep.verdict_B1, rep.verdict_B2), expected):
        if want is not None and got != want:
            out.append(f"verdict {got}, expected {want}")
    if spec["mode"] == "monte_carlo":
        lo, hi = checks.cp_upper_bracket(rep.counts.in_B1, rep.counts.n,
                                         CONFIDENCE)
        if abs(rep.p1_cp_upper_one_sided - float((lo + hi) / 2)) > 1e-9:
            out.append(f"p1_cp_upper_one_sided {rep.p1_cp_upper_one_sided} "
                       f"!= exact {float(lo)}")
    return out


def check_census_round(rep, rows, records, spec, scan, tally):
    """``records``: the timed classify calls, or None when untimed."""
    q, caps = spec["q"], spec["d"]
    expected = checks.census_counts(q, R, caps)
    counts = rep.counts.to_json_dict()
    whole = bound_problems(rep, spec)
    for key in ("n", "degree_drop", "in_L"):
        if counts[key] != expected[key]:
            whole.append(f"census {key} {counts[key]} != {expected[key]}")
    if records is not None and len(records) != expected["n"]:
        whole.append(f"{len(records)} classify calls timed, "
                     f"expected {expected['n']}")
    if [idx for idx, _ in rows] != list(range(expected["n"])):
        whole.append("census rows do not cover every index once")
    if checks.counts_of([r for _, r in rows], S) != counts:
        whole.append("census counts differ from the sum of its rows")
    bad_rows, problems = 0, []
    for idx, row in rows:
        polys = checks.decode_census_index(idx, q, R, caps) \
            if row.in_B0 else None
        row_problems = system_problems(row, polys, scan)
        bad_rows += bool(row_problems)
        problems.extend(f"census index {idx}: {p}" for p in row_problems)
    n = rep.counts.n
    tally.record(n, n if whole else bad_rows, whole + problems)


def check_monte_carlo_round(k, rep, records, spec, scan, p, tally):
    """``records``: the timed classify calls with their reports, or None.

    Every report is checked, and the benchmark's own sum of the reports
    must equal the round's counts; a problem with the round as a whole
    fails all of its systems.
    """
    n = spec["serial"]
    whole = bound_problems(rep, spec)
    if rep.counts.n != n:
        whole.append(f"round {k} classified {rep.counts.n}")
    bad, problems = 0, []
    if records is not None:
        reports = [r for _, r, _ in records]
        if len(reports) != n:
            whole.append(f"round {k}: {len(reports)} classify calls "
                         f"timed, expected {n}")
        elif checks.counts_of(reports, S) != rep.counts.to_json_dict():
            whole.append(f"round {k}: its reports do not sum to its counts")
        for i, (_, report, system) in enumerate(records):
            polys = library_terms(system, p) if report.in_B0 else None
            found = system_problems(report, polys, scan)
            bad += bool(found)
            problems.extend(f"round {k} call {i}: {m}" for m in found)
    tally.record(n, n if whole else bad, whole + problems)


def check_serial(prep, reports, scan, tally, reference):
    """``reference``: census rows by index, or round 0's Monte Carlo report.

    A serial-pass system fails on its own problems, and every one fails
    when the pass as a whole disagrees with its parallel round.
    """
    census = prep.spec["mode"] == "census"
    whole = []
    if reference is None:
        whole.append("no parallel round to compare the serial pass with")
    elif not census and (None in reports or checks.counts_of(
            reports, S) != reference.counts.to_json_dict()):
        whole.append("serial counts differ from the parallel round's counts")
    p = prep.field.p
    for key, system, rep in zip(prep.keys, prep.systems, reports):
        if rep is None:
            tally.record(1, 1, [f"system {key}: classify raised"])
            continue
        problems = system_problems(rep, library_terms(system, p), scan)
        if census and reference is not None and \
                rep.to_json_dict() != reference[key].to_json_dict():
            problems.append("serial report differs from the census row")
        tally.record(1, bool(problems or whole),
                     [f"system {key}: {m}" for m in problems])
    tally.record(0, 0, whole)


def check_monte_carlo_total(rounds, spec, tally):
    """One-sided 99% CP over all rounds must clear both bounds."""
    _, prob_b1, prob_b2 = checks.paper_bounds(R, S, spec["q"], spec["d"])
    if prob_b1 >= 1 and prob_b2 >= 1:
        return
    n = sum(r.counts.n for r in rounds)
    for name, bound in (("in_B1", prob_b1), ("in_B2_upper", prob_b2)):
        x = sum(getattr(r.counts, name) for r in rounds)
        if not checks.cp_upper_clears(x, n, bound, CONFIDENCE):
            tally.record(0, n, [f"CP upper bound of {name}={x}/{n} does "
                                f"not clear {bound}"])


# -- passes ------------------------------------------------------------------

def parallel_pass(lib, spec, inputs, seed, budget, workers, scan, p, tally,
                  capture):
    """Whole rounds, checked between rounds, for about ``budget`` timed
    seconds: another round starts only while its projected end lies
    nearer ``budget`` than the time spent so far.

    With ``capture``, a scratch file, every classify call of the rounds
    is timed.  Returns the round reports, the seconds spent inside the
    rounds, round 0's census rows by index (census without ``capture``,
    for the traced pass) and the classify latencies in seconds.
    """
    monte_carlo = spec["mode"] == "monte_carlo"
    rounds, timed, census_rows, latencies = [], 0.0, None, []
    while len(rounds) < spec["min_rounds"] or \
            timed + timed / len(rounds) / 2 < budget:
        k = len(rounds)
        calls = tracing.timed_classify_calls(capture, monte_carlo) \
            if capture else nullcontext(None)
        try:
            if monte_carlo:
                config = lib.ExperimentConfig(
                    inputs=inputs, mode="monte_carlo",
                    n_samples=spec["serial"],
                    seed=seed + k * ROUND_SEED_STRIDE, threads=workers)
                with calls as records:
                    t0 = perf_counter()
                    rep = lib.run_monte_carlo(config)
                    timed += perf_counter() - t0
            else:
                config = lib.ExperimentConfig(
                    inputs=inputs, mode="census", threads=workers)
                with calls as records:
                    t0 = perf_counter()
                    rep, rows = lib.run_census(config, dump_rows=True)
                    timed += perf_counter() - t0
        except Exception:  # noqa: BLE001 - a crash is a failed round
            traceback.print_exc()
            n = spec["serial"] if spec["mode"] == "monte_carlo" else \
                checks.census_counts(spec["q"], R, spec["d"])["n"]
            tally.record(n, n, [f"round {k} raised"])
            rounds.append(None)
            break
        rounds.append(rep)
        if records is not None:
            latencies.extend(r[0] for r in records)
        if monte_carlo:
            check_monte_carlo_round(k, rep, records, spec, scan, p, tally)
        else:
            check_census_round(rep, rows, records, spec, scan, tally)
            if census_rows is None and not capture:
                census_rows = dict(rows)
    done = [r for r in rounds if r is not None]
    if monte_carlo and done:
        check_monte_carlo_total(done, spec, tally)
    return rounds, timed, census_rows, latencies


def traced_pass(classify_fn, prep, tracer):
    """Classify each system untraced, then again under spans right after,
    so that drift in machine speed hits both timings alike.

    Returns (reports, seconds, traced reports, traced seconds).
    """
    out = ([], [], [], [])
    for key, system in zip(prep.keys, prep.systems):
        try:
            t0 = perf_counter()
            rep = classify_fn(system)
            out[1].append(perf_counter() - t0)
            tracer.system = key
            top = len(tracer.spans)
            with tracer.patched():
                out[2].append(tracer.call("classify", classify_fn, system))
            out[3].append(tracer.spans[top][2] - tracer.spans[top][1])
        except Exception:  # noqa: BLE001 - a crash is a failed system
            traceback.print_exc()
            rep = None
            if len(out[2]) == len(out[0]):
                out[2].append(None)
        out[0].append(rep)
    return out


def per_call(fn, arglists):
    """Median over repeats of seconds per call, each repeat >= MICRO_SECONDS."""
    results = []
    for _ in range(MICRO_REPEATS):
        calls, t0 = 0, perf_counter()
        while True:
            for a in arglists:
                fn(*a)
            calls += len(arglists)
            elapsed = perf_counter() - t0
            if elapsed >= MICRO_SECONDS:
                break
        results.append(elapsed / calls)
    return median(results)


def microkernels(lib, prep, seed, counts):
    """Per-layer kernels on the workload's own field and shape."""
    rng = random.Random(seed)
    field, q = prep.field, prep.field.q
    elems = [field.element_from_index(rng.randrange(1, q)) for _ in range(512)]
    pairs = list(zip(elems[::2], elems[1::2]))
    mons = checks.layout(R, prep.spec["d"][:1])[0]
    f, g = (lib.Poly(field, R, {m: field.element_from_index(rng.randrange(1, q))
                                for m in mons}) for _ in range(2))
    census_n = checks.census_counts(q, R, prep.spec["d"])["n"]
    indices = [(rng.randrange(census_n),) for _ in range(64)]
    streams = [(i,) for i in range(64)]

    def sample(i):
        return lib.sample_system(prep.inputs, field,
                                 lib.HashStream("sample", seed, i))

    def decode(i):
        return lib.system_from_census_index(prep.inputs, field, i)

    t0 = perf_counter()
    lib.cp_interval(counts.in_B1, counts.n, CONFIDENCE)
    lib.cp_upper_one_sided(counts.in_B1, counts.n, CONFIDENCE)
    cp_seconds = perf_counter() - t0
    return {
        "fields.mul_ns": per_call(field.mul, pairs) * 1e9,
        "fields.inv_ns": per_call(field.inv, [(a,) for a in elems]) * 1e9,
        "polynomials.poly_mul_us": per_call(lib.Poly.__mul__, [(f, g)]) * 1e6,
        "experiment.sample_us": per_call(sample, streams) * 1e6,
        "experiment.decode_us": per_call(decode, indices) * 1e6,
        "experiment.cp_ms": cp_seconds * 1e3,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def report_digest(rep):
    """SHA-256 of the bytes `defectus sample|census --no-meta` prints."""
    text = json.dumps(rep.to_json_dict(include_meta=False), indent=2,
                      sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# -- main --------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(load_library(), spec)
        print("ready", flush=True)
        return 0
    lib = load_library()
    setup_s = None if args.trace else measure_setup(args)
    inputs, field = setup(lib, spec)
    workers = len(os.sched_getaffinity(0))
    p, k = lib.prime_power_decompose(spec["q"])
    scan = checks.ZeroScan(p, k, getattr(field, "modulus", None), R,
                           max(spec["d"]))
    tally = Tally()
    OUT.mkdir(exist_ok=True)

    budget = args.seconds * (TRACED_SHARE if args.trace else 1.0)
    capture = None if args.trace else OUT / f"calls-{os.getpid()}.bin"
    rounds, par_seconds, census_rows, latencies = parallel_pass(
        lib, spec, inputs, args.seed, budget, workers, scan, p, tally,
        capture)
    par_systems = sum(r.counts.n for r in rounds if r is not None)
    if rounds[0] is not None:
        print(f"rounds={len(rounds)} round0_report_sha256="
              f"{report_digest(rounds[0])}", file=sys.stderr)

    if args.trace:
        prep = prepare(lib, spec, args.seed, inputs, field)
        clsmod = tracing.resolve("defectus.classify", "classify")
        tracer = tracing.Tracer()
        reports, seconds, traced, traced_seconds = traced_pass(
            clsmod.classify, prep, tracer)
        mismatched = sum(a is None or b is None
                         or a.to_json_dict() != b.to_json_dict()
                         for a, b in zip(reports, traced))
        tally.record(len(traced), mismatched, [
            f"{mismatched} traced reports differ"] if mismatched else [])
        reference = census_rows if spec["mode"] == "census" else rounds[0]
        check_serial(prep, reports, scan, tally, reference)

        counts = {"mul": 0, "inv": 0}
        with tracing.counting_field_calls(field, counts):
            for system in prep.systems[:COUNTING_SYSTEMS]:
                clsmod.classify(system)
        metrics = tracer.metrics(len(prep.systems))
        last = next(r for r in reversed(rounds) if r is not None)
        metrics.update(microkernels(lib, prep, args.seed, last.counts))
        metrics.update({
            "fields.mul_calls_per_system": counts["mul"] / COUNTING_SYSTEMS,
            "fields.inv_calls_per_system": counts["inv"] / COUNTING_SYSTEMS,
            "experiment.parallel_efficiency":
                fmean(seconds) * par_systems / (workers * par_seconds),
            "trace.overhead_pct":
                (sum(traced_seconds) / sum(seconds) - 1.0) * 100.0,
        })
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        if len(latencies) < 2:
            raise SystemExit("error: too few classify calls were timed")
        metrics = {
            "systems_per_s": par_systems / par_seconds,
            "classify_ms_p50": median(latencies) * 1e3,
            "classify_ms_p95": quantiles(latencies, n=20)[18] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


END_TO_END_UNITS = {
    "systems_per_s": "1/s", "classify_ms_p50": "ms", "classify_ms_p95": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "classify.affine_basis_ms": "ms",
    "classify.initial_form_ms": "ms",
    "classify.regular_sequence_ms": "ms",
    "classify.rank_defect_ms": "ms",
    "classify.fiber_dim_ms": "ms",
    "classify.witness_ms": "ms",
    "classify.self_ms": "ms",
    "classify.regular_sequence_calls": "count",
    "classify.witness_calls": "count",
    "classify.witness_hit_ratio": "ratio",
    "groebner.calls_per_system": "count",
    "groebner.ms_per_call": "ms",
    "groebner.basis_len_mean": "count",
    "groebner.colon_ideal_ms": "ms",
    "groebner.colon_ideal_calls": "count",
    "groebner.normal_form_calls": "count",
    "polynomials.jacobian_minors_ms": "ms",
    "polynomials.poly_mul_us": "us",
    "fields.mul_ns": "ns",
    "fields.inv_ns": "ns",
    "fields.mul_calls_per_system": "count",
    "fields.inv_calls_per_system": "count",
    "experiment.sample_us": "us",
    "experiment.decode_us": "us",
    "experiment.cp_ms": "ms",
    "experiment.parallel_efficiency": "ratio",
    "trace.overhead_pct": "%",
}


if __name__ == "__main__":
    sys.exit(main())
