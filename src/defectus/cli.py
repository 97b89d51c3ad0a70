"""Command-line front end.

Subcommands: ``bounds`` (closed-form bound report), ``classify`` (one
system from a JSON file), ``sample`` (seeded Monte Carlo estimate),
``census`` (exhaustive exact count) and ``selftest``.  All output is
JSON on stdout or ``--out``; reports are byte-stable for fixed inputs
and seed once ``--no-meta`` drops the timing block.  Exit codes:
0 success, 2 validation error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, nullcontext

from .bounds import BoundInputs, BudgetExceeded, derive
from .classify import classify
from .experiment import (
    ExperimentConfig, default_threads, linear_census_oracle,
    run_census, run_monte_carlo,
)
from .fields import extension_of, field_make, prime_power_decompose
from .polynomials import PolySystem


class _Parser(argparse.ArgumentParser):
    """argparse with one-line machine-parsable diagnostics."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_d(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--d must be a comma list of integers: {text!r}")


@contextmanager
def _whole_ints():
    """Lift the interpreter's int/str digit limit: exact bounds such as
    count_B1, and q itself, can run past it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _whole_int(text: str) -> int:
    with _whole_ints():
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _add_shape_flags(sub):
    sub.add_argument("--q", type=_whole_int, required=True,
                     help="field order (a prime power)")
    sub.add_argument("--r", type=int, required=True, help="ambient dimension")
    sub.add_argument("--s", type=int, required=True, help="system length")
    sub.add_argument("--d", type=str, required=True,
                     help="comma list of degree caps, e.g. 2,2")
    sub.add_argument("--k", type=int, default=None,
                     help="extension degree (validated against --q)")


def _add_output_flags(sub):
    sub.add_argument("--out", type=str, default=None,
                     help="write the report here instead of stdout")


def _prime_power_from_flags(args):
    """(p, k) with p^k = --q, and --k checked against k; no field is
    built, so ``bounds`` decides at any q."""
    p, k = prime_power_decompose(args.q)
    if args.k is not None and args.k != k:
        raise ValueError(f"--k {args.k} inconsistent with --q = {p}^{k}")
    return p, k


def _field_from_flags(args):
    return field_make(*_prime_power_from_flags(args), 0)


def _dumps(obj) -> str:
    """Report text with every int printed whole."""
    with _whole_ints():
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextmanager
def _writing():
    """A failed open, write, flush or close of an output is a validation
    error."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}")


@contextmanager
def _output(path: str, **kwargs):
    """``open(path, "w")``, closed, and so flushed, under ``_writing``."""
    with _writing():
        fh = open(path, "w", **kwargs)
    try:
        yield fh
    finally:
        with _writing():
            fh.close()


def _emit(obj, args) -> None:
    # flushed here, so that stdout fails inside the handled region and
    # not at the interpreter's exit
    with _writing():
        try:
            args.stream.write(_dumps(obj))
            args.stream.flush()
        except OSError:
            if args.stream is sys.stdout:
                _silence_stdout()
            raise


def _silence_stdout() -> None:
    """Point stdout at the null device.  A failed flush may keep its bytes
    buffered, and the interpreter flushes stdout again at exit: that flush
    must not fail a second time and turn exit 2 into 120."""
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, sys.stdout.fileno())
    finally:
        os.close(null)


def _cmd_bounds(args) -> int:
    inputs = BoundInputs(args.r, args.s, args.q, _parse_d(args.d))
    _prime_power_from_flags(args)  # validates --k against --q
    _emit(derive(inputs).to_json_dict(), args)
    return 0


def _cmd_classify(args) -> int:
    field = _field_from_flags(args)
    caps = _parse_d(args.d)
    BoundInputs(args.r, args.s, args.q, caps)  # validates the shape
    try:
        with open(args.system) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read system file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed system file: {exc}")
    system = PolySystem.from_json_dict(field, obj, r=args.r, s=args.s,
                                       caps=caps)
    _emit(classify(system).to_json_dict(), args)
    return 0


def _experiment_config(args, mode: str) -> ExperimentConfig:
    inputs = BoundInputs(args.r, args.s, args.q, _parse_d(args.d))
    _field_from_flags(args)  # validates --k and the field's budget
    return ExperimentConfig(
        inputs=inputs,
        mode=mode,
        n_samples=getattr(args, "n", 0),
        seed=args.seed,
        threads=args.threads,
        confidence=args.confidence,
    )


def _cmd_sample(args) -> int:
    report = run_monte_carlo(_experiment_config(args, "monte_carlo"))
    _emit(report.to_json_dict(include_meta=not args.no_meta), args)
    return 0


_CSV_COLUMNS = (
    "index", "in_L", "in_B0", "regular_sequence", "set_theoretic_ci",
    "ideal_theoretic_ci", "fiber_dim", "irreducibility", "in_B1",
    "in_B2_lower", "in_B2_upper",
)


def _cmd_census(args) -> int:
    config = _experiment_config(args, "census")
    if args.dump_csv is None:
        report, _ = run_census(config)
    else:
        # opened first, so an unwritable path fails before any system
        with _output(args.dump_csv, newline="") as fh:
            report, rows = run_census(config, dump_rows=True)
            writer = csv.writer(fh)
            with _writing():
                writer.writerow(_CSV_COLUMNS)
                for idx, rep in rows:
                    values = [getattr(rep, name)
                              for name in _CSV_COLUMNS[1:]]
                    writer.writerow([idx] + [int(v) if isinstance(v, bool)
                                             else v for v in values])
    _emit(report.to_json_dict(include_meta=not args.no_meta), args)
    return 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            print(f"ok - {name}")
        except Exception as exc:  # noqa: BLE001 - selftest reports everything
            failures += 1
            print(f"FAIL - {name}: {exc}")

    def field_axioms():
        from .rng import HashStream
        f4 = field_make(2, 2, 0)
        # the large fields exercise the ring product's Kronecker form
        # (F_101^4), its schoolbook form on a tower (F_4^10) and Euclid's
        # inverse on both
        for field in (field_make(7, 1), f4,
                      extension_of(field_make(101, 1), 4),
                      extension_of(f4, 10)):
            stream = HashStream("selftest", field.q)
            for _ in range(50):
                a, b, c = (field.element_from_index(stream.randint(field.q))
                           for _ in range(3))
                assert field.mul(a, field.add(b, c)) == \
                    field.add(field.mul(a, b), field.mul(a, c))
                if a != field.zero:
                    assert field.mul(a, field.inv(a)) == field.one

    def groebner_basics():
        from .groebner import groebner, colon_ideal, ideal_dimension
        from .polynomials import Poly
        f7 = field_make(7, 1)
        x1 = Poly.variable(f7, 3, 0)
        x2 = Poly.variable(f7, 3, 1)
        one = Poly.constant(f7, 3, f7.one)
        assert groebner([x1, x1 + one]).is_unit
        gb = groebner([x1 * x1, x1 * x2])
        assert colon_ideal(gb, x1) == groebner([x1, x2])
        assert ideal_dimension(groebner([x1, x2])) == 1

    def rank_test_f4():
        from .polynomials import Poly
        from .resultant import matrix_rank, resultant_vanishes
        f4 = field_make(2, 2, 0)
        x = [Poly.variable(f4, 3, i) for i in range(3)]
        assert not resultant_vanishes([v * v for v in x], (2, 2, 2))
        assert resultant_vanishes([x[0] * x[1], x[0] * x[2], x[1] * x[2]],
                                  (2, 2, 2))
        # row 3 = row 1 + t^2 * row 2 (t = 2, t^2 = 3, t^3 = 1): neither
        # bit masks nor ints mod 2 see this dependency
        rows = [[1, 2, 0], [0, 1, 2], [1, 1, 1]]
        assert matrix_rank(rows, f4) == 2
        assert matrix_rank(rows[:2] + [[0, 0, 1]], f4) == 3

    def resultant_vanishing():
        from .resultant import resultant_vanishes
        from .polynomials import Poly
        f101 = field_make(101, 1)
        x = [Poly.variable(f101, 3, i) for i in range(3)]
        powers = [v * v for v in x]
        assert not resultant_vanishes(powers, (2, 2, 2))
        # X1 = X2 = 0 kills all three products: common zero (0:0:1)
        products = [x[0] * x[1], x[0] * x[2], x[1] * x[2]]
        assert resultant_vanishes(products, (2, 2, 2))
        assert resultant_vanishes([Poly.zero(f101, 3)] + powers[1:],
                                  (2, 2, 2))

    def fiber_rank_test():
        from .polynomials import Poly, jacobian_minors
        from .resultant import fills_degree
        f101 = field_make(101, 1)

        def fills(*int_term_maps):
            system = PolySystem(f101, 3, 2, (2, 2), tuple(
                Poly.from_int_terms(f101, 3, t) for t in int_term_maps))
            homog = system.homogenized()
            return fills_degree(homog + jacobian_minors(homog), f101)

        sq = [tuple(2 if j == i else 0 for j in range(3)) for i in range(3)]
        # a smooth complete intersection: the pencil of diag(1, 1, 1, -1)
        # and diag(1, 2, 3, -4) has four distinct roots
        assert fills({sq[0]: 1, sq[1]: 1, sq[2]: 1, (0, 0, 0): -1},
                     {sq[0]: 1, sq[1]: 2, sq[2]: 3, (0, 0, 0): -4})
        # the cone x1^2 + x2^2 = x3^2 and a quadric through its vertex:
        # the vertex is a fiber point
        assert not fills({sq[0]: 1, sq[1]: 1, sq[2]: -1},
                         {sq[0]: 1, sq[1]: 2, sq[2]: 3, (1, 0, 0): 1})

    def linear_oracle_micro():
        inputs = BoundInputs(3, 2, 2, (1, 1))
        oracle = linear_census_oracle(inputs)
        config = ExperimentConfig(inputs=inputs, mode="census",
                                  threads=args.threads, seed=0)
        report, _ = run_census(config)
        assert report.counts.in_B1 == oracle["in_B1"] == 88

    def determinism():
        inputs = BoundInputs(3, 2, 7, (2, 2))
        base = dict(inputs=inputs, mode="monte_carlo", n_samples=40, seed=11)
        r1 = run_monte_carlo(ExperimentConfig(threads=1, **base))
        r2 = run_monte_carlo(ExperimentConfig(threads=2, **base))
        assert json.dumps(r1.to_json_dict(False), sort_keys=True) == \
            json.dumps(r2.to_json_dict(False), sort_keys=True)

    check("field axioms (F_7, F_4, F_101^4, F_4^10)", field_axioms)
    check("groebner basics", groebner_basics)
    check("rank test (F_4)", rank_test_f4)
    check("macaulay vanishing", resultant_vanishing)
    check("fiber rank test (q=101)", fiber_rank_test)
    check("linear census vs rank oracle (q=2)", linear_oracle_micro)
    check("thread-count determinism", determinism)
    return 1 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="defectus")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_bounds = sub.add_parser("bounds", help="evaluate the bound formulas")
    _add_shape_flags(p_bounds)
    _add_output_flags(p_bounds)
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_classify = sub.add_parser("classify", help="classify one system")
    _add_shape_flags(p_classify)
    _add_output_flags(p_classify)
    p_classify.add_argument("--system", type=str, required=True,
                            help="JSON file holding the polynomials")
    p_classify.set_defaults(fn=_cmd_classify)

    for name, helptext, fn in (
            ("sample", "seeded Monte Carlo estimate", _cmd_sample),
            ("census", "exhaustive exact census", _cmd_census)):
        p = sub.add_parser(name, help=helptext)
        _add_shape_flags(p)
        _add_output_flags(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=default_threads())
        p.add_argument("--confidence", type=float, default=0.99)
        p.add_argument("--no-meta", action="store_true",
                       help="suppress the timing/timestamp block")
        if name == "sample":
            p.add_argument("--n", type=int, required=True,
                           help="number of Monte Carlo draws")
        else:
            p.add_argument("--dump-csv", type=str, default=None,
                           help="also write one CSV row per system")
        p.set_defaults(fn=fn)

    p_self = sub.add_parser("selftest", help="run the built-in checks")
    p_self.add_argument("--threads", type=int, default=default_threads())
    p_self.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        # opened first, as a shell redirection would be: an unwritable
        # path fails before any work
        with _output(out) if out else nullcontext(sys.stdout) as fh:
            args.stream = fh
            return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
