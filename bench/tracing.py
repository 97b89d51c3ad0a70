"""Spans and call counts recorded around defectus's public calls.

The library is left untouched: module attributes are swapped for
wrappers for the length of a pass and restored afterwards.  Modules are
looked up with ``importlib.import_module``, because the package
attribute ``defectus.classify`` is the classify *function*, which
shadows the module of the same name.  A missing name stops the run.
``timed_classify_calls`` times the classify calls the experiment
API's worker processes make, for the end-to-end latencies.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import struct
from contextlib import contextmanager
from statistics import fmean
from time import perf_counter

# (module, attribute, span name); classify's stage functions are looked up
# in the classify module's globals at call time, so patching them there
# reaches every call classify makes.  groebner is patched in both modules
# so the basis that colon_ideal computes is counted too.
SPAN_TARGETS = (
    ("defectus.classify", "initial_form_criterion", "classify.initial_form"),
    ("defectus.classify", "is_regular_sequence", "classify.regular_sequence"),
    ("defectus.classify", "_rank_defect_dimension", "classify.rank_defect"),
    ("defectus.classify", "fiber_dimension", "classify.fiber_dim"),
    ("defectus.classify", "find_reducibility_witness", "classify.witness"),
    ("defectus.classify", "groebner", "groebner.groebner"),
    ("defectus.groebner", "groebner", "groebner.groebner"),
    ("defectus.classify", "colon_ideal", "groebner.colon_ideal"),
    ("defectus.classify", "normal_form", "groebner.normal_form"),
    ("defectus.classify", "jacobian_minors", "polynomials.jacobian_minors"),
)

# classify stages; the affine basis is the groebner call classify makes
# itself, i.e. a groebner span whose parent is the classify span
STAGES = {
    "classify.initial_form": "classify.initial_form_ms",
    "classify.regular_sequence": "classify.regular_sequence_ms",
    "classify.rank_defect": "classify.rank_defect_ms",
    "classify.fiber_dim": "classify.fiber_dim_ms",
    "classify.witness": "classify.witness_ms",
}


def resolve(module, attr):
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        raise RuntimeError(f"{module}.{attr} is missing; the trace "
                           f"cannot attribute its time")
    return mod


class Tracer:
    """In-memory spans: [name, start, end, parent index, system, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.system = None

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.system, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if name == "groebner.groebner":
            rec[5] = len(result.gens)
        elif name == "classify.witness":
            rec[5] = result is not None
        return result

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module, attr, name in SPAN_TARGETS:
                mod = resolve(module, attr)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrapper(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def metrics(self, n_systems):
        """Per-system stage times and per-layer counts from the spans."""
        spans = self.spans
        total = {}
        count = {}
        child_time = [0.0] * len(spans)
        affine = 0.0
        for name, t0, t1, parent, _, _ in spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            count[name] = count.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += t1 - t0
                if name == "groebner.groebner" and spans[parent][0] == "classify":
                    affine += t1 - t0
        self_time = sum(t1 - t0 - child_time[i]
                        for i, (name, t0, t1, *_) in enumerate(spans)
                        if name == "classify")
        per = 1000.0 / n_systems
        out = {"classify.affine_basis_ms": affine * per,
               "classify.self_ms": self_time * per}
        for name, metric in STAGES.items():
            out[metric] = total.get(name, 0.0) * per
        gb = [s for s in spans if s[0] == "groebner.groebner"]
        witness = [s[5] for s in spans if s[0] == "classify.witness"]
        out.update({
            "classify.regular_sequence_calls":
                count.get("classify.regular_sequence", 0) / n_systems,
            "classify.witness_calls": len(witness) / n_systems,
            "classify.witness_hit_ratio":
                sum(witness) / len(witness) if witness else 0.0,
            "groebner.calls_per_system": len(gb) / n_systems,
            "groebner.ms_per_call":
                fmean(s[2] - s[1] for s in gb) * 1000.0 if gb else 0.0,
            "groebner.basis_len_mean": fmean(s[5] for s in gb) if gb else 0.0,
            "groebner.colon_ideal_ms":
                total.get("groebner.colon_ideal", 0.0) * per,
            "groebner.colon_ideal_calls":
                count.get("groebner.colon_ideal", 0) / n_systems,
            "groebner.normal_form_calls":
                count.get("groebner.normal_form", 0) / n_systems,
            "polynomials.jacobian_minors_ms":
                total.get("polynomials.jacobian_minors", 0.0) * per,
        })
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, system, note in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "system": system,
                                     "note": note}) + "\n")


@contextmanager
def counting_field_calls(field, counts):
    """Count mul and inv calls made on ``field`` itself (not its base)."""
    cls = type(field)
    saved = []
    try:
        for name in ("mul", "inv"):
            if name not in vars(cls):
                raise RuntimeError(f"{cls.__name__}.{name} is missing")
            orig = vars(cls)[name]
            saved.append((name, orig))

            def counted(self, *args, _orig=orig, _name=name):
                if self is field:
                    counts[_name] += 1
                return _orig(self, *args)
            setattr(cls, name, counted)
        yield counts
    finally:
        for name, orig in saved:
            setattr(cls, name, orig)


@contextmanager
def timed_classify_calls(path, keep_reports):
    """Time every classify call that defectus.experiment makes.

    run_monte_carlo and run_census classify in worker processes forked
    from this one, so the wrapper swapped in here is the one the workers
    call.  Each call appends one record, a length-prefixed pickle of
    (seconds, report, system), to ``path`` with a single write on a
    descriptor opened with O_APPEND before the fork: records of
    concurrent workers never interleave, and none is lost when the pool
    terminates its workers.  Without ``keep_reports`` the report is None;
    the system is kept only for an in_B0 report, for the point scan.
    Yields a list that holds the records once the block has ended.
    """
    mod = resolve("defectus.experiment", "classify")
    original = mod.classify
    records = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
                 0o644)

    def timed(system, *args, **kwargs):
        t0 = perf_counter()
        rep = original(system, *args, **kwargs)
        seconds = perf_counter() - t0
        kept = (rep, system if rep.in_B0 else None) if keep_reports \
            else (None, None)
        blob = pickle.dumps((seconds, *kept))
        data = struct.pack("<I", len(blob)) + blob
        if os.write(fd, data) != len(data):
            raise OSError(f"short write to {path}")
        return rep

    mod.classify = timed
    try:
        yield records
    finally:
        mod.classify = original
        os.close(fd)
        with open(path, "rb") as fh:
            data = fh.read()
        os.unlink(path)
    pos = 0
    while pos < len(data):
        (size,) = struct.unpack_from("<I", data, pos)
        records.append(pickle.loads(data[pos + 4:pos + 4 + size]))
        pos += 4 + size
