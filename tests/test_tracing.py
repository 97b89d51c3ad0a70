"""The library names that ``bench/tracing.py`` patches, and what they see.

``--trace 1`` stops when a ``SPAN_TARGETS`` name is missing, so an
import cleanup in the library must keep every one of them resolvable.
"""

import importlib
import importlib.util
from pathlib import Path

from defectus import BoundInputs, field_make, sample_system
from defectus.rng import HashStream

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_target_resolves():
    tracing = _load_tracing()
    targets = [(module, attr) for module, attr, _ in tracing.SPAN_TARGETS]
    for module, attr in targets + [("defectus.experiment", "classify")]:
        assert callable(getattr(tracing.resolve(module, attr), attr))


def test_classify_builds_no_reduced_basis_at_q101(monkeypatch):
    # the affine flags come from floored runs, and the witness budget
    # skips the search at q=101: no reduced basis is ever built
    clmod = importlib.import_module("defectus.classify")
    calls = []
    engine = clmod.groebner

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(clmod, "groebner", counted)
    inputs, field = BoundInputs(3, 2, 101, (2, 2)), field_make(101, 1)
    for i in range(50):
        clmod.classify(sample_system(inputs, field,
                                     HashStream("sample", 42, i)))
    assert not calls
