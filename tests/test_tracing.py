"""The library names that ``bench/`` uses and patches, and what they see.

``--trace 1`` stops when a ``SPAN_TARGETS`` name is missing, and
``bench/run.py`` fails on a package attribute it cannot find, so an
import cleanup in the library must keep every one of them resolvable.
"""

import importlib.util
import pickle
import re
from pathlib import Path

import pytest

import defectus
from defectus import BoundInputs, extension_of, field_make, sample_system
import defectus.classify as clmod
from defectus.classify import classify
from defectus.rng import HashStream

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def test_every_bench_library_name_resolves():
    # bench/run.py imports the package as ``lib``: a name trimmed from
    # the package API must fail here, not as a failed benchmark run
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        names.update(re.findall(r"\blib\.([A-Za-z_]\w*)", path.read_text()))
    assert "sample_system" in names
    assert sorted(n for n in names if not hasattr(defectus, n)) == []


def test_classify_builds_no_reduced_basis_at_q101(monkeypatch):
    # the affine flags come from floored runs, and the witness budget
    # skips the search at q=101: no reduced basis is ever built
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


@pytest.mark.parametrize("make", [
    lambda: field_make(2, 2),
    lambda: field_make(3, 2),
    lambda: extension_of(field_make(101, 1), 4),
    lambda: extension_of(field_make(2, 2), 10),
], ids=["F_4", "F_9", "F_101^4", "F_4^10"])
def test_field_calls_are_counted_on_every_field_class(make):
    # --trace 1 wraps mul and inv on the field's own class
    tracing = _load_tracing()
    field = make()
    counts = {"mul": 0, "inv": 0}
    with tracing.counting_field_calls(field, counts):
        field.inv(field.mul(2, 3))
        assert pickle.loads(pickle.dumps(field)) == field
    assert counts == {"mul": 1, "inv": 1}
    assert field.mul(2, 3) == field.mul(3, 2)  # the methods are restored


def test_field_calls_are_counted_over_classify_at_q4():
    tracing = _load_tracing()
    inputs, field = BoundInputs(3, 2, 4, (2, 2)), field_make(2, 2)
    systems = [sample_system(inputs, field, HashStream("sample", 42, i))
               for i in range(10)]
    counts = {"mul": 0, "inv": 0}
    with tracing.counting_field_calls(field, counts):
        for system in systems:
            classify(system)
    assert counts["mul"] > 0 and counts["inv"] > 0
