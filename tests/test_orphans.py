"""No dead code in the package: every top-level definition is used, and so
is every module-level import.

Both rules read the source with ``ast`` alone.  A definition counts as
used when a top-level statement other than its own, in any module of
``src/defectus``, names it (a name, an attribute or an import), or when
``bench/tracing.py`` patches it through ``SPAN_TARGETS``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "defectus"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _names(node):
    """Every name ``node`` refers to by a name, an attribute or an
    import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[0])
    return out


def _span_targets():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_TARGETS"
                for t in node.targets):
            return {attr for _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py has no SPAN_TARGETS")


def test_every_top_level_definition_is_referenced():
    statements = [(name, node) for name, tree in MODULES.items()
                  for node in tree.body]
    patched = _span_targets()
    orphans = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name in patched:
            continue
        if not any(node.name in _names(other)
                   for _, other in statements if other is not node):
            orphans.append(f"{module}: {node.name}")
    assert orphans == []


def test_every_module_level_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__.py":
            continue
        lines = (PACKAGE / module).read_text().splitlines()
        imports = [node for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        used = set()
        for node in tree.body:
            if node not in imports:
                used |= {sub.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Name)}
        for node in imports:
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}:{node.lineno}: {bound}")
    assert unused == []
