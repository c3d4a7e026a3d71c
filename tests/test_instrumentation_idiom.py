"""One instrumentation idiom: an instrumented op runs inside
``with trace.span(...)`` (or between ``trace.start_span`` and
``finish()``), one body traced or not — no call site forks on the
tracing switch.

Walks the AST of every module under ``src/repro`` but ``repro/obs``
(the tracing layer itself) and fails on any read of
``repro.obs.trace.ENABLED``, however the module reached it: an
attribute of the module under any alias (absolute or relative import),
the full dotted path, a ``from ... import ENABLED`` or a
``getattr(trace, "ENABLED")``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TRACE = "repro.obs.trace"


def _modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        if (SRC / "repro" / "obs") not in path.parents:
            yield path


def _module_name(path: Path, root: Path = SRC) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _absolute(module: str, node: ast.ImportFrom, is_package: bool) -> str:
    """The absolute module a ``from`` import names, relative or not."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    if not is_package:
        base.pop()
    base = base[:len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _dotted(node) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def enabled_reads(path: Path, root: Path = SRC):
    """``(line, source)`` of every read of the tracing switch in the
    module at ``path``, under the source ``root``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    module = _module_name(path, root)
    is_package = path.name == "__init__.py"
    aliases = {TRACE}  # names bound to the trace module
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == TRACE and alias.asname:
                    aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node, is_package)
            for alias in node.names:
                if source == "repro.obs" and alias.name == "trace":
                    aliases.add(alias.asname or "trace")
                elif source == TRACE and alias.name in ("ENABLED", "*"):
                    reads.append(node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "ENABLED" \
                and _dotted(node.value) in aliases:
            reads.append(node)
        elif isinstance(node, ast.Call) and _dotted(node.func) == "getattr" \
                and len(node.args) >= 2 \
                and _dotted(node.args[0]) in aliases \
                and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value == "ENABLED":
            reads.append(node)
    return sorted((node.lineno, ast.unparse(node)) for node in reads)


def test_the_walk_sees_every_module():
    names = {_module_name(path) for path in _modules()}
    assert {"repro.net.client", "repro.net.server", "repro.sparse.spgemm",
            "repro.sparse.spmv", "repro.dbsim.graphulo",
            "repro.dbsim.client", "repro.dbsim.tablet"} <= names
    assert not any(name.startswith("repro.obs") for name in names)


@pytest.mark.parametrize("source, expected", [
    ("from repro.obs import trace as _trace\nif _trace.ENABLED: pass\n", 1),
    ("from repro.obs import trace\nx = trace.ENABLED\n", 1),
    ("import repro.obs.trace\nx = repro.obs.trace.ENABLED\n", 1),
    ("import repro.obs.trace as t\nx = getattr(t, 'ENABLED')\n", 1),
    ("from repro.obs.trace import ENABLED\n", 1),
    ("from ..obs import trace as tr\nx = tr.ENABLED\n", 1),
    ("from repro.obs import trace\nwith trace.span('x'): pass\n", 0),
    ("from repro.obs import trace\nx = trace.is_enabled()\n", 0),
    ("ENABLED = True\nx = other.ENABLED\n", 0),
])
def test_the_walk_finds_each_form_of_read(tmp_path, source, expected):
    """The checker itself: every way a module can read the switch
    counts, and neither a span nor an unrelated ``ENABLED`` does."""
    package = tmp_path / "repro" / "dbsim"
    package.mkdir(parents=True)
    path = package / "mod.py"
    path.write_text(source, encoding="utf-8")
    assert len(enabled_reads(path, tmp_path)) == expected


def test_no_module_outside_obs_reads_the_tracing_switch():
    found = {str(path.relative_to(SRC)): reads for path in _modules()
             for reads in [enabled_reads(path)] if reads}
    assert found == {}, (
        "instrument an op with `with trace.span(...)` (or "
        "`trace.start_span(...)`), one body traced or not; these "
        f"modules branch on the tracing switch: {found}")
