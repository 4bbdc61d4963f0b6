"""Every public name in ``src/`` is reachable from the program, not only from tests.

A public module-level function or class, and a public method of a
module-level class, must be referenced somewhere in ``src/``,
``benchmarks/`` or ``examples/`` other than its own definition, the import
lines that re-export it and ``__all__``.  A reference is a ``Name``, an
``Attribute`` or a string constant equal to the identifier (``getattr``,
patch targets by name); a registry dict in an ``__init__`` counts.  A
method is matched by its name alone, so a read of any attribute so named
reaches it: the scan can miss a dead method, never flag a live one.

Names kept on purpose, though no configuration reaches them, are listed in
``KEEP`` with their reason (DESIGN.md §5.9); an entry the scan no longer
reports fails as stale.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path
from typing import Dict, List, Set, Tuple

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = [ROOT / "src", ROOT / "benchmarks", ROOT / "examples"]

_VOLUMES = "dry-run volumes are tested against the paper's §3.2 closed forms"
_ORACLE = "an oracle that tests and the frozen references use"
_FIXTURE = "a test fixture"
_FORMAT = ("an on-disk format; loading the paper's SNAP edge lists waits "
           "until such files are in the repository")
_SPANS = ("waits on native spans: benchmarks/e2e/trace.py patches by name "
          "and the span model replaces the event model")

#: qualified name -> why it stays although nothing in the program reads it
KEEP: Dict[str, str] = {
    "repro.core.costmodel.nfp_shuffle_volume": _VOLUMES,
    "repro.core.costmodel.snp_shuffle_volume": _VOLUMES,
    "repro.core.costmodel.dnp_shuffle_volume": _VOLUMES,
    "repro.graph.metrics.replication_factor": _ORACLE,
    "repro.graph.metrics.partition_balance": _ORACLE,
    "repro.tensor.sparse.segment_mean": _ORACLE,
    "repro.tensor.sparse.segment_count": _ORACLE,
    "repro.tensor.module.Linear": _FIXTURE,
    "repro.graph.io.write_dataset_dir": _FIXTURE,
    "repro.graph.io.read_edgelist": _FORMAT,
    "repro.graph.io.write_edgelist": _FORMAT,
    "repro.graph.io.save_partition": _FORMAT,
    "repro.graph.io.load_partition": _FORMAT,
    "repro.graph.csr.CSRGraph.to_scipy": _ORACLE,
    "repro.graph.csr.CSRGraph.from_scipy": _ORACLE,
    "repro.obs.telemetry.TelemetryCollector.to_chrome_trace": _SPANS,
    "repro.obs.telemetry.TelemetryCollector.merged": _SPANS,
}


def _module_name(path: Path) -> str:
    rel = path.relative_to(ROOT / "src").with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(body, kinds) -> list:
    return [
        node for node in body
        if isinstance(node, kinds) and not node.name.startswith("_")
    ]


def _definitions(tree: ast.Module, module: str) -> List[Tuple[str, str, int, int]]:
    """``(qualified name, identifier, first line, last line)`` of every
    public module-level function and class, and of every public method of
    a module-level class (public or not)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = [
        (f"{module}.{node.name}", node.name, node.lineno, node.end_lineno)
        for node in _public(tree.body, (*functions, ast.ClassDef))
    ]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            out += [
                (f"{module}.{cls.name}.{node.name}", node.name,
                 node.lineno, node.end_lineno)
                for node in _public(cls.body, functions)
            ]
    return out


def _all_lines(tree: ast.Module) -> Set[int]:
    """Lines of ``__all__ = [...]`` assignments: their strings re-export,
    they do not reference."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _references(tree: ast.Module) -> List[Tuple[str, int]]:
    skip = _all_lines(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and node.lineno not in skip):
            out.append((node.value, node.lineno))
    return out


def unreferenced() -> Set[str]:
    """Qualified names of the public definitions in ``src/`` nothing reads."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for base in SCANNED
        for path in sorted(base.rglob("*.py"))
    }
    refs: Dict[str, List[Tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    found = set()
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for qual, name, first, last in _definitions(tree, _module_name(path)):
            # A reference inside the definition's own body does not reach it.
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, [])):
                found.add(qual)
    return found


def test_every_public_name_in_src_is_reached():
    found = unreferenced()
    unlisted = sorted(found - set(KEEP))
    assert not unlisted, (
        "public names only tests reach (wire them in or delete them): "
        + ", ".join(unlisted)
    )
    stale = sorted(set(KEEP) - found)
    assert not stale, "KEEP entries the program now reaches: " + ", ".join(stale)


def test_every_package_export_resolves():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.ispkg:
            continue
        package = importlib.import_module(info.name)
        for name in getattr(package, "__all__", ()):
            assert hasattr(package, name), f"{info.name}.__all__ lists {name!r}"
