"""Every ``DESIGN.md §N[.M]`` reference in the code names a real section.

``§N`` is a ``## N.`` heading of DESIGN.md; ``§5.M`` is item M of §5's
numbered list of design decisions.  A renumbered or deleted section fails
here instead of leaving docstrings that point at the wrong text.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = re.compile(r"DESIGN(?:\.md)?\s+§(\d+)(?:\.(\d+))?")


def _design():
    """``(top-level section numbers, §5's item numbers in order)``."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    headings = set(re.findall(r"^## (\d+)\.", text, re.M))
    decisions = text.split("\n## 5.", 1)[1].split("\n## ", 1)[0]
    return headings, re.findall(r"^(\d+)\. ", decisions, re.M)


def _references():
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".py", ".md") and path.is_file():
                text = path.read_text(encoding="utf-8")
                for match in REFERENCE.finditer(text):
                    yield path.relative_to(ROOT), match


def test_design_decisions_are_numbered_in_order():
    _, items = _design()
    assert items == [str(i) for i in range(1, len(items) + 1)]


def test_every_design_reference_resolves():
    headings, items = _design()
    refs = list(_references())
    assert refs, "no DESIGN.md reference found: the pattern is stale"
    unresolved = [
        f"{path}: {match.group(0)}"
        for path, match in refs
        if match.group(1) not in headings
        or (match.group(2) is not None
            and (match.group(1) != "5" or match.group(2) not in items))
    ]
    assert not unresolved, unresolved
