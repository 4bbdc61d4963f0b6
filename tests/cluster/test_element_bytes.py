"""Simulated bytes come from two named constants, not from literals.

Every simulated float (feature rows, hidden and partial shuffles,
intermediates, gradients, cache capacity, the cost model's volumes) is
charged at :data:`repro.cluster.ELEMENT_BYTES`, and every shipped id or edge
endpoint at :data:`repro.cluster.ID_BYTES`.  A multiplication by a literal 8
in ``src/`` is a byte site that bypasses them; host-memory sizes, which are
not simulated, are the listed exceptions.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: (module path, expression) -> why its 8 is a host size, not a simulated one
HOST_SIZES = {
    ("repro/parallel/supervisor.py", "self.capacity * 8"):
        "the heartbeat board: one float64 stamp per worker in host shared memory",
    ("repro/sampling/block.py", "8 * (2 * self.num_dst + 1)"):
        "Block.nbytes: host bytes of the cached destination index (cache budgets)",
}


def _literal_byte_sites():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                if any(isinstance(side, ast.Constant)
                       and type(side.value) in (int, float) and side.value == 8
                       for side in (node.left, node.right)):
                    yield (rel, ast.unparse(node)), node.lineno


def test_no_byte_literal_outside_the_constants():
    sites = dict(_literal_byte_sites())
    stray = sorted(f"{rel}:{line}: {expr}"
                   for (rel, expr), line in sites.items()
                   if (rel, expr) not in HOST_SIZES)
    assert not stray, "use ELEMENT_BYTES or ID_BYTES:\n" + "\n".join(stray)
    assert set(HOST_SIZES) <= set(sites), "stale HOST_SIZES entries"
