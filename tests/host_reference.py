"""The per-call host forms the planner's host paths are pinned against.

Two host-side shortcuts must not move a simulated number by one bit:

* every id set goes through :func:`repro.utils.ids.sorted_unique` (sort +
  mask) instead of NumPy 2's hash-based ``np.unique``;
* :class:`~repro.cluster.comm.Communicator` builds its per-cluster
  constants once and charges an all-to-all with whole-matrix sums.

:func:`install_hash_unique` and :func:`install_rebuilt_comm` swap the
replaced forms back in through a ``pytest.MonkeyPatch``: every module in
``src/`` imports ``sorted_unique`` by name, so the patch rebinds each
module's attribute.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.cluster.comm import Communicator
from repro.utils import ids


def install_hash_unique(monkeypatch) -> int:
    """Route every loaded module's ``sorted_unique`` to ``np.unique``.

    Returns how many modules were patched (so a test can check it covered
    the call sites it meant to).
    """
    primitive = ids.sorted_unique
    patched = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        if getattr(module, "sorted_unique", None) is primitive:
            monkeypatch.setattr(module, "sorted_unique", np.unique)
            patched += 1
    return patched


def charge_pairwise_rebuild(
    comm: Communicator, bytes_matrix, phase: str, direction_factor: float
) -> None:
    """The all-to-all charge as a per-device loop that rebuilds the
    device -> machine map, the masks and the links on every call."""
    B = np.asarray(bytes_matrix, dtype=np.float64) * direction_factor
    cluster = comm.cluster
    C = cluster.num_devices
    if B.shape != (C, C):
        raise ValueError(f"bytes matrix must be ({C}, {C}), got {B.shape}")
    machines = np.array([cluster.machine_of(d) for d in range(C)])
    same = machines[:, None] == machines[None, :]
    off_diag = ~np.eye(C, dtype=bool)
    for i in range(C):
        row_mask = off_diag[i]
        send_intra = B[i, row_mask & same[i]].sum()
        send_inter = B[i, row_mask & ~same[i]].sum()
        recv_intra = B[row_mask & same[i], i].sum()
        recv_inter = B[row_mask & ~same[i], i].sum()
        peer = cluster.machine_spec(i).gpu_peer_link()
        inter = cluster.inter_machine_link_per_gpu(i)
        n_msgs = int((B[i, row_mask] > 0).sum() + (B[row_mask, i] > 0).sum())
        secs = (
            max(send_intra, recv_intra) / peer.bandwidth
            + max(send_inter, recv_inter) / inter.bandwidth
            + n_msgs * peer.latency
        )
        comm.timeline.charge(i, phase, secs)
    telemetry = comm.timeline.telemetry
    if telemetry is not None:
        telemetry.count("comm.pairwise_bytes", float(B.sum()), phase=phase)
        telemetry.count("comm.collectives", phase=phase)


def install_rebuilt_comm(monkeypatch) -> None:
    """Charge every all-to-all through :func:`charge_pairwise_rebuild`."""
    monkeypatch.setattr(
        Communicator, "_charge_pairwise", charge_pairwise_rebuild
    )
