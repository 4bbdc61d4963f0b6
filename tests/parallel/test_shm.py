"""Unit tests for the shared-memory plumbing of the process backend."""

import numpy as np
import pytest

from repro.graph.datasets import small_dataset
from repro.parallel.shm import (
    ArraySpec,
    SlotRing,
    attach_task_data,
    export_task_data,
    read_array,
    write_array,
)


class TestArrayRoundTrip:
    def test_write_read_identity(self):
        buf = bytearray(4096)
        arrs = [
            np.arange(7, dtype=np.int64),
            np.linspace(0, 1, 12, dtype=np.float64).reshape(3, 4),
            np.empty(0, dtype=np.int64),
        ]
        offset = 0
        specs = []
        for a in arrs:
            offset, spec = write_array(buf, offset, a)
            specs.append(spec)
        for a, spec in zip(arrs, specs):
            out = read_array(buf, spec)
            assert out.dtype == a.dtype and out.shape == a.shape
            np.testing.assert_array_equal(out, a)

    def test_offsets_are_aligned(self):
        buf = bytearray(4096)
        offset, _ = write_array(buf, 0, np.zeros(3, dtype=np.int8))
        assert offset % 8 == 0
        offset, spec = write_array(buf, offset, np.arange(4, dtype=np.int64))
        assert spec.offset % 8 == 0

    def test_overflow_raises(self):
        buf = bytearray(64)
        with pytest.raises(ValueError):
            write_array(buf, 0, np.zeros(100, dtype=np.float64))

    def test_spec_nbytes(self):
        spec = ArraySpec(offset=0, dtype="<f8", shape=(3, 4))
        assert spec.nbytes == 3 * 4 * 8


class TestTaskDataExport:
    def test_attach_sees_identical_bytes(self):
        ds = small_dataset(n=300, feature_dim=8, num_classes=3, seed=1)
        export = export_task_data(ds)
        try:
            # No sampler reads a feature: only the graph is shared.
            segment, graph = attach_task_data(export.descriptor)
            try:
                np.testing.assert_array_equal(graph.indptr, ds.graph.indptr)
                np.testing.assert_array_equal(graph.indices, ds.graph.indices)
            finally:
                del graph
                segment.close()
        finally:
            export.close()

    def test_close_unlinks_the_segment(self):
        import os

        ds = small_dataset(n=300, feature_dim=8, num_classes=3, seed=1)
        export = export_task_data(ds)
        path = f"/dev/shm/{export.segment.name}"
        assert os.path.exists(path)
        export.close()
        assert not os.path.exists(path)

    def test_covers_is_array_identity(self):
        import dataclasses

        ds = small_dataset(n=300, feature_dim=8, num_classes=3, seed=1)
        export = export_task_data(ds)
        try:
            assert export.covers(ds)
            # same arrays under another dataset object: same export
            assert export.covers(dataclasses.replace(ds, name="other"))
            # equal bytes in other arrays: not the same export
            assert not export.covers(
                dataclasses.replace(ds, features=ds.features.copy())
            )
        finally:
            export.close()


class TestSlotRing:
    def test_acquire_release_cycle(self):
        ring = SlotRing(n_slots=2, slot_bytes=1024, holdoff=0)
        try:
            a = ring.acquire()
            b = ring.acquire()
            assert a is not None and b is not None and a != b
            assert ring.acquire() is None  # exhausted
            ring.release(a)
            assert ring.acquire() == a
        finally:
            ring.close()

    def test_retire_holds_off_reuse(self):
        ring = SlotRing(n_slots=4, slot_bytes=1024, holdoff=2)
        try:
            served = [ring.acquire() for _ in range(3)]
            ring.retire(served[0])
            ring.retire(served[1])
            # holdoff=2: the first two retirees are still quarantined.
            remaining = ring.acquire()
            assert remaining not in served[:2]
            ring.retire(served[2])  # third serve frees the first retiree
            assert ring.acquire() == served[0]
        finally:
            ring.close()

    def test_release_none_is_noop(self):
        ring = SlotRing(n_slots=1, slot_bytes=64, holdoff=0)
        try:
            ring.release(None)
            ring.retire(None)
            assert ring.acquire() is not None
        finally:
            ring.close()


class TestQuarantine:
    def test_quarantined_slot_never_circulates(self):
        ring = SlotRing(n_slots=2, slot_bytes=256, holdoff=0)
        try:
            a = ring.acquire()
            ring.quarantine(a)
            assert len(ring._quarantined) == 1
            # Neither release nor retire can put it back in circulation.
            ring.release(a)
            ring.retire(a)
            names = {ring.acquire() for _ in range(2)}
            assert a not in names
            # A replacement segment kept the ring's capacity intact.
            assert len(names) == 2 and None not in names
        finally:
            ring.close()

    def test_quarantine_is_idempotent_and_none_safe(self):
        ring = SlotRing(n_slots=1, slot_bytes=64, holdoff=0)
        try:
            ring.quarantine(None)
            a = ring.acquire()
            ring.quarantine(a)
            ring.quarantine(a)
            assert len(ring._quarantined) == 1
        finally:
            ring.close()

    def test_quarantined_buffer_stays_mapped(self):
        # A zombie worker may still write an abandoned slot: the mapping
        # must survive until close so the write hits memory we own.
        ring = SlotRing(n_slots=1, slot_bytes=64, holdoff=0)
        try:
            a = ring.acquire()
            ring.quarantine(a)
            buf = ring.buffer(a)
            buf[:4] = b"late"
            assert bytes(buf[:4]) == b"late"
        finally:
            ring.close()


class TestAtexitGuard:
    def test_interpreter_exit_unlinks_live_segments(self):
        # A child that creates segments and dies without cleanup must not
        # leave them behind in /dev/shm: the atexit finalizer unlinks.
        import subprocess
        import sys

        code = (
            "from repro.parallel.shm import create_segment;"
            "seg = create_segment(1024);"
            "print(seg.name)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env={**__import__('os').environ},
        )
        assert out.returncode == 0, out.stderr
        name = out.stdout.strip()
        assert name
        assert not __import__('os').path.exists(f"/dev/shm/{name}")

    def test_destroy_segment_deregisters(self):
        from repro.parallel.shm import (
            _LIVE_SEGMENTS,
            create_segment,
            destroy_segment,
        )

        seg = create_segment(256)
        assert seg.name in _LIVE_SEGMENTS
        destroy_segment(seg)
        assert seg.name not in _LIVE_SEGMENTS
