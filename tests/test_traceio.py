"""Tests for the binary trace format: round trips and corruption diagnostics.

Every test goes through a file: write_trace writes it, a corruption edits its
bytes under tmp_path, and read_trace reads it back.
"""

import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from flowcache import traceio
from flowcache.errors import DomainError, TraceError
from flowcache.predictors import TraceArchive, TraceReplayPredictor
from flowcache.sampler import TimestepSchedule, make_schedule
from flowcache.tensor import seeded_normal
from flowcache.traceio import (
    ELEM_TAG_F64_LE,
    TRACE_MAGIC,
    TRACE_VERSION,
    read_trace,
    write_trace,
)

SHAPE = (2, 4, 4, 1)
SHRINK_SHAPE = (2, 16, 16, 4)
SHRINK_RECORD = 4 + 8 + 2 * 16 * 16 * 4 * 8


def make_archive(n=3, seed=0, shape=SHAPE):
    sched = TimestepSchedule((1.0, 0.0)) if n == 1 else make_schedule(n)
    preds = [seeded_normal(shape, seed + k).data for k in range(n)]
    return TraceArchive.from_run(sched, preds)


def oracle_bytes(archive):
    """The v1 layout joined in memory, field by field: the reference encoder."""
    parts = [
        TRACE_MAGIC,
        struct.pack("<I", TRACE_VERSION),
        struct.pack("<I", ELEM_TAG_F64_LE),
        struct.pack("<4I", *archive.records[0].prediction.shape),
        struct.pack("<I", archive.schedule.n_steps),
        np.asarray(archive.schedule.values, dtype="<f8").tobytes(),
    ]
    n = archive.schedule.n_steps
    for k, rec in enumerate(archive.records):
        parts.append(struct.pack("<I", n - 1 - k))
        parts.append(struct.pack("<d", archive.schedule.values[k]))
        parts.append(np.ascontiguousarray(rec.prediction, dtype="<f8").tobytes())
    return b"".join(parts)


def written(tmp_path, archive, name="run.trace"):
    path = tmp_path / name
    write_trace(path, archive)
    return path


def corrupted(tmp_path, edit, archive=None):
    """Write an archive, apply edit to its bytes in place, and return the path."""
    path = written(tmp_path, archive or make_archive())
    data = bytearray(path.read_bytes())
    edit(data)
    path.write_bytes(bytes(data))
    return path


def assert_same_archive(got, want):
    assert got.schedule.values == want.schedule.values
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert np.array_equal(a.prediction, b.prediction)


def test_round_trip_is_bitwise(tmp_path):
    archive = make_archive()
    assert_same_archive(read_trace(written(tmp_path, archive)), archive)


def test_read_records_and_their_replay_are_read_only_arrays(tmp_path):
    archive = read_trace(written(tmp_path, make_archive()))
    replay = TraceReplayPredictor(archive)
    for rec, t in zip(archive.records, archive.schedule.values):
        assert type(rec.prediction) is np.ndarray and not rec.prediction.flags.writeable
        assert replay.evaluate(np.zeros(SHAPE), t) is rec.prediction


def test_reserialize_reproduces_bytes(tmp_path):
    first = written(tmp_path, make_archive(n=4, seed=3))
    second = written(tmp_path, read_trace(first), name="again.trace")
    assert second.read_bytes() == first.read_bytes()


def test_file_round_trip(tmp_path):
    # a file in the v1 layout written by the reference encoder reads back bitwise
    archive = make_archive(n=2, seed=5)
    path = tmp_path / "oracle.trace"
    path.write_bytes(oracle_bytes(archive))
    assert_same_archive(read_trace(path), archive)


@pytest.mark.parametrize("shape, n", [(SHAPE, 3), ((1, 1, 1, 1), 1), ((3, 2, 5, 4), 2), ((2, 6, 4, 3), 5)])
def test_file_matches_layout_oracle(tmp_path, shape, n):
    archive = make_archive(n=n, seed=11, shape=shape)
    assert written(tmp_path, archive).read_bytes() == oracle_bytes(archive)


def test_header_layout(tmp_path):
    data = written(tmp_path, make_archive()).read_bytes()
    assert data[:4] == TRACE_MAGIC == b"PCTR"
    assert struct.unpack_from("<I", data, 4)[0] == TRACE_VERSION == 1
    assert struct.unpack_from("<I", data, 8)[0] == ELEM_TAG_F64_LE == 1
    assert struct.unpack_from("<4I", data, 12) == SHAPE
    assert struct.unpack_from("<I", data, 28)[0] == 3


def test_short_header_rejected(tmp_path):
    path = tmp_path / "short.trace"
    path.write_bytes(b"PC")
    with pytest.raises(TraceError, match="at least 32 header bytes, got 2"):
        read_trace(path)


def test_bad_magic_names_offset_zero(tmp_path):
    def edit(data):
        data[:4] = b"XXXX"
    with pytest.raises(TraceError, match="bad magic.*offset 0"):
        read_trace(corrupted(tmp_path, edit))


def test_bad_version_names_offset_four(tmp_path):
    path = corrupted(tmp_path, lambda data: struct.pack_into("<I", data, 4, 9))
    with pytest.raises(TraceError, match="version 9 at byte offset 4"):
        read_trace(path)


def test_bad_element_tag_names_offset_eight(tmp_path):
    path = corrupted(tmp_path, lambda data: struct.pack_into("<I", data, 8, 7))
    with pytest.raises(TraceError, match="tag 7 at byte offset 8"):
        read_trace(path)


def test_zero_shape_extent_rejected(tmp_path):
    path = corrupted(tmp_path, lambda data: struct.pack_into("<I", data, 16, 0))  # zero out the height extent
    with pytest.raises(TraceError, match="shape extent 0 at byte offset 16"):
        read_trace(path)


def test_zero_step_count_rejected(tmp_path):
    path = corrupted(tmp_path, lambda data: struct.pack_into("<I", data, 28, 0))
    with pytest.raises(TraceError, match="step count 0 at byte offset 28"):
        read_trace(path)


def test_truncation_reports_expected_and_actual(tmp_path):
    path = written(tmp_path, make_archive())
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(TraceError, match=f"expected {size} bytes.*got {size - 10}"):
        read_trace(path)


def test_trailing_garbage_reports_expected_and_actual(tmp_path):
    path = written(tmp_path, make_archive())
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(TraceError, match=f"expected {size} bytes.*got {size + 3}"):
        read_trace(path)


@pytest.mark.parametrize("from_end", [SHRINK_RECORD + 6, 10])  # inside a record prefix, inside the last payload
def test_file_shrinking_after_length_check_reports_expected_and_actual(tmp_path, monkeypatch, from_end):
    # records larger than the reader's buffer, so the cut lies past what the
    # header read can have buffered before the file shrinks
    path = written(tmp_path, make_archive(n=3, shape=SHRINK_SHAPE))
    size = path.stat().st_size
    cut = size - from_end
    real_fstat = os.fstat

    def fstat_then_shrink(fd):
        stat = real_fstat(fd)
        os.truncate(path, cut)
        return stat

    monkeypatch.setattr(traceio.os, "fstat", fstat_then_shrink)
    with pytest.raises(TraceError, match=f"expected {size} bytes.*got {cut}$"):
        read_trace(path)


def test_invalid_embedded_schedule_wrapped(tmp_path):
    # overwrite the first schedule value (t = 1.0) with an out-of-range one
    path = corrupted(tmp_path, lambda data: struct.pack_into("<d", data, 32, 2.0))
    with pytest.raises(TraceError, match="embedded schedule at byte offset 32"):
        read_trace(path)


def test_corrupted_record_index_rejected(tmp_path):
    first_record = 32 + (3 + 1) * 8
    path = corrupted(tmp_path, lambda data: struct.pack_into("<I", data, first_record, 7))  # true first index is n-1 = 2
    with pytest.raises(TraceError, match="record 0 has step index 7"):
        read_trace(path)


def test_record_payload_changes_survive_round_trip(tmp_path):
    # flipping a payload byte is not an error: tensors are opaque, so the read
    # succeeds and the altered value comes back verbatim
    archive = make_archive(n=2, seed=9, shape=(1, 2, 2, 1))
    cells = 4
    path = corrupted(tmp_path, lambda data: struct.pack_into("<d", data, len(data) - cells * 8, 123.5), archive)
    assert read_trace(path).records[-1].prediction.ravel()[0] == 123.5


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("pos", [0, 2])
def test_non_finite_payload_names_record_and_offset(tmp_path, value, pos):
    cells = 2 * 4 * 4 * 1
    payload = 32 + (3 + 1) * 8 + pos * (12 + cells * 8) + 12
    cell = 0 if pos == 0 else cells - 1
    path = corrupted(tmp_path, lambda data: struct.pack_into("<d", data, payload + 8 * cell, value))
    with pytest.raises(TraceError, match=f"record {pos} payload at byte offset {payload} is invalid") as info:
        read_trace(path)
    assert isinstance(info.value.__cause__, DomainError)


@pytest.mark.parametrize("archive, message", [
    (SimpleNamespace(records=(SimpleNamespace(prediction=SimpleNamespace(shape=SHAPE)),),
                     schedule=SimpleNamespace(n_steps=2**32)), "step count 4294967296 does not fit"),
    (SimpleNamespace(records=(SimpleNamespace(prediction=SimpleNamespace(shape=(1, 2**32, 1, 1))),),
                     schedule=SimpleNamespace(n_steps=1)), "shape extent 4294967296 does not fit"),
])
def test_rejected_archive_leaves_target_untouched(tmp_path, archive, message):
    existing = tmp_path / "existing.trace"
    existing.write_bytes(b"keep these bytes")
    with pytest.raises(TraceError, match=message):
        write_trace(existing, archive)
    assert existing.read_bytes() == b"keep these bytes"
    absent = tmp_path / "absent.trace"
    with pytest.raises(TraceError, match=message):
        write_trace(absent, archive)
    assert not absent.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_archive_is_rejected_before_any_file_is_made(tmp_path, value):
    """from_run raises, so write_trace never opens its target."""
    path = tmp_path / "never.trace"
    with pytest.raises(DomainError, match="^tensor contains non-finite values$"):
        write_trace(path, TraceArchive.from_run(make_schedule(2), [np.full((1, 2, 2, 1), value), np.zeros((1, 2, 2, 1))]))
    assert not path.exists()


# 40 records of 128 KiB each: a 5 MiB file
STREAM_SHAPE = (4, 32, 32, 4)
STREAM_STEPS = 40
STREAM_RECORD = 4 * 32 * 32 * 4 * 8
STREAM_SLACK = 64 * 1024


def traced_peak(action):
    """Peak traced allocation above the start while action runs, and its result."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, result


def test_write_holds_no_copy_of_the_archive(tmp_path):
    archive = make_archive(n=STREAM_STEPS, seed=1, shape=STREAM_SHAPE)
    path = tmp_path / "big.trace"
    peak, _ = traced_peak(lambda: write_trace(path, archive))
    assert peak < STREAM_RECORD + STREAM_SLACK
    assert path.read_bytes() == oracle_bytes(archive)


def test_read_holds_one_copy_plus_one_record(tmp_path):
    archive = make_archive(n=STREAM_STEPS, seed=1, shape=STREAM_SHAPE)
    path = written(tmp_path, archive, name="big.trace")
    peak, parsed = traced_peak(lambda: read_trace(path))
    assert peak < STREAM_STEPS * STREAM_RECORD + 2 * STREAM_RECORD + STREAM_SLACK
    assert_same_archive(parsed, archive)


@pytest.mark.parametrize("fmt, offset, value, message", [
    ("<I", 0, 7, "record 0 has step index 7, expected 39"),
    ("<d", 4, 0.5, "record 0 has t=0.5, schedule says 1.0"),
])
def test_misplaced_record_is_rejected_at_its_prefix(tmp_path, fmt, offset, value, message):
    """A wrong step index or t fails before the record's payload, or any later one, is allocated."""
    first_record = 32 + (STREAM_STEPS + 1) * 8
    archive = make_archive(n=STREAM_STEPS, seed=1, shape=STREAM_SHAPE)
    path = corrupted(tmp_path, lambda data: struct.pack_into(fmt, data, first_record + offset, value), archive)

    def read_rejected():
        with pytest.raises(TraceError, match=message):
            read_trace(path)

    peak, _ = traced_peak(read_rejected)
    assert peak < STREAM_RECORD + STREAM_SLACK
