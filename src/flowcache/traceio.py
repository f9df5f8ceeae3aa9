"""Binary trace files: recorded per-step predictions plus their schedule.

Layout (all integers little-endian):

    offset 0   magic "PCTR" (4 bytes)
    offset 4   format version, u32, currently 1
    offset 8   element type tag, u32, 1 = float64 little-endian
    offset 12  latent shape (T, H, W, C), four u32
    offset 28  step count N, u32
    offset 32  schedule, (N + 1) float64 values
    then       N records, each: step index u32, t float64, T*H*W*C float64

Records run from step index N - 1 down to 0, matching traversal order from
t = 1 toward the terminal. Write followed by read is a bitwise identity on
the header and every tensor.

Records stream between the file and their own arrays: the writer hands each
prediction's buffer to the file, and the reader fills a fresh array per
record straight from it. A round trip so holds the archive plus at most one
record, never a copy of the whole file. The reader checks the header and the
exact file length before it reads the schedule or allocates any record,
and each record's step index and t before it allocates that record.
Malformed input raises TraceError naming the byte offset of the first
violated field, or the expected versus actual byte count when the file is
the wrong length; a non-regular file such as a FIFO reports a length of 0.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DomainError, ScheduleError, TraceError
from .predictors import TraceArchive, TraceRecord, check_record_position
from .sampler import TimestepSchedule
from .tensor import require_finite

TRACE_MAGIC = b"PCTR"
TRACE_VERSION = 1
ELEM_TAG_F64_LE = 1

_HEADER = struct.Struct("<4s7I")  # magic, version, element tag, shape, step count
_PREFIX = struct.Struct("<Id")  # a record's step index and t
_U32_MAX = 2**32 - 1

_MAGIC_OFFSET = 0
_VERSION_OFFSET = 4
_ELEM_TAG_OFFSET = 8
_SHAPE_OFFSET = 12
_COUNT_OFFSET = 28
_SCHEDULE_OFFSET = 32


def _expected_size(shape: tuple[int, int, int, int], n_steps: int) -> int:
    cells = shape[0] * shape[1] * shape[2] * shape[3]
    return _SCHEDULE_OFFSET + (n_steps + 1) * 8 + n_steps * (_PREFIX.size + cells * 8)


def write_trace(path, archive: TraceArchive) -> None:
    """Write an archive to disk in the binary trace format.

    The archive is validated before the file is opened, so a rejected archive
    neither creates nor truncates the target.
    """
    if not archive.records:
        raise TraceError("archive holds no records")
    shape = archive.records[0].prediction.shape
    n = archive.schedule.n_steps
    for value, what in ((n, "step count"), *((extent, "shape extent") for extent in shape)):
        if value > _U32_MAX:
            raise TraceError(f"{what} {value} does not fit in an unsigned 32-bit field")
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, ELEM_TAG_F64_LE, *shape, n))
        handle.write(np.asarray(archive.schedule.values, dtype="<f8"))
        for rec in archive.records:
            handle.write(_PREFIX.pack(rec.step_index, rec.t))
            handle.write(np.ascontiguousarray(rec.prediction, dtype="<f8"))


def read_trace(path) -> TraceArchive:
    """Read a binary trace file back into an archive."""
    with open(path, "rb") as handle:
        header = handle.read(_SCHEDULE_OFFSET)
        if len(header) < _SCHEDULE_OFFSET:
            raise TraceError(f"expected at least {_SCHEDULE_OFFSET} header bytes, got {len(header)}")
        magic, version, elem_tag, *extents, n = _HEADER.unpack(header)
        shape = tuple(extents)
        if magic != TRACE_MAGIC:
            raise TraceError(f"bad magic {magic!r} at byte offset {_MAGIC_OFFSET}, expected {TRACE_MAGIC!r}")
        if version != TRACE_VERSION:
            raise TraceError(f"unsupported format version {version} at byte offset {_VERSION_OFFSET}, expected {TRACE_VERSION}")
        if elem_tag != ELEM_TAG_F64_LE:
            raise TraceError(f"unsupported element type tag {elem_tag} at byte offset {_ELEM_TAG_OFFSET}, expected {ELEM_TAG_F64_LE}")
        for pos, extent in enumerate(shape):
            if extent < 1:
                raise TraceError(f"shape extent {extent} at byte offset {_SHAPE_OFFSET + 4 * pos} must be >= 1")
        if n < 1:
            raise TraceError(f"step count {n} at byte offset {_COUNT_OFFSET} must be >= 1")
        expected = _expected_size(shape, n)

        def check_length(actual: int) -> None:
            if actual != expected:
                raise TraceError(f"expected {expected} bytes for shape {shape} and {n} steps, got {actual}")

        def fill(buffer) -> int:
            """Fill buffer from the file; return the byte offset it was read from."""
            offset = handle.tell()
            got = handle.readinto(buffer)
            if got != buffer.nbytes:
                # the file shrank after the length check: report the length it has now
                check_length(offset + got)
            return offset

        check_length(os.fstat(handle.fileno()).st_size)
        schedule_values = np.empty(n + 1, dtype="<f8")
        fill(schedule_values)
        try:
            schedule = TimestepSchedule(tuple(float(v) for v in schedule_values))
        except ScheduleError as exc:
            raise TraceError(f"embedded schedule at byte offset {_SCHEDULE_OFFSET} is invalid: {exc}") from exc

        prefix = memoryview(bytearray(_PREFIX.size))
        records = []
        for pos in range(n):
            fill(prefix)
            step_index, t_value = _PREFIX.unpack(prefix)
            check_record_position(schedule, pos, step_index, t_value)
            values = np.empty(shape, dtype="<f8")
            payload_offset = fill(values)
            try:
                prediction = require_finite(values)
            except DomainError as exc:
                raise TraceError(f"record {pos} payload at byte offset {payload_offset} is invalid: {exc}") from exc
            records.append(TraceRecord(step_index=step_index, t=t_value, prediction=prediction))
    return TraceArchive(schedule, tuple(records))
