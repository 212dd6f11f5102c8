"""File formats: multichannel records, result tables, configs, plot scripts.

Binary record layout (little-endian throughout):

    bytes 0..7    magic b"DASREC1\\0"
    bytes 8..11   channel count M, uint32
    bytes 12..19  sample count N, uint64
    bytes 20..27  sample rate in Hz, float64, positive and finite
    byte  28      data kind code (the kind table below)
    bytes 29..    payload, M*N values row-major by channel

A CSV record is the header "# channels=M samples=N rate=R kind=NAME" and a
row of N values per channel at 9 significant digits, which round-trip its
dtype. Both formats take a record's kind from one table, _KINDS: code 0 is
"real32" (<f4) for real samples, code 1 "complex64" (<c8) for complex ones.

Parsers reject rather than guess: any mismatch between header and payload,
and any shape or sample that SnapshotMatrix rejects, raises ParseError
naming the byte offset, and nothing partial is returned. Writers refuse a
record whose samples overflow the stored dtype before writing a byte.

Tables are CSV with '#' comment lines. Every table carries a manifest
comment (config hash + seed) so the artifact can be reproduced; nothing
non-deterministic (timestamps, wall time) goes into a metrics table.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import stat
import struct

import numpy as np

from .bench import BenchResult, ScenarioConfig, timing_ratios
from .broadband import BearingTimeRecord
from .errors import ConfigError, DataError, ParseError
from .estimators import SpatialSpectrum
from .simulate import SnapshotMatrix

MAGIC = b"DASREC1\x00"
_HEADER = struct.Struct("<IQdB")
# kind code (the index) -> (CSV name, stored dtype, CSV value parser)
_KINDS = (("real32", np.dtype("<f4"), float), ("complex64", np.dtype("<c8"), complex))
HEADER_SIZE = len(MAGIC) + _HEADER.size
FLOAT_FMT = "%.9g"


# -----------------------------
# Multichannel records
# -----------------------------
def _check_rate(rate, path, offset) -> None:
    """A ParseError at offset unless a header's rate is positive and finite."""
    if not (rate > 0 and np.isfinite(rate)):
        raise ParseError(f"header sample rate {rate} in {path} is not a "
                         f"positive finite number", offset=offset)


def _record(data, rate, path, offset) -> SnapshotMatrix:
    """The record of data at rate; a shape or a sample that SnapshotMatrix
    rejects is a ParseError at offset, where the samples start."""
    try:
        return SnapshotMatrix(data, rate)
    except ConfigError as exc:
        raise ParseError(f"{exc} in {path}", offset=offset) from None


def save_record(block: SnapshotMatrix, path, fmt: str = "binary") -> None:
    """Write a record, its samples cast to the dtype of its kind; a
    ConfigError, before anything is written, if fmt is unknown or a cast
    sample is not finite (it overflowed the dtype)."""
    if fmt not in ("binary", "csv"):
        raise ConfigError(f"unknown record format {fmt!r}")
    kind = int(np.iscomplexobj(block.data))
    name, dtype, _ = _KINDS[kind]
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(block.data, dtype=dtype)
    if not np.isfinite(data).all():
        raise ConfigError(f"samples up to {np.abs(block.data).max():g} in magnitude "
                          f"overflow a {name} record")
    m, n = data.shape
    rate = float(block.sample_rate)
    if fmt == "binary":
        _write(path, "record", MAGIC, _HEADER.pack(m, n, rate, kind), data)
        return
    lines = [f"# channels={m} samples={n} rate={rate!r} kind={name}\n"]
    for row in data:
        cells = ([f"{FLOAT_FMT % v.real}{v.imag:+.9g}j" for v in row.tolist()] if kind
                 else [FLOAT_FMT % v for v in row.tolist()])
        lines.append(",".join(cells) + "\n")
    _write(path, "record", *lines)


def load_record(path, fmt: str = "binary") -> SnapshotMatrix:
    try:
        if fmt == "binary":
            return _load_record_binary(path)
        if fmt == "csv":
            return _load_record_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read record {path}: {exc}") from exc
    raise ConfigError(f"unknown record format {fmt!r}")


def _write(path, what: str, *chunks) -> None:
    """Write text chunks (newlines as given) or bytes-like chunks to path;
    an OSError becomes a DataError naming what and where."""
    text = isinstance(chunks[0], str)
    try:
        with open(path, "w" if text else "wb", newline="" if text else None) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def _load_record_binary(path) -> SnapshotMatrix:
    """Read the header, check it against the payload size, then read the
    payload into the record's array: straight into it from a regular file,
    whose size is known before reading, and through one bytes copy from a
    pipe or other stream, whose size is not."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if len(head) < len(MAGIC) or head[:len(MAGIC)] != MAGIC:
            raise ParseError(f"bad magic in {path}", offset=0)
        if len(head) < HEADER_SIZE:
            raise ParseError(f"truncated header in {path}", offset=len(head))
        m, n, rate, kind = _HEADER.unpack_from(head, len(MAGIC))
        _check_rate(rate, path, len(MAGIC) + 12)
        if kind >= len(_KINDS):
            raise ParseError(f"unknown data kind {kind} in {path}",
                             offset=HEADER_SIZE - 1)
        dtype = _KINDS[kind][1]
        expect = m * n * dtype.itemsize
        st = os.fstat(fh.fileno())
        payload = None if stat.S_ISREG(st.st_mode) else fh.read()
        actual = st.st_size - HEADER_SIZE if payload is None else len(payload)
        # numpy makes no (0, n) array of a huge n; SnapshotMatrix rejects
        # (0, 0) as it would any empty shape
        shape = (m, n) if expect else (0, 0)
        if actual == expect:
            if payload is None:
                data = np.empty(shape, dtype=dtype)
                # a file that shrank since fstat reads short
                actual = fh.readinto(data)
            else:
                data = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        if actual != expect:
            raise ParseError(
                f"payload length mismatch in {path}: header promises {expect} "
                f"bytes for {m}x{n}, found {actual}", offset=HEADER_SIZE)
    return _record(data, rate, path, HEADER_SIZE)


def _load_record_csv(path) -> SnapshotMatrix:
    with open(path, "r") as fh:
        header = fh.readline()
        if not header.startswith("# channels="):
            raise ParseError(f"missing record header in {path}", offset=0)
        try:
            fields = dict(part.split("=", 1)
                          for part in header[2:].split())
            m, n = int(fields["channels"]), int(fields["samples"])
            rate, kind = float(fields["rate"]), fields["kind"]
        except (KeyError, ValueError) as exc:
            raise ParseError(f"malformed record header in {path}: {exc}",
                             offset=0) from exc
        kinds = {name: (dtype, parse) for name, dtype, parse in _KINDS}
        if kind not in kinds:
            raise ParseError(f"unknown data kind {kind!r} in {path}", offset=0)
        dtype, parse = kinds[kind]
        _check_rate(rate, path, 0)
        rows = []
        offset = start = len(header)
        for i in range(m):
            line = fh.readline()
            if not line:
                raise ParseError(f"expected {m} channel rows in {path}, "
                                 f"got {i}", offset=offset)
            if not line.endswith("\n"):
                raise ParseError(f"row {i} of {path} is truncated",
                                 offset=offset + len(line))
            cells = line.strip().split(",")
            if len(cells) != n:
                raise ParseError(f"row {i} of {path} has {len(cells)} values, "
                                 f"header promises {n}", offset=offset)
            try:
                rows.append([parse(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"unparsable value in row {i} of {path}",
                                 offset=offset) from exc
            offset += len(line)
        if fh.read(1):
            raise ParseError(f"content after the {m} channel rows of {path}",
                             offset=offset)
    return _record(np.array(rows, dtype=dtype), rate, path, start)


# -----------------------------
# Result tables
# -----------------------------
def _meta_hash(*parts) -> str:
    blob = json.dumps([str(p) for p in parts])
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _table(title: str, config_hash: str, seed, header, rows) -> str:
    """CSV text: the title comment, the manifest comment (config hash and
    seed), the header row and the rows."""
    buf = io.StringIO()
    buf.write(f"# {title}\n# manifest config={config_hash} seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def save_table(result, path) -> None:
    """Write a result as deterministic CSV with a manifest comment."""
    _write(path, "table", render_table(result))


def render_table(result) -> str:
    """The CSV text of save_table. A bench table's manifest carries its
    config's seed; spectrum and bearing-time tables carry seed=na."""
    if isinstance(result, SpatialSpectrum):
        freq = FLOAT_FMT % result.frequency
        return _table(f"spectrum estimator={result.estimator} frequency={freq}",
                      _meta_hash(result.estimator, freq, result.angles.tobytes()), "na",
                      ["angle_deg", "power_db"],
                      ([FLOAT_FMT % ang, FLOAT_FMT % pdb]
                       for ang, pdb in zip(result.angles.tolist(), result.power_db.tolist())))
    if isinstance(result, BearingTimeRecord):
        return _table(f"btr estimator={result.estimator} frames={len(result.times)}",
                      _meta_hash(result.estimator, result.angles.tobytes()), "na",
                      ["time_s"] + [FLOAT_FMT % a for a in result.angles.tolist()],
                      ([FLOAT_FMT % t] + [FLOAT_FMT % v for v in row]
                       for t, row in zip(result.times.tolist(), result.power_db.tolist())))
    if isinstance(result, BenchResult):
        cfg = result.config
        return _table(f"bench preset={cfg.name} sweep={cfg.sweep}", cfg.digest(), cfg.seed,
                      ["sweep_param", "value", "method", "trials", "shortfalls",
                       "success_pct", "rmse_deg"],
                      ([row.sweep, FLOAT_FMT % row.value, row.method, row.trials,
                        row.shortfalls, FLOAT_FMT % row.success_pct,
                        FLOAT_FMT % row.rmse_deg]
                       for row in result.rows))
    raise ConfigError(f"cannot serialize {type(result).__name__} as a table")


def save_timing_table(result: BenchResult, path) -> None:
    """Wall-clock totals, kept apart from the deterministic metrics table."""
    cfg = result.config
    _write(path, "table", _table(
        f"bench-timing preset={cfg.name}", cfg.digest(), cfg.seed,
        ["method", "total_s", "ratio"],
        ([method, FLOAT_FMT % total, FLOAT_FMT % ratio]
         for method, total, ratio in timing_ratios(result))))


# -----------------------------
# Configuration files
# -----------------------------
def load_config(path) -> dict:
    """JSON object of option keys; flat, no nesting required."""
    def unique(pairs):  # a JSON object; a repeated key is a ParseError
        keys = [key for key, _ in pairs]
        if repeated := sorted({key for key in keys if keys.count(key) > 1}):
            raise ParseError(f"config {path} repeats keys {repeated}")
        return dict(pairs)

    try:
        with open(path, "r") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(raw, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc.msg}",
                         offset=exc.pos) from exc
    if not isinstance(obj, dict):
        raise ParseError(f"config {path} must be a JSON object", offset=0)
    return obj


def scenario_from_dict(options: dict) -> ScenarioConfig:
    """Build a ScenarioConfig, converting lists to tuples and rejecting
    unknown keys instead of ignoring them."""
    fields = ScenarioConfig.__dataclass_fields__
    unknown = set(options) - set(fields)
    if unknown:
        raise ConfigError(f"unknown scenario keys {sorted(unknown)}")
    clean = {k: tuple(v) if isinstance(v, list) else v
             for k, v in options.items()}
    return ScenarioConfig(**clean)


# -----------------------------
# Plot companions
# -----------------------------
def write_gnuplot(csv_path, script_path, kind: str = "spectrum") -> None:
    """Companion gnuplot script for a saved table; no plotting here."""
    if kind == "spectrum":
        body = (f'set datafile separator ","\n'
                f'set xlabel "angle (deg)"\n'
                f'set ylabel "power (dB)"\n'
                f'plot "{csv_path}" skip 3 using 1:2 with lines notitle\n')
    elif kind == "btr":
        body = (f'set datafile separator ","\n'
                f'set xlabel "angle (deg)"\n'
                f'set ylabel "time (s)"\n'
                f'set view map\n'
                f'splot "{csv_path}" skip 3 matrix nonuniform with image notitle\n')
    elif kind == "bench":
        body = (f'set datafile separator ","\n'
                f'set xlabel "sweep value"\n'
                f'set ylabel "RMSE (deg)"\n'
                f'set key outside\n'
                f'plot "{csv_path}" skip 3 using 2:7 with linespoints notitle\n')
    else:
        raise ConfigError(f"unknown plot kind {kind!r}")
    _write(script_path, "script", body)
