"""File formats: multichannel records, result tables, configs, plot scripts.

Binary record layout (little-endian throughout):

    bytes 0..7    magic b"DASREC1\\0"
    bytes 8..11   channel count M, uint32
    bytes 12..19  sample count N, uint64
    bytes 20..27  sample rate in Hz, float64
    byte  28      data kind: 0 = real32, 1 = complex64
    bytes 29..    payload, M*N values row-major by channel

Parsers reject rather than guess: any mismatch between header and payload
raises ParseError naming the byte offset, and nothing partial is returned.

Tables are CSV with '#' comment lines. Every table carries a manifest
comment (config hash + seed) so the artifact can be reproduced; nothing
non-deterministic (timestamps, wall time) goes into a metrics table.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import struct

import numpy as np

from .bench import BenchResult, ScenarioConfig, timing_ratios
from .broadband import BearingTimeRecord
from .errors import ConfigError, DataError, ParseError
from .estimators import SpatialSpectrum
from .simulate import SnapshotMatrix

MAGIC = b"DASREC1\x00"
_HEADER = struct.Struct("<IQdB")
_KINDS = {0: np.dtype("<f4"), 1: np.dtype("<c8")}
HEADER_SIZE = len(MAGIC) + _HEADER.size
FLOAT_FMT = "%.9g"


# -----------------------------
# Multichannel records
# -----------------------------
def save_record(block: SnapshotMatrix, path, fmt: str = "binary") -> None:
    if fmt == "binary":
        _save_record_binary(block, path)
    elif fmt == "csv":
        _save_record_csv(block, path)
    else:
        raise ConfigError(f"unknown record format {fmt!r}")


def load_record(path, fmt: str = "binary") -> SnapshotMatrix:
    try:
        if fmt == "binary":
            return _load_record_binary(path)
        if fmt == "csv":
            return _load_record_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read record {path}: {exc}") from exc
    raise ConfigError(f"unknown record format {fmt!r}")


def _record_kind(data: np.ndarray) -> int:
    return 1 if np.iscomplexobj(data) else 0


def _write(path, what: str, *chunks) -> None:
    """Write text chunks (newlines as given) or bytes-like chunks to path;
    an OSError becomes a DataError naming what and where."""
    text = isinstance(chunks[0], str)
    try:
        with open(path, "w" if text else "wb", newline="" if text else None) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def _save_record_binary(block: SnapshotMatrix, path) -> None:
    kind = _record_kind(block.data)
    payload = np.ascontiguousarray(block.data, dtype=_KINDS[kind])
    header = _HEADER.pack(*payload.shape, float(block.sample_rate), kind)
    _write(path, "record", MAGIC, header, payload)


def _load_record_binary(path) -> SnapshotMatrix:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) or raw[:len(MAGIC)] != MAGIC:
        raise ParseError(f"bad magic in {path}", offset=0)
    if len(raw) < HEADER_SIZE:
        raise ParseError(f"truncated header in {path}", offset=len(raw))
    m, n, rate, kind = _HEADER.unpack_from(raw, len(MAGIC))
    if kind not in _KINDS:
        raise ParseError(f"unknown data kind {kind} in {path}",
                         offset=HEADER_SIZE - 1)
    expect = m * n * _KINDS[kind].itemsize
    actual = len(raw) - HEADER_SIZE
    if actual != expect:
        raise ParseError(
            f"payload length mismatch in {path}: header promises {expect} "
            f"bytes for {m}x{n}, found {actual}", offset=HEADER_SIZE)
    if m < 2 or n < 1:
        raise ParseError(f"header dimensions {m}x{n} out of range in {path}",
                         offset=len(MAGIC))
    data = np.frombuffer(raw, dtype=_KINDS[kind], count=m * n,
                         offset=HEADER_SIZE).reshape(m, n).copy()
    domain = "narrowband-snapshot" if kind == 1 else "time"
    return SnapshotMatrix(data, domain, sample_rate=rate)


def _save_record_csv(block: SnapshotMatrix, path) -> None:
    data = block.data
    m, n = data.shape
    kind = "complex64" if _record_kind(data) else "real32"
    lines = [f"# channels={m} samples={n} rate={float(block.sample_rate)!r} "
             f"kind={kind}\n"]
    for row in data:
        if kind == "complex64":
            cells = [f"{FLOAT_FMT % v.real}{v.imag:+.9g}j" for v in row]
        else:
            cells = [FLOAT_FMT % v for v in row]
        lines.append(",".join(cells) + "\n")
    _write(path, "record", *lines)


def _load_record_csv(path) -> SnapshotMatrix:
    with open(path, "r") as fh:
        header = fh.readline()
        if not header.startswith("# channels="):
            raise ParseError(f"missing record header in {path}", offset=0)
        try:
            fields = dict(part.split("=", 1)
                          for part in header[2:].split())
            m = int(fields["channels"])
            n = int(fields["samples"])
            rate = float(fields["rate"])
            kind = fields["kind"]
        except (KeyError, ValueError) as exc:
            raise ParseError(f"malformed record header in {path}: {exc}",
                             offset=0) from exc
        if kind not in ("real32", "complex64"):
            raise ParseError(f"unknown data kind {kind!r} in {path}", offset=0)
        rows = []
        offset = len(header)
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
                conv = complex if kind == "complex64" else float
                rows.append([conv(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"unparsable value in row {i} of {path}",
                                 offset=offset) from exc
            offset += len(line)
    dtype = _KINDS[1] if kind == "complex64" else _KINDS[0]
    data = np.array(rows, dtype=dtype)
    domain = "narrowband-snapshot" if kind == "complex64" else "time"
    return SnapshotMatrix(data, domain, sample_rate=rate)


# -----------------------------
# Result tables
# -----------------------------
def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def _manifest_line(config_hash: str, seed) -> str:
    return f"# manifest config={config_hash} seed={seed}\n"


def _meta_hash(*parts) -> str:
    blob = json.dumps([str(p) for p in parts])
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def save_table(result, path, seed="na") -> None:
    """Write a result as deterministic CSV with a manifest comment."""
    _write(path, "table", render_table(result, seed))


def render_table(result, seed="na") -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(result, SpatialSpectrum):
        freq = _fmt(float(result.frequency))
        buf.write(f"# spectrum estimator={result.estimator} frequency={freq}\n")
        buf.write(_manifest_line(
            _meta_hash(result.estimator, freq, result.angles.tobytes()), seed))
        writer.writerow(["angle_deg", "power_db"])
        for ang, pdb in zip(result.angles, result.power_db):
            writer.writerow([_fmt(float(ang)), _fmt(float(pdb))])
    elif isinstance(result, BearingTimeRecord):
        buf.write(f"# btr estimator={result.estimator} "
                  f"frames={len(result.times)}\n")
        buf.write(_manifest_line(
            _meta_hash(result.estimator, result.angles.tobytes()), seed))
        writer.writerow(["time_s"] + [_fmt(float(a)) for a in result.angles])
        for t, row in zip(result.times, result.power_db):
            writer.writerow([_fmt(float(t))] + [_fmt(float(v)) for v in row])
    elif isinstance(result, BenchResult):
        cfg = result.config
        buf.write(f"# bench preset={cfg.name} sweep={cfg.sweep}\n")
        buf.write(_manifest_line(cfg.digest(), cfg.seed))
        writer.writerow(["sweep_param", "value", "method", "trials",
                         "shortfalls", "success_pct", "rmse_deg"])
        for row in result.rows:
            writer.writerow([row.sweep, _fmt(row.value), row.method,
                             row.trials, row.shortfalls,
                             _fmt(row.success_pct), _fmt(row.rmse_deg)])
    else:
        raise ConfigError(f"cannot serialize {type(result).__name__} as a table")
    return buf.getvalue()


def save_timing_table(result: BenchResult, path) -> None:
    """Wall-clock totals, kept apart from the deterministic metrics table."""
    buf = io.StringIO()
    buf.write(f"# bench-timing preset={result.config.name}\n")
    buf.write(_manifest_line(result.config.digest(), result.config.seed))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "total_s", "ratio"])
    for method, total, ratio in timing_ratios(result):
        writer.writerow([method, _fmt(total), _fmt(ratio)])
    _write(path, "table", buf.getvalue())


# -----------------------------
# Configuration files
# -----------------------------
def load_config(path) -> dict:
    """JSON object of option keys; flat, no nesting required."""
    try:
        with open(path, "r") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
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
