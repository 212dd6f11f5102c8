import os
import re
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from dasdoa.bench import BenchResult, BenchRow, ScenarioConfig, run_monte_carlo
from dasdoa.broadband import BearingTimeRecord
from dasdoa.errors import ConfigError, DataError, ParseError
from dasdoa.estimators import SpatialSpectrum
from dasdoa.recordio import HEADER_SIZE, load_config, load_record, \
    render_table, save_record, save_table, save_timing_table, \
    scenario_from_dict, write_gnuplot
from dasdoa.simulate import SnapshotMatrix


def _complex_block(m=4, n=16, seed=0):
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return SnapshotMatrix(data.astype(np.complex64), 6000.0)


def _real_block(m=3, n=32, seed=1):
    data = np.random.default_rng(seed).standard_normal((m, n))
    return SnapshotMatrix(data.astype(np.float32), 5120.0)


def test_binary_round_trip_bit_identical(tmp_path):
    for block in (_complex_block(), _real_block()):
        path = tmp_path / "rec.bin"
        save_record(block, path)
        loaded = load_record(path)
        assert loaded.domain == block.domain
        assert loaded.sample_rate == block.sample_rate
        assert loaded.data.tobytes() == block.data.tobytes()
        # saving what was loaded reproduces the file byte for byte
        path2 = tmp_path / "rec2.bin"
        save_record(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_binary_record_loads_through_a_pipe(tmp_path):
    # a pipe reports no size, so the loader cannot take it from the file
    block = _real_block()
    path = tmp_path / "rec.bin"
    save_record(block, path)
    raw = path.read_bytes()
    for payload, problem in ((raw, None), (raw[:-5], "mismatch"),
                             (raw + b"\0", "mismatch")):
        fifo = tmp_path / "rec.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(payload,))
        writer.start()
        try:
            if problem is None:
                loaded = load_record(fifo)
                assert loaded.data.tobytes() == block.data.tobytes()
                assert loaded.data.flags.writeable
            else:
                with pytest.raises(ParseError, match=problem) as err:
                    load_record(fifo)
                assert err.value.offset == HEADER_SIZE
        finally:
            writer.join()
            fifo.unlink()


def test_csv_round_trip(tmp_path):
    for block in (_complex_block(), _real_block()):
        path = tmp_path / "rec.csv"
        save_record(block, path, "csv")
        loaded = load_record(path, "csv")
        assert_allclose(loaded.data, block.data, rtol=1e-6)
        assert loaded.sample_rate == block.sample_rate


@st.composite
def _records(draw):
    """A real time record or a complex snapshot record of finite values in
    float32 range, in single or double precision."""
    shape = (draw(st.integers(2, 4)), draw(st.integers(1, 5)))
    width = draw(st.sampled_from([32, 64]))
    top = float(np.finfo(np.float32).max)
    if draw(st.booleans()):
        values = st.complex_numbers(max_magnitude=top, width=2 * width,
                                    allow_nan=False, allow_infinity=False)
        data = arrays(np.dtype(f"c{width // 4}"), shape, elements=values)
    else:
        values = st.floats(-top, top, width=width)
        data = arrays(np.dtype(f"f{width // 8}"), shape, elements=values)
    return SnapshotMatrix(draw(data), draw(st.floats(1.0, 1e6)))


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@given(block=_records())
def test_record_round_trip_property(fmt, block, tmp_path_factory):
    # a record is stored in single precision; its CSV form loads to the
    # very array its binary form does
    tmp = tmp_path_factory.mktemp("round")
    other = "csv" if fmt == "binary" else "binary"
    for f in (fmt, other):
        save_record(block, tmp / f, f)
    loaded, twin = load_record(tmp / fmt, fmt), load_record(tmp / other, other)
    assert (loaded.domain, loaded.sample_rate) == (block.domain, block.sample_rate)
    assert loaded.data.dtype == (np.complex64 if block.data.dtype.kind == "c"
                                 else np.float32)
    assert np.array_equal(loaded.data, block.data.astype(loaded.data.dtype))
    assert loaded.data.tobytes() == twin.data.tobytes()


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@settings(max_examples=25)
@given(block=_records())
def test_every_proper_prefix_is_a_parse_error(fmt, block, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("prefix")
    save_record(block, tmp / "rec", fmt)
    raw = (tmp / "rec").read_bytes()
    for size in range(len(raw)):
        (tmp / "cut").write_bytes(raw[:size])
        with pytest.raises(ParseError) as err:
            load_record(tmp / "cut", fmt)
        assert err.value.offset is not None and 0 <= err.value.offset <= size


@settings(max_examples=40)
@given(block=_records(), extra=st.text(min_size=1))
def test_content_after_the_csv_rows_is_a_parse_error(block, extra, tmp_path_factory):
    path = tmp_path_factory.mktemp("trailing") / "rec.csv"
    save_record(block, path, "csv")
    size = path.stat().st_size
    with open(path, "a") as fh:
        fh.write(extra)
    with pytest.raises(ParseError) as err:
        load_record(path, "csv")
    assert err.value.offset == size


def test_many_channel_header_accepted(tmp_path):
    block = SnapshotMatrix(np.zeros((620, 2), dtype=np.float32), 1000.0)
    path = tmp_path / "wide.bin"
    save_record(block, path)
    assert load_record(path).n_channels == 620


def test_corrupt_magic_names_offset_zero(tmp_path):
    path = tmp_path / "rec.bin"
    save_record(_real_block(), path)
    raw = bytearray(path.read_bytes())
    raw[2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError) as err:
        load_record(path)
    assert err.value.offset == 0
    assert "byte offset 0" in str(err.value)


def test_truncated_header_and_payload(tmp_path):
    path = tmp_path / "rec.bin"
    save_record(_real_block(), path)
    raw = path.read_bytes()

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:HEADER_SIZE - 3])
    with pytest.raises(ParseError) as err:
        load_record(short)
    assert err.value.offset == HEADER_SIZE - 3

    chopped = tmp_path / "chopped.bin"
    chopped.write_bytes(raw[:-5])
    with pytest.raises(ParseError) as err:
        load_record(chopped)
    assert err.value.offset == HEADER_SIZE
    assert "mismatch" in str(err.value)


def test_unknown_kind_byte_rejected(tmp_path):
    path = tmp_path / "rec.bin"
    save_record(_real_block(), path)
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE - 1] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        load_record(path)


@pytest.mark.parametrize("fmt, offset", [("binary", 20), ("csv", 0)])
@pytest.mark.parametrize("rate", [np.nan, 0.0, -5120.0, np.inf])
def test_a_header_rate_that_is_not_positive_finite_is_rejected(rate, fmt, offset,
                                                                tmp_path):
    path = tmp_path / "rec"
    save_record(_real_block(), path, fmt)
    raw = path.read_bytes()
    if fmt == "binary":
        raw = raw[:20] + struct.pack("<d", rate) + raw[28:]
    else:
        raw = raw.replace(b"rate=5120.0", f"rate={rate!r}".encode(), 1)
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="not a positive finite number") as err:
        load_record(path, fmt)
    assert err.value.offset == offset
    # nor can a record with such a rate be made, so none is written
    with pytest.raises(ConfigError, match="sample rate must be a positive finite"):
        SnapshotMatrix(_real_block().data, rate)


def _edited(raw, fmt, edit):
    """A record file's bytes with its first sample NaN ("nan") or its first
    channel alone ("one-channel"), and the offset where its samples start."""
    if fmt == "binary":
        if edit == "nan":
            raw = raw[:HEADER_SIZE] + struct.pack("<f", np.nan) + raw[HEADER_SIZE + 4:]
        else:
            n = struct.unpack_from("<Q", raw, 12)[0]
            raw = raw[:8] + struct.pack("<I", 1) + raw[12:HEADER_SIZE + 4 * n]
        return raw, HEADER_SIZE
    head, first, rest = raw.split(b"\n", 2)
    if edit == "nan":
        raw = b"\n".join((head, b"nan" + first[first.index(b","):], rest))
    else:
        raw = b"\n".join((head.replace(b"channels=3", b"channels=1"), first, b""))
    return raw, len(head) + 1


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("edit, message", [
    ("nan", "snapshot matrix entries must be finite"),
    ("one-channel", "snapshot matrix must be M x N with M >= 2, N >= 1")])
def test_a_record_that_snapshot_matrix_rejects_is_a_parse_error(edit, message, fmt,
                                                                tmp_path):
    # a data error (exit 3) in both formats, at the offset of the samples
    path = tmp_path / "rec"
    save_record(_real_block(), path, fmt)
    raw, start = _edited(path.read_bytes(), fmt, edit)
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        load_record(path, fmt)
    assert err.value.offset == start and err.value.exit_code == 3


@pytest.mark.parametrize("m, n", [(0, 2 ** 64 - 1), (0, 0), (5, 0)])
def test_an_empty_binary_record_is_a_parse_error(m, n, tmp_path):
    path = tmp_path / "rec.bin"
    path.write_bytes(b"DASREC1\0" + struct.pack("<IQdB", m, n, 100.0, 0))
    with pytest.raises(ParseError, match="M >= 2, N >= 1") as err:
        load_record(path)
    assert err.value.offset == HEADER_SIZE


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("data, name", [(np.full((3, 4), 1e39), "real32"),
                                        (np.full((3, 4), 1e39j), "complex64")])
def test_samples_that_overflow_the_stored_dtype_are_not_written(data, name, fmt,
                                                                tmp_path):
    path = tmp_path / "big"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"overflow a {name} record") as err:
            save_record(SnapshotMatrix(data, 100.0), path, fmt)
    assert err.value.exit_code == 2 and not path.exists()


def test_csv_record_header_errors(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("angle,power\n1,2\n")
    with pytest.raises(ParseError):
        load_record(path, "csv")
    path.write_text("# channels=3 samples=4 rate=100.0 kind=real32\n1,2,3,4\n")
    with pytest.raises(ParseError):       # promises 3 rows, has 1
        load_record(path, "csv")
    path.write_text("# channels=2 samples=3 rate=100.0 kind=real32\n"
                    "1,2\n3,4\n")
    with pytest.raises(ParseError):       # promises 3 values per row
        load_record(path, "csv")


def test_missing_file_is_data_error():
    from dasdoa.errors import DataError
    with pytest.raises(DataError):
        load_record("/nonexistent/rec.bin")


def test_save_table_spectrum_layout(tmp_path):
    spec = SpatialSpectrum(np.array([-1.0, 0.0, 1.0]),
                           np.array([0.5, 2.0, 1.0]), "cbf", 3000.0)
    path = tmp_path / "spec.csv"
    save_table(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# spectrum estimator=cbf")
    assert lines[1].startswith("# manifest config=")
    assert lines[2] == "angle_deg,power_db"
    assert len(lines) == 3 + 3            # header block + one row per angle


def test_save_table_btr_layout(tmp_path):
    rec = BearingTimeRecord(np.array([0.5, 1.0]), np.array([0.0, 1.0, 2.0]),
                            np.zeros((2, 3)), "cbf")
    path = tmp_path / "btr.csv"
    save_table(rec, path)
    lines = path.read_text().splitlines()
    assert lines[2].split(",") == ["time_s", "0", "1", "2"]
    assert len(lines) == 3 + 2
    assert len(lines[3].split(",")) == 4  # time + one column per bearing


def test_save_table_bench_deterministic(tmp_path):
    cfg = ScenarioConfig(name="tiny", sweep_values=(9.0,), trials=2,
                         methods=("cbf",), seed=3)
    text1 = render_table(run_monte_carlo(cfg))
    text2 = render_table(run_monte_carlo(cfg))
    assert text1 == text2
    assert "success_pct" in text1
    timing = tmp_path / "timing.csv"
    save_timing_table(run_monte_carlo(cfg), timing)
    assert timing.read_text().splitlines()[2] == "method,total_s,ratio"


def test_tables_render_their_literal_text(tmp_path):
    # title, manifest, header and rows of each table kind, byte for byte
    spec = SpatialSpectrum(np.array([-1.0, 0.0, 1.5]), np.array([0.5, 2.0, 1.0]),
                           "cbf", 3000.0)
    assert render_table(spec) == (
        "# spectrum estimator=cbf frequency=3000\n"
        "# manifest config=a6e4d29c81ff seed=na\n"
        "angle_deg,power_db\n-1,-3.01029996\n0,3.01029996\n1.5,0\n")
    rec = BearingTimeRecord(np.array([0.5, 0.75]), np.array([-1.0, 0.0, 2.5]),
                            np.array([[-3.0, 0.0, -1.25], [-0.1, -200.0 / 3, 0.0]]), "cbf")
    assert render_table(rec) == (
        "# btr estimator=cbf frames=2\n"
        "# manifest config=6757e5871bb7 seed=na\n"
        "time_s,-1,0,2.5\n0.5,-3,0,-1.25\n0.75,-0.1,-66.6666667,0\n")
    cfg = ScenarioConfig(name="tiny", sweep_values=(9.0,), trials=2,
                         methods=("cbf", "gnr2"), seed=3)
    result = BenchResult(cfg, (BenchRow("snr", 9.0, "cbf", 2, 1, 50.0, 0.1234567891),
                               BenchRow("snr", 9.0, "gnr2", 2, 2, 0.0, float("nan"))),
                         (("cbf", 0.25), ("gnr2", 2.0)))
    assert render_table(result) == (
        "# bench preset=tiny sweep=snr\n"
        "# manifest config=86c099d4d9cf seed=3\n"
        "sweep_param,value,method,trials,shortfalls,success_pct,rmse_deg\n"
        "snr,9,cbf,2,1,50,0.123456789\nsnr,9,gnr2,2,2,0,nan\n")
    timing = tmp_path / "timing.csv"
    save_timing_table(result, timing)
    assert timing.read_text() == (
        "# bench-timing preset=tiny\n"
        "# manifest config=86c099d4d9cf seed=3\n"
        "method,total_s,ratio\ncbf,0.25,0.125\ngnr2,2,1\n")


def test_save_table_rejects_unknown_type(tmp_path):
    with pytest.raises(ConfigError):
        save_table({"not": "a result"}, tmp_path / "x.csv")


def test_load_config_and_scenario(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"trials": 5, "sweep_values": [0, 3], "methods": ["cbf"]}')
    cfg = scenario_from_dict(load_config(path))
    assert cfg.trials == 5 and cfg.sweep_values == (0, 3)

    path.write_text('{"trails": 5}')      # typo key must be rejected
    with pytest.raises(ConfigError):
        scenario_from_dict(load_config(path))

    path.write_text("{broken")
    with pytest.raises(ParseError):
        load_config(path)
    path.write_text('[1, 2]')
    with pytest.raises(ParseError):
        load_config(path)


def test_write_gnuplot_kinds(tmp_path):
    for kind in ("spectrum", "btr", "bench"):
        script = tmp_path / f"{kind}.gp"
        write_gnuplot("data.csv", script, kind)
        assert "data.csv" in script.read_text()
    with pytest.raises(ConfigError):
        write_gnuplot("data.csv", tmp_path / "x.gp", "histogram")


def _unparsable_csv(tmp):
    path = tmp / "rec.csv"
    path.write_text("# channels=2 samples=2 rate=100.0 kind=real32\n1,x\n1,2\n")
    return load_record(path, "csv")


def _repeated_keys_config(tmp):
    path = tmp / "cfg.json"
    path.write_text('{"trials": 1, "seed": 2, "trials": 3, "seed": 2, "r": 1}')
    return load_config(path)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: save_record(SnapshotMatrix(np.ones((2, 2)), 1.0), tmp / "r", "hdf5"),
     ConfigError, "unknown record format 'hdf5'"),
    (lambda tmp: load_record(tmp / "r", "hdf5"), ConfigError, "unknown record format 'hdf5'"),
    (_unparsable_csv, ParseError,
     "unparsable value in row 0 of {tmp}/rec.csv (byte offset 46)"),
    (lambda tmp: load_config(tmp / "none.json"), DataError,
     "cannot read config {tmp}/none.json: [Errno 2] No such file or directory: "
     "'{tmp}/none.json'"),
    (_repeated_keys_config, ParseError, "config {tmp}/cfg.json repeats keys ['seed', 'trials']"),
], ids=["save-format", "load-format", "csv-value", "config-missing", "config-repeated-keys"])
def test_each_rejection_states_its_rule(call, error, message, tmp_path):
    with pytest.raises(error) as err:
        call(tmp_path)
    assert str(err.value) == message.format(tmp=tmp_path)
    assert not (tmp_path / "r").exists()
