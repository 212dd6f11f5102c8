import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from dasdoa.bench import ScenarioConfig, run_monte_carlo
from dasdoa.broadband import BearingTimeRecord
from dasdoa.errors import ConfigError, ParseError
from dasdoa.estimators import SpatialSpectrum
from dasdoa.recordio import HEADER_SIZE, load_config, load_record, \
    render_table, save_record, save_table, save_timing_table, \
    scenario_from_dict, write_gnuplot
from dasdoa.simulate import SnapshotMatrix


def _complex_block(m=4, n=16, seed=0):
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return SnapshotMatrix(data.astype(np.complex64), "narrowband-snapshot",
                          sample_rate=6000.0)


def _real_block(m=3, n=32, seed=1):
    data = np.random.default_rng(seed).standard_normal((m, n))
    return SnapshotMatrix(data.astype(np.float32), "time", sample_rate=5120.0)


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


def test_csv_round_trip(tmp_path):
    for block in (_complex_block(), _real_block()):
        path = tmp_path / "rec.csv"
        save_record(block, path, "csv")
        loaded = load_record(path, "csv")
        assert_allclose(loaded.data, block.data, rtol=1e-6)
        assert loaded.sample_rate == block.sample_rate


@st.composite
def _records(draw):
    """A real32 time record or a complex64 snapshot record of finite values."""
    shape = (draw(st.integers(2, 4)), draw(st.integers(1, 5)))
    if draw(st.booleans()):
        values = st.complex_numbers(width=64, allow_nan=False, allow_infinity=False)
        data, domain = arrays(np.complex64, shape, elements=values), "narrowband-snapshot"
    else:
        values = st.floats(width=32, allow_nan=False, allow_infinity=False)
        data, domain = arrays(np.float32, shape, elements=values), "time"
    rate = draw(st.floats(1.0, 1e6))
    return SnapshotMatrix(draw(data), domain, sample_rate=rate)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@given(block=_records())
def test_record_round_trip_property(fmt, block, tmp_path_factory):
    path = tmp_path_factory.mktemp("round") / "rec"
    save_record(block, path, fmt)
    loaded = load_record(path, fmt)
    assert (loaded.domain, loaded.sample_rate) == (block.domain, block.sample_rate)
    assert loaded.data.dtype == block.data.dtype
    assert np.array_equal(loaded.data, block.data)


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


def test_many_channel_header_accepted(tmp_path):
    block = SnapshotMatrix(np.zeros((620, 2), dtype=np.float32), "time",
                           sample_rate=1000.0)
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
    text1 = render_table(run_monte_carlo(cfg), seed=cfg.seed)
    text2 = render_table(run_monte_carlo(cfg), seed=cfg.seed)
    assert text1 == text2
    assert "success_pct" in text1
    timing = tmp_path / "timing.csv"
    save_timing_table(run_monte_carlo(cfg), timing)
    assert timing.read_text().splitlines()[2] == "method,total_s,ratio"


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
