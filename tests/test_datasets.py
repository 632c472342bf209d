import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cryodrum import calibration, datasets, tomography
from cryodrum.cli import main
from cryodrum.dynamics import Spectrum
from cryodrum.errors import InvalidArgument, SchemaMismatch

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" \
    / "reference.cfg"


def test_spectrum_roundtrip_lossless(tmp_path):
    rng = np.random.default_rng(0)
    freq = np.sort(rng.uniform(-1e6, 1e6, 64))
    spec = Spectrum(freq=freq, values=rng.standard_normal(64) * 1e-7,
                    rbw=1.0, floor=0.5, label="blue")
    path = tmp_path / "spec.csv"
    datasets.write_spectrum(path, spec)
    again = datasets.load_dataset(path, "spectrum")
    assert np.array_equal(again.freq, spec.freq)
    assert np.array_equal(again.values, spec.values)
    assert again.rbw == spec.rbw
    assert again.floor == spec.floor
    assert again.label == "blue"


def test_spectrum_missing_rbw(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# label=x\nfreq_hz,value\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        datasets.read_spectrum(path)


def test_spectrum_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# rbw_hz=0.0\nfrequency,psd\n0.0,1.0\n")
    with pytest.raises(SchemaMismatch):
        datasets.read_spectrum(path)


def test_quadratures_roundtrip(tmp_path):
    batch = tomography.sample_quadratures(
        tomography.GaussianMechState.thermal(0.4), 1.13, 0.8, 200, seed=5)
    path = tmp_path / "batch.csv"
    datasets.write_quadratures(path, batch)
    again = datasets.load_dataset(path, "quadratures")
    assert np.array_equal(again.samples, batch.samples)
    assert again.g_opt == batch.g_opt
    assert again.n_add_opt == batch.n_add_opt
    assert again.seed == 5


@pytest.mark.parametrize("seed,stored", [
    (np.int64(3), 3), ([np.int64(1), np.uint32(2)], [1, 2]),
    (np.array([4, 5]), [4, 5])], ids=["scalar", "list", "array"])
def test_quadratures_numpy_int_seed(tmp_path, seed, stored):
    batch = tomography.sample_quadratures(
        tomography.GaussianMechState.thermal(0.4), 1.13, 0.8, 20, seed=seed)
    path = tmp_path / "batch.csv"
    datasets.write_quadratures(path, batch)
    again = datasets.read_quadratures(path)
    assert again.seed == stored
    assert np.array_equal(again.samples, batch.samples)


def test_quadratures_unserialisable_seed_writes_nothing(tmp_path):
    batch = tomography.sample_quadratures(
        tomography.GaussianMechState.thermal(0.4), 1.13, 0.8, 20,
        seed=np.random.default_rng(3))
    path = tmp_path / "batch.csv"
    with pytest.raises(TypeError):
        datasets.write_quadratures(path, batch)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label", [" pad ", "pad ", "\tpad", "blue\r",
                                   "a\nb", "a\rb"],
                         ids=["both-ends", "trailing", "leading-tab", "cr",
                              "lf", "inner-cr"])
def test_spectrum_label_must_round_trip(tmp_path, label):
    spec = Spectrum(freq=[0.0, 1.0], values=[1.0, 2.0], rbw=1.0,
                    label=label)
    path = tmp_path / "spec.csv"
    with pytest.raises(InvalidArgument):
        datasets.write_spectrum(path, spec)
    assert not path.exists()


def test_spectrum_numpy_scalar_metadata(tmp_path):
    # numpy scalars print as np.float64(...); the file must hold the number
    spec = Spectrum(freq=[0.0, 1.0], values=[1.0, 2.0],
                    rbw=np.float64(1.0 / 3.0), floor=np.float32(0.5))
    path = tmp_path / "spec.csv"
    datasets.write_spectrum(path, spec)
    again = datasets.read_spectrum(path)
    assert (again.rbw, again.floor) == (1.0 / 3.0, 0.5)


@pytest.mark.parametrize("meta", ["# rbw_hz=abc\n",
                                  "# rbw_hz=1\n# floor=zz\n",
                                  "# rbw_hz=np.float64(0.5)\n"],
                         ids=["rbw-text", "floor-text", "rbw-numpy-repr"])
def test_spectrum_metadata_must_be_numbers(tmp_path, meta):
    path = tmp_path / "bad.csv"
    path.write_text(meta + "freq_hz,value\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(SchemaMismatch, match="bad.csv"):
        datasets.read_spectrum(path)


@pytest.mark.parametrize("sidecar", [
    '{"g_opt_uv2_per_quanta": 1.13, "n_add',
    '[1.13, 0.8]',
    '{"g_opt_uv2_per_quanta": "abc", "n_add_opt": 0.8}',
    '{"g_opt_uv2_per_quanta": null, "n_add_opt": 0.8}',
    '{"g_opt_uv2_per_quanta": 1.13}',
], ids=["truncated", "list", "text-g-opt", "null-g-opt", "missing-n-add"])
def test_quadratures_sidecar_errors(tmp_path, sidecar):
    path = tmp_path / "batch.csv"
    path.write_text("I_uV,Q_uV\n0.1,0.2\n")
    (tmp_path / "batch.csv.json").write_text(sidecar)
    with pytest.raises(SchemaMismatch, match="batch.csv.json"):
        datasets.read_quadratures(path)


def test_quadratures_missing_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("I_uV,Q_uV\n0.1,0.2\n")
    with pytest.raises(SchemaMismatch):
        datasets.read_quadratures(path)


def test_sweep_roundtrip(tmp_path, params):
    rows = calibration.synthesize_g0_sweep(params, 13.4,
                                           np.linspace(0.05, 0.4, 5))
    path = tmp_path / "sweep.csv"
    datasets.write_sweep(path, rows)
    again = datasets.load_dataset(path, "sweep")
    assert len(again) == 5
    for a, b in zip(again, rows):
        assert a.calibrated_ratio == pytest.approx(b.calibrated_ratio,
                                                   rel=1e-15)


def test_peaks_table(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("N_p,N_b,N_c,r_gamma,N_floor\n"
                    "0.021,0.273,0.0105,1.0,0.25\n")
    rows = datasets.load_dataset(path, "peaks")
    assert rows[0].N_p == 0.021
    assert rows[0].N_floor == 0.25
    path2 = tmp_path / "peaks2.csv"
    path2.write_text("N_p,N_b,N_c,r_gamma\n0.021,0.273,0.0105,1.0\n")
    rows2 = datasets.load_dataset(path2, "peaks")
    assert rows2[0].N_floor is None


def test_unknown_kind(tmp_path):
    with pytest.raises(SchemaMismatch):
        datasets.load_dataset(tmp_path / "x.csv", "telemetry")


# ---- byte format: every bulk writer against a csv.writer + repr reference

def csv_reference(header, rows, meta=()):
    """Bytes of a table written row by row through csv.writer."""
    out = io.StringIO(newline="")
    for line in meta:
        out.write(f"# {line}\n")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return out.getvalue().encode()


def floats(*values):
    return [repr(float(v)) for v in values]


FINITE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e-5]
#: spectra hold finite values only; batches and trajectories take any float
EDGE_FLOATS = FINITE_EDGES + [math.inf, -math.inf, math.nan, -math.nan]
#: a strictly increasing grid for the spectrum round trip; a Spectrum grid
#: is finite, so its end points are the largest finite doubles
FREQ_EDGES = [-1.7976931348623157e308, -1e308, -5e-324, -0.0,
              5e-324, 2.2250738585072014e-308, 0.1, 1e16, 1e308,
              1.7976931348623157e308]


def test_spectrum_bytes(tmp_path):
    freq = np.arange(len(FINITE_EDGES)) * 0.1 - 0.3
    spec = Spectrum(freq=freq, values=FINITE_EDGES, rbw=1.0 / 3.0,
                    floor=0.5 + 1e-9, label="blue")
    path = tmp_path / "spec.csv"
    datasets.write_spectrum(path, spec)
    assert path.read_bytes() == csv_reference(
        ["freq_hz", "value"],
        [floats(f, v) for f, v in zip(spec.freq, spec.values)],
        meta=["label=blue", f"rbw_hz={1.0 / 3.0!r}",
              f"floor={0.5 + 1e-9!r}"])


def test_quadratures_bytes(tmp_path):
    samples = np.array(EDGE_FLOATS).reshape(-1, 2)
    batch = tomography.QuadratureBatch(samples=samples, g_opt=1.13,
                                       n_add_opt=0.8, seed=5)
    path = tmp_path / "batch.csv"
    datasets.write_quadratures(path, batch)
    assert path.read_bytes() == csv_reference(
        ["I_uV", "Q_uV"], [floats(i, q) for i, q in samples])


def test_trajectory_bytes(tmp_path):
    columns = np.array(EDGE_FLOATS).reshape(4, -1)
    path = tmp_path / "traj.csv"
    datasets.write_trajectory(path, *columns)
    assert path.read_bytes() == csv_reference(
        ["t_s", "Xsq2", "Xasq2", "n"], [floats(*row) for row in columns.T])


def test_sweep_bytes(tmp_path, params):
    rows = calibration.synthesize_g0_sweep(params, 13.4,
                                           np.linspace(0.05, 0.4, 5))
    path = tmp_path / "sweep.csv"
    datasets.write_sweep(path, rows)
    assert path.read_bytes() == csv_reference(
        ["T_K", "P_SB_meas", "P_cal_meas", "P_MW_src", "P_cal_src"],
        [floats(p.temperature, p.p_sb_meas, p.p_cal_meas, p.p_mw_src,
                p.p_cal_src) for p in rows])


@pytest.mark.parametrize("argv", [
    ["device"],
    ["device", "--sweep-axis", "radius", "--factors", "0.5,1,2"],
    ["psd", "--simplified", "--points", "101"],
    ["cool", "--points", "11"],
    ["thermalize", "--seed", "11", "--samples", "300", "--points", "9",
     "--tmax", "4e-3", "--g-opt", "1.13", "--n-add", "0.8"],
], ids=["device", "device-sweep", "psd", "cool", "thermalize"])
def test_cli_table_bytes(tmp_path, argv):
    # each numeric cell must be the shortest repr of its value, and the
    # table must read back as csv.writer would have written it
    out = tmp_path / "table.csv"
    assert main([argv[0], "--config", str(REFERENCE_CONFIG), "--out",
                 str(out), *argv[1:]]) == 0
    with out.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))

    def canonical(cell):
        try:
            return repr(float(cell))
        except ValueError:
            return cell

    assert rows
    assert out.read_bytes() == csv_reference(
        header, [[canonical(c) for c in row] for row in rows])


# ---- write_columns: the numpy float text against repr

def repr_column(values):
    """Bytes of a one-column table, each cell repr(float(value))."""
    return b"x\r\n" + "".join(
        f"{value!r}\r\n" for value in np.asarray(values).tolist()).encode()


def edge_doubles():
    """Every class of double whose shortest text has an edge: subnormals,
    powers of two and ten with their neighbours, integers around 2^53,
    signed zeros, infinities and nan."""
    tiny = np.arange(1, 5000, dtype=np.uint64).view(float)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{i}") for i in range(-323, 309)])
    near53 = np.arange(2.0 ** 53 - 1000, 2.0 ** 53 + 1000)
    edges = np.concatenate([
        tiny, twos, np.nextafter(twos, 0.0), tens, np.nextafter(tens, 0.0),
        np.nextafter(tens, np.inf), near53, [0.0, np.inf, np.nan,
                                             1e16, 1e-4, 1e-5, 0.1]])
    return np.concatenate([edges, -edges])


def test_write_columns_matches_repr(tmp_path):
    rng = np.random.default_rng(13)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64,
                     endpoint=False).view(float),
        rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(float),
        edge_doubles()])
    path = tmp_path / "x.csv"
    datasets.write_columns(path, ["x"], [values])
    assert path.read_bytes() == repr_column(values)


@settings(max_examples=200, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=50))
def test_write_columns_repr_property(tmp_path, values):
    path = tmp_path / "x.csv"
    datasets.write_columns(path, ["x"], [values])
    assert path.read_bytes() == repr_column(values)


def test_write_columns_across_blocks(tmp_path):
    # more rows than one block holds, with a text column between floats
    rows = datasets._BLOCK // 2 + 3
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2, rows)) * np.logspace(-8, 20, rows)
    labels = np.array(["pump", "red", "blue"] * rows, dtype="S")[:rows]
    path = tmp_path / "t.csv"
    datasets.write_columns(path, ["a", "label", "b"], [a, labels, b],
                           meta=["k=v"])
    assert path.read_bytes() == csv_reference(
        ["a", "label", "b"],
        [floats(x) + [label.decode()] + floats(y)
         for x, label, y in zip(a, labels, b)], meta=["k=v"])


# ---- lossless round trips over arbitrary float64

def assert_same_floats(a, b):
    """Equal bit for bit, except that every nan equals every nan."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(np.asarray(a)[~nan].view(np.int64),
                          np.asarray(b)[~nan].view(np.int64))


any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
roundtrip = settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])


@roundtrip
@given(points=st.lists(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=2, max_size=40, unique_by=lambda point: point[0]))
@example(points=list(zip(FREQ_EDGES, FINITE_EDGES)))
def test_spectrum_roundtrip_property(tmp_path, points):
    freq, values = zip(*sorted(points))
    spec = Spectrum(freq=freq, values=values, rbw=1.0 / 3.0, floor=-0.0,
                    label="red")
    path = tmp_path / "spec.csv"
    datasets.write_spectrum(path, spec)
    again = datasets.read_spectrum(path)
    assert_same_floats(again.freq, spec.freq)
    assert_same_floats(again.values, spec.values)
    assert (again.rbw, again.floor, again.label) == (1.0 / 3.0, 0.0, "red")


@roundtrip
@given(samples=st.lists(st.tuples(any_float, any_float), min_size=1,
                        max_size=40))
@example(samples=list(zip(EDGE_FLOATS[::2], EDGE_FLOATS[1::2])))
def test_quadratures_roundtrip_property(tmp_path, samples):
    batch = tomography.QuadratureBatch(samples=np.array(samples), g_opt=1.13,
                                       n_add_opt=0.8, seed=[1, 2])
    path = tmp_path / "batch.csv"
    datasets.write_quadratures(path, batch)
    again = datasets.read_quadratures(path)
    assert again.samples.shape == batch.samples.shape
    assert_same_floats(again.samples, batch.samples)


# ---- readers: line endings, empty lines, quoted cells, schema errors

@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_readers_accept_line_endings_and_quotes(tmp_path, newline):
    spec_path = tmp_path / "spec.csv"
    spec_path.write_bytes(newline.join([
        "# label=x", "", "# rbw_hz=0.5", '"freq_hz","value"', "1.0,-0.0",
        "", '"2.5","1e-310"', "3.0, 1e300 ", ""]).encode())
    spec = datasets.read_spectrum(spec_path)
    assert spec.freq.tolist() == [1.0, 2.5, 3.0]
    assert spec.values.tolist() == [-0.0, 1e-310, 1e300]
    assert math.copysign(1.0, spec.values[0]) == -1.0
    assert (spec.rbw, spec.label) == (0.5, "x")

    batch_path = tmp_path / "batch.csv"
    batch_path.write_bytes(newline.join([
        "I_uV,Q_uV", '"0.1","-0.2"', "", "3e5,nan", ""]).encode())
    (tmp_path / "batch.csv.json").write_text(
        '{"g_opt_uv2_per_quanta": 1.13, "n_add_opt": 0.8}')
    batch = datasets.read_quadratures(batch_path)
    assert batch.samples[0].tolist() == [0.1, -0.2]
    assert batch.samples[1, 0] == 3e5 and math.isnan(batch.samples[1, 1])


@pytest.mark.parametrize("text", [
    "# rbw_hz=1\nfreq_hz,value\n",
    "# rbw_hz=1\nfreq_hz,value\n\n\r\n",
    "# rbw_hz=1\n\n",
], ids=["header-only", "blank-body", "no-header"])
def test_spectrum_schema_errors(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaMismatch):
        datasets.read_spectrum(path)


@pytest.mark.parametrize("text", [
    "I_uV,Q_uV\n", "I_uV,Q_uV\n\n\n", "", "I,Q\n0.1,0.2\n",
], ids=["header-only", "blank-body", "empty", "wrong-header"])
def test_quadratures_schema_errors(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    (tmp_path / "bad.csv.json").write_text(
        '{"g_opt_uv2_per_quanta": 1.13, "n_add_opt": 0.8}')
    with pytest.raises(SchemaMismatch):
        datasets.read_quadratures(path)


@pytest.mark.parametrize("kind,header", [
    ("sweep", "T_K,P_SB_meas,P_cal_meas,P_MW_src,P_cal_src"),
    ("peaks", "N_p,N_b,N_c,r_gamma"),
    ("peaks", "N_p,N_b,N_c,r_gamma,N_floor"),
    ("line", "n_m,var_uV2"),
], ids=["sweep", "peaks", "peaks-floor", "line"])
@pytest.mark.parametrize("body", ["{row}\n1,x{tail}\n", "{row}\n1\n",
                                  "{row}\n{row},1\n", "", "\n\n",
                                  "{row}\n{row}1,\n"],
                         ids=["text-cell", "short-row", "long-row",
                              "header-only", "blank-body", "empty-cell"])
def test_table_schema_errors(tmp_path, kind, header, body):
    width = header.count(",") + 1
    row = ",".join(["0.5"] * width)
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + body.format(row=row,
                                                tail=",1" * (width - 2)))
    with pytest.raises(SchemaMismatch):
        datasets.load_dataset(path, kind)
