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
from cryodrum.errors import SchemaMismatch

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
