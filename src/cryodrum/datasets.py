"""CSV/JSON dataset formats shared by the CLI and analysis pipelines.

All datasets are plain CSV with a documented header plus, where needed,
metadata: spectra carry `# key=value` comment lines (label, rbw_hz, floor)
before the header, quadrature batches a JSON sidecar `<name>.json` (seed,
g_opt, n_add_opt, state metadata).

Byte format of every CSV this package writes: the `# key=value` metadata
lines end in LF, the header and data rows in CRLF (the row ending of
`csv.writer`), cells are separated by a bare comma and never quoted, and
floats are written with Python's shortest-roundtrip `repr`, so a
write/read cycle is lossless.  The readers accept LF or CRLF rows, empty
lines and double-quoted cells; a numeric cell reads as the double that
`float()` gives for it.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .calibration import G0SweepPoint, ScaledPeaks
from .dynamics import Spectrum
from .errors import SchemaMismatch
from .tomography import QuadratureBatch

SPECTRUM_HEADER = ["freq_hz", "value"]
QUADRATURE_HEADER = ["I_uV", "Q_uV"]
SWEEP_HEADER = ["T_K", "P_SB_meas", "P_cal_meas", "P_MW_src", "P_cal_src"]
PEAKS_HEADER = ["N_p", "N_b", "N_c", "r_gamma"]
TRAJECTORY_HEADER = ["t_s", "Xsq2", "Xasq2", "n"]


#: rows formatted per write, which bounds the text held in memory
_BLOCK_ROWS = 8192


def _float_cells(values):
    """Shortest-roundtrip text of each value of a 1-d sequence, as
    repr(float(value)); made lazily, one block of rows at a time."""
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, _BLOCK_ROWS):
        yield from map(repr, values[start:start + _BLOCK_ROWS].tolist())


def _write_table(path, header, rows, meta=()):
    """Write a CSV table a block of rows per write.

    rows yields one sequence of cell strings per row; meta holds
    `key=value` strings, written first as `# key=value` lines.  The bytes
    equal those of `csv.writer` for cells that need no quoting, which holds
    for numbers and the labels written here.
    """
    lines = map(",".join, rows)
    with Path(path).open("w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in meta)
                 + ",".join(header) + "\r\n")
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            fh.write("\r\n".join(block) + "\r\n")


def _read_rows(fh, path, what) -> np.ndarray:
    """The numeric rows left in fh as one (rows, columns) array."""
    for first in fh:
        if first.strip():
            break
    else:
        raise SchemaMismatch(f"{path}: no {what} rows")
    return np.loadtxt(itertools.chain([first], fh), delimiter=",",
                      quotechar='"', comments=None, ndmin=2)


def _require_header(row, expected, path, optional_tail=()):
    if row is None or row[:len(expected)] != expected:
        raise SchemaMismatch(
            f"{path}: expected header {expected} (got {row})")
    extras = row[len(expected):]
    for col in extras:
        if col not in optional_tail:
            raise SchemaMismatch(f"{path}: unexpected column {col!r}")
    return extras


def write_spectrum(path, spec: Spectrum):
    _write_table(path, SPECTRUM_HEADER,
                 zip(_float_cells(spec.freq), _float_cells(spec.values)),
                 meta=[f"label={spec.label}", f"rbw_hz={spec.rbw!r}",
                       f"floor={spec.floor!r}"])


def read_spectrum(path) -> Spectrum:
    """Spectrum from a spectrum CSV; metadata lines precede the header."""
    path = Path(path)
    meta = {}
    with path.open() as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
                continue
            header = next(csv.reader([line]))
            break
        if header is None:
            raise SchemaMismatch(f"{path}: no spectrum rows")
        _require_header(header, SPECTRUM_HEADER, path)
        data = _read_rows(fh, path, "spectrum")
    if "rbw_hz" not in meta:
        raise SchemaMismatch(f"{path}: missing rbw_hz metadata line")
    return Spectrum(freq=data[:, 0], values=data[:, 1],
                    rbw=float(meta["rbw_hz"]),
                    floor=float(meta.get("floor", 0.0)),
                    label=meta.get("label", ""))


def write_quadratures(path, batch: QuadratureBatch):
    path = Path(path)
    _write_table(path, QUADRATURE_HEADER, zip(
        _float_cells(batch.samples[:, 0]), _float_cells(batch.samples[:, 1])))
    sidecar = {
        "seed": batch.seed,
        "g_opt_uv2_per_quanta": batch.g_opt,
        "n_add_opt": batch.n_add_opt,
        "count": batch.count,
        "state": batch.state_meta,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2) + "\n")


def read_quadratures(path) -> QuadratureBatch:
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if not sidecar_path.exists():
        raise SchemaMismatch(f"{path}: missing JSON sidecar {sidecar_path}")
    sidecar = json.loads(sidecar_path.read_text())
    with path.open() as fh:
        header = next(csv.reader([fh.readline()]), None)
        _require_header(header, QUADRATURE_HEADER, path)
        samples = _read_rows(fh, path, "quadrature")
    try:
        return QuadratureBatch(samples=samples,
                               g_opt=float(sidecar["g_opt_uv2_per_quanta"]),
                               n_add_opt=float(sidecar["n_add_opt"]),
                               seed=sidecar.get("seed"),
                               state_meta=sidecar.get("state", {}))
    except KeyError as exc:
        raise SchemaMismatch(f"{sidecar_path}: missing key {exc}") from exc


def write_sweep(path, points):
    _write_table(path, SWEEP_HEADER, (_float_cells([
        p.temperature, p.p_sb_meas, p.p_cal_meas, p.p_mw_src, p.p_cal_src])
        for p in points))


def read_sweep(path) -> list:
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _require_header(header, SWEEP_HEADER, path)
        points = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise SchemaMismatch(f"{path}:{lineno}: expected 5 columns")
            points.append(G0SweepPoint(*[float(c) for c in row]))
    if not points:
        raise SchemaMismatch(f"{path}: no sweep rows")
    return points


def read_peaks(path) -> list:
    """Scaled-peak rows for the asymmetry solver (optional N_floor column)."""
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        extras = _require_header(header, PEAKS_HEADER, path,
                                 optional_tail=("N_floor",))
        has_floor = "N_floor" in extras
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            expected = len(PEAKS_HEADER) + (1 if has_floor else 0)
            if len(row) != expected:
                raise SchemaMismatch(
                    f"{path}:{lineno}: expected {expected} columns")
            values = [float(c) for c in row]
            rows.append(ScaledPeaks(
                N_p=values[0], N_b=values[1], N_c=values[2],
                r_gamma=values[3],
                N_floor=values[4] if has_floor else None))
    if not rows:
        raise SchemaMismatch(f"{path}: no peak rows")
    return rows


def write_trajectory(path, times, v_sq, v_asq, n):
    _write_table(path, TRAJECTORY_HEADER, zip(
        *[_float_cells(column) for column in (times, v_sq, v_asq, n)]))


def load_dataset(path, kind: str):
    """Typed dataset loader: kind in {spectrum, quadratures, sweep, peaks}."""
    loaders = {"spectrum": read_spectrum, "quadratures": read_quadratures,
               "sweep": read_sweep, "peaks": read_peaks}
    if kind not in loaders:
        raise SchemaMismatch(f"unknown dataset kind {kind!r}; "
                             f"expected one of {sorted(loaders)}")
    return loaders[kind](path)
