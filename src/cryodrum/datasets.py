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
`float()` gives for it.  Every reader raises SchemaMismatch for a wrong
header, a non-numeric cell, a short or long row, or no rows.
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
LINE_HEADER = ["n_m", "var_uV2"]
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


def _read_rows(fh, path, columns) -> np.ndarray:
    """The numeric rows left in fh as one (rows, columns) array;
    SchemaMismatch for no rows, a non-numeric cell or a row of another width.
    """
    for first in fh:
        if first.strip():
            break
    else:
        raise SchemaMismatch(f"{path}: no data rows")
    try:
        data = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                          quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
    if data.shape[1] != columns:
        raise SchemaMismatch(f"{path}: expected {columns} columns, "
                             f"got {data.shape[1]}")
    return data


def _require_header(row, expected, path, optional_tail=()):
    if row is None or row[:len(expected)] != expected:
        raise SchemaMismatch(
            f"{path}: expected header {expected} (got {row})")
    extras = row[len(expected):]
    for col in extras:
        if col not in optional_tail:
            raise SchemaMismatch(f"{path}: unexpected column {col!r}")
    return extras


def _read_table(path, header, optional_tail=()) -> np.ndarray:
    """The rows of a CSV whose first line is `header`, followed by any of
    `optional_tail`, as by _read_rows."""
    with Path(path).open() as fh:
        extras = _require_header(next(csv.reader([fh.readline()])), header,
                                 path, optional_tail)
        return _read_rows(fh, path, len(header) + len(extras))


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
        data = _read_rows(fh, path, len(SPECTRUM_HEADER))
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
    samples = _read_table(path, QUADRATURE_HEADER)
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
    return [G0SweepPoint(*row)
            for row in _read_table(path, SWEEP_HEADER).tolist()]


def read_peaks(path) -> list:
    """Scaled-peak rows for the asymmetry solver (optional N_floor column)."""
    rows = _read_table(path, PEAKS_HEADER, optional_tail=("N_floor",))
    return [ScaledPeaks(N_p=row[0], N_b=row[1], N_c=row[2], r_gamma=row[3],
                        N_floor=row[4] if len(row) > 4 else None)
            for row in rows.tolist()]


def read_line(path) -> np.ndarray:
    """Amplifier calibration points as (n_m, var_uV2) rows of an array."""
    return _read_table(path, LINE_HEADER)


def write_trajectory(path, times, v_sq, v_asq, n):
    _write_table(path, TRAJECTORY_HEADER, zip(
        *[_float_cells(column) for column in (times, v_sq, v_asq, n)]))


def load_dataset(path, kind: str):
    """Typed dataset loader: kind is one of the formats named below."""
    loaders = {"spectrum": read_spectrum, "quadratures": read_quadratures,
               "sweep": read_sweep, "peaks": read_peaks, "line": read_line}
    if kind not in loaders:
        raise SchemaMismatch(f"unknown dataset kind {kind!r}; "
                             f"expected one of {sorted(loaders)}")
    return loaders[kind](path)
