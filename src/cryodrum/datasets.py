"""CSV/JSON dataset formats shared by the CLI and analysis pipelines.

Every CSV this package writes is a documented header plus rows, and its
metadata, if any, is a JSON object in the sidecar `<name>.json`: a
spectrum's label, rbw_hz and floor, a quadrature batch's seed, g_opt,
n_add_opt and state metadata.

Byte format of every CSV: the header and data rows end in CRLF (the row
ending of `csv.writer`), cells are separated by a bare comma and never
quoted, and floats are written with Python's shortest-roundtrip `repr`, so
a write/read cycle is lossless.  write_columns computes that text in numpy
(Schubfach's shortest decimal, then repr's notation), byte-equal to
`repr` for every double.  The readers accept LF or CRLF rows, empty
lines and double-quoted cells; a numeric cell reads as the double that
`float()` gives for it.  Every reader raises SchemaMismatch for a wrong
header, a non-numeric cell, a short or long row, no rows, or a sidecar
that is missing, does not parse or holds a value out of its domain (an
rbw_hz that is not finite and >= 0).  Cells read back as written, nan
and inf included; the code that takes a measurement table's rows (sweep,
peaks, line) checks them against their domains.  A reader imports the
module of the type it builds when it is called, so writing a table loads
no physics module.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .errors import SchemaMismatch

SPECTRUM_HEADER = ["freq_hz", "value"]
QUADRATURE_HEADER = ["I_uV", "Q_uV"]
SWEEP_HEADER = ["T_K", "P_SB_meas", "P_cal_meas", "P_MW_src", "P_cal_src"]
PEAKS_HEADER = ["N_p", "N_b", "N_c", "r_gamma"]
LINE_HEADER = ["n_m", "var_uV2"]
TRAJECTORY_HEADER = ["t_s", "Xsq2", "Xasq2", "n"]


#: doubles formatted per kernel call: its temporaries peak near 1.3 MB
_BLOCK = 4096

# Shortest-roundtrip float text without repr (the byte format above).
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
# finds, for each double v = c 2^q, the shortest decimal f 10^k in its
# rounding interval, the nearest one (ties to even f) when several are as
# short, which is the decimal repr writes.  The interval ends and v are
# scaled by 10^-k through one 126-bit constant g, as floor(g cp / 2^127)
# rounded to odd, and compared with f and f + 1 at the length of
# floor(v 10^-k) and at one digit less.  Unlike the JDK's version, which
# keeps at least two digits, the shorter candidate is always tried, as
# repr writes 5e-324 where Java writes 4.9E-324.

_POW10 = np.array([10 ** i for i in range(19)], dtype=np.uint64)
_POW10.flags.writeable = False
_MAG = np.uint64((1 << 63) - 1)
_INF_BITS = np.uint64(0x7FF << 52)
_ONE_BITS = np.uint64(0x3FF << 52)
_LOW32 = np.uint64(0xFFFFFFFF)
#: offsets from 4c to the rows 4c, 4c - 2 and 4c + 2: v and the ends of its
#: rounding interval, v -/+ 2^q / 2, in units of 2^q / 4 (the lower end is
#: 4c - 1 where v is a power of two above the subnormals, whose spacing
#: below is half that above)
_ENDS = np.array([[0], [-2], [2]], dtype=np.int64).astype(np.uint64)
_ENDS.flags.writeable = False
#: decimal point positions that mark inf and nan cells
_INF, _NAN = 1000, 1001
#: slot rows of a cell: sign and "0." with up to three zeros, 18 digit
#: slots (17 digits and a decimal point), then "e-324"
_PREFIX, _DIGITS, _CELL = 6, 18, 29
_SLOT = np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]
_SLOT.flags.writeable = False


def _g(k):
    """Schubfach's g for 10^k: floor(10^-k 2^(125 - floor(log2 10^-k))) + 1,
    a 126-bit integer."""
    if k <= 0:
        p = 10 ** -k
        shift = 126 - p.bit_length()
        return (p << shift if shift >= 0 else p >> -shift) + 1
    p = 10 ** k
    return (1 << (125 + p.bit_length())) // p + 1


def _distinct(keys):
    """(low, offsets, present): keys as offsets from their minimum, and the
    offsets that occur, so that a table is built for those only."""
    low = int(keys.min())
    offsets = keys - low
    seen = np.zeros(int(offsets.max()) + 1, bool)
    seen[offsets] = True
    return low, offsets, np.flatnonzero(seen).tolist()


def _mulhi(a1, a0, c1, c0):
    """floor(a c / 2^64) for a = a1 2^32 + a0 < 2^63, c = c1 2^32 + c0 < 2^59."""
    cross = a1 * c0
    mid = a0 * c0
    mid >>= 32
    mid += a0 * c1
    mid += cross & _LOW32
    cross >>= 32
    cross += a1 * c1
    mid >>= 32
    cross += mid
    return cross


def _shortest(mag):
    """(f, k): f 10^k is the shortest, nearest decimal of each positive
    finite double, given as its bits."""
    exp = np.maximum((mag >> 52).astype(np.int64), 1)
    c = mag - ((exp - 1).astype(np.uint64) << 52)
    q = exp - 1075
    irregular = (c == np.uint64(1 << 52)) & (exp > 1)
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular, and
    # h = q + floor(log2(10^-k)) + 2 in 1..4, by exact fixed-point products
    k = q * 1262611 - irregular * 524031 >> 22
    h = (q + (-k * 1741647 >> 19) + 2).astype(np.uint64)
    low, offsets, present = _distinct(k)
    table = np.zeros((5, max(present) + 1), np.uint64)
    for i in present:
        g = _g(low + i)
        table[:, i] = (g >> 63, g >> 95, g >> 63 & 0xFFFFFFFF,
                       g >> 32 & 0x7FFFFFFF, g & 0xFFFFFFFF)
    g1, g1h, g1l, g0h, g0l = table.take(offsets, axis=1)
    # rows vb, vbl, vbr: the scaled v and interval ends, rounded to odd
    cp = (c << 2) + _ENDS
    cp[1] += irregular
    cp <<= h
    c1 = cp >> 32
    c0 = cp & _LOW32
    # g cp / 2^127 = g1 cp / 2^64 + z / 2^127, z formed as the JDK's rop
    # does; its low 63 bits are the sticky bit
    z = cp
    z *= g1
    z >>= 1
    z += _mulhi(g0h, g0l, c1, c0)
    rop = _mulhi(g1h, g1l, c1, c0)
    rop += z >> 63
    z <<= 1
    rop |= z != 0
    vb, vbl, vbr = rop
    odd = c & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = sp10 + 10 << 2 <= vbr
    t = s + 1
    uin = vbl <= s << 2
    win = t << 2 <= vbr
    twice = s + t << 1
    pick_s = np.where(uin != win, uin,
                      (vb < twice) | (vb == twice) & (s & 1 == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10),
                 np.where(pick_s, s, t))
    return f, k


def _digits(x, out):
    """Write the 18 decimal digits of each x < 10^18 into the rows of out."""
    hi = (x // np.uint64(10 ** 9)).astype(np.uint32)
    halves = np.stack([hi, (x - hi * np.uint64(10 ** 9)).astype(np.uint32)])
    for row in range(8, 0, -1):
        rest = halves // 10
        digit = halves - rest * 10
        out[row] = digit[0]
        out[row + 9] = digit[1]
        halves = rest
    out[0] = halves[0]
    out[9] = halves[1]


def _affixes(point, negative):
    """(prefix, exponent) of a cell with decimal point position `point`:
    repr writes fixed notation for -4 < point <= 16."""
    if point == _NAN:
        return b"nan", b""
    sign = b"-" if negative else b""
    if point == _INF:
        return sign + b"inf", b""
    if -4 < point <= 0:
        return sign + b"0." + b"0" * -point, b""
    if 0 < point <= 16:
        return sign, b""
    return sign, b"e%+03d" % (point - 1)


def _cells(values):
    """The repr text of each double as a (_CELL, n) uint8 array of slot
    rows, padded with NUL."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64)
    negative = (bits >> 63).astype(np.int64)
    mag = bits & _MAG
    finite = mag < _INF_BITS
    blank = (mag == 0) | ~finite
    f, k = _shortest(np.where(blank, _ONE_BITS, mag))
    # decimal point: the value is 0.ddd 10^point (for 0, that of the 1.0
    # put in its place, which gives 0.0)
    nd = np.searchsorted(_POW10, f, side="right")
    point = nd + k
    point[~finite] = np.where(mag[~finite] > _INF_BITS, _NAN, _INF)
    fixed = (point > -4) & (point <= 16)
    # the 17 digits, left aligned, with a 0 inserted where the decimal
    # point goes (after `dot` digits; none for 0.000ddd)
    dot = np.where(fixed, np.where(point > 0, point, 17), 1)
    x = f * _POW10[17 - nd]
    x[blank] = 0
    scale = _POW10[17 - dot]
    x += x // scale * scale * np.uint64(9)
    out = np.empty((_CELL, bits.size), np.uint8)
    digits = out[_PREFIX:_PREFIX + _DIGITS]
    _digits(x, digits)
    # up to the last nonzero digit, and at least "ddd.0" in fixed notation
    length = np.maximum((digits != 0) * _SLOT, np.where(
        fixed & (point > 0), point + 2, 0).astype(np.uint8)).max(axis=0)
    digits += ord("0")
    digits[dot, np.arange(bits.size)] = ord(".")
    digits *= _SLOT <= length
    low, offsets, present = _distinct(point * 2 + negative)
    table = np.zeros((_CELL - _DIGITS, max(present) + 1), np.uint8)
    for i in present:
        prefix, exponent = _affixes(*divmod(low + i, 2))
        table[:len(prefix), i] = list(prefix)
        table[_PREFIX:_PREFIX + len(exponent), i] = list(exponent)
    affixes = table.take(offsets, axis=1)
    out[:_PREFIX] = affixes[:_PREFIX]
    out[_PREFIX + _DIGITS:] = affixes[_PREFIX:]
    return out


def write_columns(path, header, columns):
    """Write a CSV table of equal-length columns.

    A column of `S` dtype is written as its bytes, any other as float64
    text, byte-equal to repr.  The bytes equal those of `csv.writer` for
    cells that need no quoting, which holds for numbers and the labels
    written here.  Each block of rows is formatted in numpy and written in
    one call.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [c if c.dtype.kind == "S" else c.astype(float, copy=False)
               for c in columns]
    numeric = [c for c in columns if c.dtype.kind == "f"]
    rows = len(columns[0])
    step = max(1, _BLOCK // len(numeric))
    # the bytes after each cell, as a column
    ends = [np.frombuffer(end, np.uint8)[:, None]
            for end in [b","] * (len(columns) - 1) + [b"\r\n"]]
    with Path(path).open("w", newline="") as fh:
        # the text layer writes the header in the readers' encoding
        fh.write(",".join(header) + "\r\n")
        fh.flush()
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            n = stop - start
            cells = iter(_cells(np.concatenate(
                [c[start:stop] for c in numeric])).reshape(_CELL, -1, n)
                .transpose(1, 0, 2))
            parts = []
            for column, end in zip(columns, ends):
                if column.dtype.kind == "S":
                    parts.append(column[start:stop].view(np.uint8)
                                 .reshape(n, -1).T)
                else:
                    parts.append(next(cells))
                parts.append(np.broadcast_to(end, (len(end), n)))
            fh.buffer.write(np.concatenate(parts).T.tobytes()
                            .translate(None, b"\0"))


def _read_table(path, header, optional_tail=()) -> np.ndarray:
    """The rows of a CSV whose first non-blank line is `header`, followed by
    any of `optional_tail`, as one (rows, columns) array; SchemaMismatch for
    another header, no rows, a non-numeric cell, a row of another width or
    bytes that do not decode."""
    try:
        with Path(path).open() as fh:
            lines = (line for line in fh if line.strip())
            row = next(csv.reader([next(lines, "")]))
            if row[:len(header)] != header:
                raise SchemaMismatch(
                    f"{path}: expected header {header} (got {row})")
            for col in row[len(header):]:
                if col not in optional_tail:
                    raise SchemaMismatch(f"{path}: unexpected column {col!r}")
            first = next(lines, None)
            if first is None:
                raise SchemaMismatch(f"{path}: no data rows")
            try:
                data = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                                  quotechar='"', comments=None, ndmin=2)
            except ValueError as exc:
                raise SchemaMismatch(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
    if data.shape[1] != len(row):
        raise SchemaMismatch(f"{path}: expected {len(row)} columns, "
                             f"got {data.shape[1]}")
    return data


def _numpy_ints(value):
    """JSON form of numpy integers, alone or in an array (json default)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    "serializable")


def _write_with_sidecar(path, header, columns, meta):
    """The table at path and meta as JSON in its sidecar; meta is
    serialised first, so a value JSON cannot hold raises TypeError before
    any file is made."""
    text = json.dumps(meta, indent=2, default=_numpy_ints) + "\n"
    write_columns(path, header, columns)
    Path(f"{path}.json").write_text(text)


def _read_sidecar(path, numbers):
    """(sidecar, values): the JSON object in the sidecar of the table at
    path, and the float of each key of `numbers`, which maps it to its
    default (None where the key is required); SchemaMismatch for a missing
    sidecar, one that does not parse or is not an object, a missing key or
    a value that is not a number."""
    sidecar_path = Path(f"{path}.json")
    if not sidecar_path.exists():
        raise SchemaMismatch(f"{path}: missing JSON sidecar {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except ValueError as exc:
        raise SchemaMismatch(f"{sidecar_path}: {exc}") from None
    if not isinstance(sidecar, dict):
        raise SchemaMismatch(f"{sidecar_path}: expected a JSON object, got "
                             f"{type(sidecar).__name__}")
    values = []
    for key, default in numbers.items():
        if key not in sidecar and default is None:
            raise SchemaMismatch(f"{sidecar_path}: missing key {key!r}")
        try:
            values.append(float(sidecar.get(key, default)))
        except (TypeError, ValueError):
            raise SchemaMismatch(f"{sidecar_path}: {key} must be a number, "
                                 f"got {sidecar[key]!r}") from None
    return sidecar, values


def write_spectrum(path, spec):
    """A dynamics.Spectrum as a spectrum CSV and its JSON sidecar (label,
    rbw_hz, floor)."""
    _write_with_sidecar(path, SPECTRUM_HEADER, [spec.freq, spec.values], {
        "label": spec.label,
        "rbw_hz": float(spec.rbw),
        "floor": float(spec.floor),
    })


def read_spectrum(path):
    """dynamics.Spectrum from a spectrum CSV and its JSON sidecar;
    SchemaMismatch, as by _read_sidecar, for a missing or non-numeric
    rbw_hz or a non-numeric floor (0.0 when absent), and for an rbw_hz that
    is not finite and >= 0, a floor that is not finite or a label that is
    not a string."""
    from .dynamics import Spectrum

    sidecar, (rbw, floor) = _read_sidecar(path, {"rbw_hz": None,
                                                 "floor": 0.0})
    if not 0.0 <= rbw < np.inf:
        raise SchemaMismatch(f"{path}: rbw_hz={rbw!r} must be finite and "
                             ">= 0")
    if not -np.inf < floor < np.inf:
        raise SchemaMismatch(f"{path}: floor={floor!r} must be finite")
    label = sidecar.get("label", "")
    if not isinstance(label, str):
        raise SchemaMismatch(f"{path}: label must be a string, got "
                             f"{label!r}")
    data = _read_table(path, SPECTRUM_HEADER)
    return Spectrum(freq=data[:, 0], values=data[:, 1], rbw=rbw,
                    floor=floor, label=label)


def write_quadratures(path, batch):
    """A tomography.QuadratureBatch as its CSV and JSON sidecar; a seed
    JSON cannot hold raises TypeError before any file is made."""
    _write_with_sidecar(path, QUADRATURE_HEADER, batch.samples.T, {
        "seed": batch.seed,
        "g_opt_uv2_per_quanta": batch.g_opt,
        "n_add_opt": batch.n_add_opt,
        "count": batch.count,
        "state": batch.state_meta,
    })


def read_quadratures(path):
    """tomography.QuadratureBatch from a batch CSV and its JSON sidecar;
    SchemaMismatch, as by _read_sidecar, for a sidecar without numeric
    g_opt_uv2_per_quanta and n_add_opt."""
    from .tomography import QuadratureBatch

    sidecar, (g_opt, n_add_opt) = _read_sidecar(
        path, {"g_opt_uv2_per_quanta": None, "n_add_opt": None})
    samples = _read_table(path, QUADRATURE_HEADER)
    return QuadratureBatch(samples=samples, g_opt=g_opt, n_add_opt=n_add_opt,
                           seed=sidecar.get("seed"),
                           state_meta=sidecar.get("state", {}))


def write_sweep(path, points):
    write_columns(path, SWEEP_HEADER, np.array(
        [(p.temperature, p.p_sb_meas, p.p_cal_meas, p.p_mw_src, p.p_cal_src)
         for p in points], dtype=float).reshape(-1, len(SWEEP_HEADER)).T)


def read_sweep(path) -> list:
    """calibration.G0SweepPoint rows of a coupling-rate sweep CSV."""
    from .calibration import G0SweepPoint

    return [G0SweepPoint(*row)
            for row in _read_table(path, SWEEP_HEADER).tolist()]


def read_peaks(path) -> list:
    """calibration.ScaledPeaks rows for the asymmetry solver (optional
    N_floor column)."""
    from .calibration import ScaledPeaks

    rows = _read_table(path, PEAKS_HEADER, optional_tail=("N_floor",))
    return [ScaledPeaks(N_p=row[0], N_b=row[1], N_c=row[2], r_gamma=row[3],
                        N_floor=row[4] if len(row) > 4 else None)
            for row in rows.tolist()]


def read_line(path) -> np.ndarray:
    """Amplifier calibration points as (n_m, var_uV2) rows of an array."""
    return _read_table(path, LINE_HEADER)


def write_trajectory(path, times, v_sq, v_asq, n):
    write_columns(path, TRAJECTORY_HEADER, [times, v_sq, v_asq, n])

