"""Legacy-VTK structured-grid ASCII meshes and RFC-4180 CSV tables.

The VTK writer targets the classic version-3 ASCII dialect (STRUCTURED_GRID
dataset) that any mesh viewer still reads.  Coordinates print with %.17g so
a write/read round trip reproduces every float64 bit-exactly.  Optional
per-node scalar fields ride along as POINT_DATA.

The grid axes convention: the file's x-direction runs over the second array
index (n2) and the y-direction over the first (n1), i.e. DIMENSIONS n2 n1 1
with points listed x-fastest, which puts array entry [i, j] at structured
coordinate (j, i).
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigError
from .geometry import require_finite_positions


def write_vtk(path, positions, fields=None, comment="surface mesh"):
    """Write nodal positions (n1, n2, 3) and optional scalar fields."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[-1] != 3:
        raise ConfigError("positions must have shape (n1, n2, 3), got %s"
                          % (positions.shape,))
    n1, n2, _ = positions.shape
    header = [
        "# vtk DataFile Version 3.0",
        str(comment).splitlines()[0] if comment else "surface mesh",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        "DIMENSIONS %d %d 1" % (n2, n1),
        "POINTS %d double" % (n1 * n2),
    ]
    blocks = ["\n".join(header) + "\n", _format_block(positions, 3)]
    if fields:
        blocks.append("POINT_DATA %d\n" % (n1 * n2))
        for name in fields:
            values = np.asarray(fields[name], dtype=float)
            if values.shape != (n1, n2):
                raise ConfigError(
                    "field %r must have shape (%d, %d), got %s"
                    % (name, n1, n2, values.shape))
            blocks.append("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
            blocks.append(_format_block(values, 1))
    with open(path, "w") as fh:
        fh.write("".join(blocks))


def _format_block(values, per_line):
    """``per_line`` %.17g numbers to a line, row-major, in one % call."""
    line = " ".join(["%.17g"] * per_line) + "\n"
    flat = values.ravel().tolist()
    return (line * (len(flat) // per_line)) % tuple(flat)


def read_vtk(path):
    """Read a structured-grid file written by write_vtk.

    Returns (positions, fields) with positions shaped (n1, n2, 3) and
    fields a dict of (n1, n2) arrays (empty when the file has none).
    A NaN or infinite point raises NonFinitePosition naming its grid node
    (i, j); finite coordinates of any size read back bit-exactly.
    """
    with open(path) as fh:
        # skip the version and the title, free text that may hold keywords
        fh.readline()
        fh.readline()
        flat = fh.read().split()

    def find(keyword):
        try:
            return flat.index(keyword)
        except ValueError:
            return -1

    k = find("DATASET")
    if k < 0 or k + 1 >= len(flat) or flat[k + 1] != "STRUCTURED_GRID":
        raise ConfigError("%s: not an ASCII STRUCTURED_GRID file" % path)
    k = find("DIMENSIONS")
    if k < 0:
        raise ConfigError("%s: missing DIMENSIONS" % path)
    n2, n1, nz = _header_ints(path, flat, k, 3)
    if min(n1, n2) < 1:
        raise ConfigError("%s: DIMENSIONS must be positive, got %d %d"
                          % (path, n2, n1))
    if nz != 1:
        raise ConfigError("%s: expected a single sheet, got nz=%d" % (path, nz))
    k = find("POINTS")
    if k < 0:
        raise ConfigError("%s: missing POINTS" % path)
    count, = _header_ints(path, flat, k, 1)
    if count != n1 * n2:
        raise ConfigError("%s: POINTS count %d does not match dimensions"
                          % (path, count))
    start = k + 3
    coords = _parse_block(path, "POINTS", flat[start:start + 3 * count])
    if coords.size != 3 * count:
        raise ConfigError("%s: truncated coordinate block" % path)
    positions = coords.reshape(n1, n2, 3)
    require_finite_positions(positions, bound=np.inf)

    fields = {}
    idx = start + 3 * count
    while idx < len(flat):
        if flat[idx] == "SCALARS":
            # SCALARS name type [numComp], numComp 1 when absent
            name = flat[idx + 1]
            idx += 3
            if idx < len(flat) and flat[idx] != "LOOKUP_TABLE":
                if flat[idx] != "1":
                    raise ConfigError("%s: field %r has component count "
                                      "%s, only 1 is supported"
                                      % (path, name, flat[idx]))
                idx += 1
            if idx < len(flat) and flat[idx] == "LOOKUP_TABLE":
                idx += 2
            vals = _parse_block(path, "field %r" % name, flat[idx:idx + count])
            if vals.size != count:
                raise ConfigError("%s: truncated field %r" % (path, name))
            fields[name] = vals.reshape(n1, n2)
            idx += count
        else:
            idx += 1
    return positions, fields


def _parse_block(path, block, tokens):
    """The float64 values of a block's tokens; a token that is not a number
    raises ConfigError naming the file and the block."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError as exc:
        raise ConfigError("%s: bad value in the %s block (%s)"
                          % (path, block, exc)) from None


def _header_ints(path, flat, k, count):
    """The ``count`` integers after the keyword at token ``k``."""
    tokens = flat[k + 1:k + 1 + count]
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        values = []
    if len(values) != count:
        raise ConfigError("%s: bad %s header %s" % (path, flat[k], tokens))
    return values


def write_csv(path, header, rows):
    """RFC-4180 CSV with a header row; floats print with %.17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(value):
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (np.floating,)):
        return "%.17g" % float(value)
    return value


def read_csv(path):
    """(header, rows) with every cell kept as text."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ConfigError("%s: empty CSV" % path)
    return rows[0], rows[1:]
