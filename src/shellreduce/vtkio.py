"""Legacy-VTK structured-grid ASCII meshes and RFC-4180 CSV tables.

The VTK writer targets the classic version-3 ASCII dialect (STRUCTURED_GRID
dataset) that any mesh viewer still reads.  Coordinates print as "%.17g"
does, so a write/read round trip reproduces every float64 bit-exactly.
Optional per-node scalar fields ride along as POINT_DATA.

The digits are made on whole arrays, 4,095 values at a time, and the
bytes are exactly those of ``"%.17g" % v``.  For the decimal exponent E of
x, the product |x| 10^(16 - E) is formed as a double-double: a Dekker split
of x times a (hi, lo) pair of 10^(16 - E) scaled by a power of two, built
from exact integers the first time a block needs that E.  E is estimated
from the binary exponent, corrected from the unrounded product, and the
product is rounded to the 17-digit integer q.  q turns into characters
through a table of the 10^4 four-digit groups, and %g's layout (fixed
notation for -4 <= E < 17, trailing zeros and a bare "." stripped,
exponent e+XX, "-0") is filled in slices of rows with the same layout,
which one mask then compacts.  The product carries an error below 1e-14
of a unit of q, so any value whose fraction lies within 1e-9 of 1/2
(exact ties are common above 1e13) goes through ``"%.17g" % v`` one value
at a time, as do NaN and +-inf.  Loitsch (PLDI 2010) and Adams (PLDI 2018)
make the shortest round-trip digits from integers the same way.  The
reader splits the file into bytes tokens and parses each block with one
numpy call.

The grid axes convention: the file's x-direction runs over the second array
index (n2) and the y-direction over the first (n1), i.e. DIMENSIONS n2 n1 1
with points listed x-fastest, which puts array entry [i, j] at structured
coordinate (j, i).
"""

from __future__ import annotations

import csv
import functools

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
    fields = {name: np.asarray(values, dtype=float)
              for name, values in (fields or {}).items()}
    for name, values in fields.items():
        if values.shape != (n1, n2):
            raise ConfigError("field %r must have shape (%d, %d), got %s"
                              % (name, n1, n2, values.shape))
    header = [
        "# vtk DataFile Version 3.0",
        str(comment).splitlines()[0] if comment else "surface mesh",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        "DIMENSIONS %d %d 1" % (n2, n1),
        "POINTS %d double" % (n1 * n2),
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        _write_block(fh, positions, 3)
        if fields:
            fh.write(b"POINT_DATA %d\n" % (n1 * n2))
        for name, values in fields.items():
            fh.write(("SCALARS %s double 1\nLOOKUP_TABLE default\n"
                      % name).encode())
            _write_block(fh, values, 1)


_CHUNK = 4095          # values formatted at a time, a multiple of 1 and 3
_WIDTH = 25            # sign, "d.dddddddddddddddde-308", separator
_EXP, _ZERO, _SLOW = 21, 22, 23    # layouts after fixed E = -4 .. 16
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitter


def _write_block(fh, values, per_line):
    """Write ``per_line`` %.17g numbers to a line, row-major, chunk by
    chunk, as bytes to the binary file ``fh``."""
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    sep = np.full(_CHUNK, ord(" "), dtype=np.uint8)
    sep[per_line - 1::per_line] = ord("\n")
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        fh.write(_format_chunk(x, sep[:x.size]))


@functools.cache
def _quads():
    """The ASCII of 0000 .. 9999 as uint32, then again with each group's
    trailing zeros blanked to 0 bytes (the pad the writer drops)."""
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    chars = np.empty((20000, 4), dtype=np.uint8)
    for j, step in enumerate((1000, 100, 10, 1)):
        chars[:10000, j] = np.tile(np.repeat(ten, step), 1000 // step)
    kept = np.zeros(10000, dtype=bool)
    for j in (3, 2, 1, 0):
        kept |= chars[:10000, j] != ord("0")
        chars[10000:, j] = chars[:10000, j] * kept
    return chars.view(np.uint32).ravel()


@functools.cache
def _power(e):
    """(hi, hh, hl, lo, 2^-b) for the decimal exponent e: hi is the
    correctly rounded 10^(16 - e) 2^b with b ~ e log2(10) in [-1023, 1023],
    so that hi is near 1e16 and x 2^-b near 1 for normal x, lo is the
    correctly rounded rest and hh + hl is hi split."""
    b = min(max(e * 3321928094887362 // 10 ** 15, -1023), 1023)
    num = 10 ** max(16 - e, 0) << max(b, 0)
    den = 10 ** max(e - 16, 0) << max(-b, 0)
    hi = num / den
    a, c = hi.as_integer_ratio()
    hh = _SPLIT * hi - (_SPLIT * hi - hi)
    return hi, hh, hi - hh, (num * c - a * den) / (den * c), 2.0 ** -b


def _product(ax, e):
    """ax 10^(16 - e) for normal positive ax as a double-double (hi, lo),
    with an error below 2^-104 relative."""
    first = int(e.min())
    table = np.array([_power(k) for k in range(first, int(e.max()) + 1)])
    hi, hh, hl, lo, scale = table.T[:, e - first]
    xs = ax * scale
    p = xs * hi
    xh = _SPLIT * xs
    xh -= xh - xs
    xl = xs - xh
    # s = ((((xh hh - p) + xh hl) + xl hh) + xl hl) + xs lo, in place
    s = xh * hh
    s -= p
    s += xh * hl
    s += xl * hh
    s += xl * hl
    s += xs * lo
    top = p + s
    p -= top
    s += p          # s - (top - p); top - p is exact
    return top, s


def _decimal(x):
    """(layout, E, q) with |x| = q 10^(E - 16) rounded to 17 digits and
    layout 0 .. 20 for fixed notation E + 4, else _EXP, _ZERO or _SLOW."""
    fast = np.isfinite(x) & (x != 0)
    ax = np.where(fast, np.abs(x), 1.0)
    m, e2 = np.frexp(ax)                     # ax = m 2^e2, 1/2 <= m < 1
    # the chord (2m - 1) log10 2 is below log10(2m), so this is E, or
    # E - 1 where log10|x| lies within 0.026 above an integer
    e = np.floor((e2 + 2 * m - 2) * 0.30102999566398120).astype(np.int64)
    hi, lo = _product(ax, e)
    off = np.flatnonzero(_scale_step(hi, lo))
    if off.size:
        e[off] += _scale_step(hi[off], lo[off])
        hi[off], lo[off] = _product(ax[off], e[off])
        fast[off[_scale_step(hi[off], lo[off]) != 0]] = False
    # hi is an integer above 2^53, so the fraction is lo's
    floor = np.floor(lo)
    frac = lo - floor
    fast &= np.abs(frac - 0.5) > 1e-9
    q = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = q == 10 ** 17
    q[carry] = 10 ** 16
    e += carry
    layout = np.where((e >= -4) & (e <= 16), e + 4, _EXP).astype(np.uint8)
    layout[x == 0] = _ZERO
    layout[~fast & (x != 0)] = _SLOW
    q[~fast] = 10 ** 16
    return layout, e, q


def _scale_step(hi, lo):
    """-1 where hi + lo < 1e16 - 0.025, +1 where it is > 1e17 + 0.25, else
    0.  Within 0.05 below 1e16 one E lower rounds to 10^17, and within
    0.5 above 1e17 this E does; both carry back to q = 10^16, so the
    thresholds sit inside those bands, far from the product's error."""
    up = (hi > 1e17) | ((hi == 1e17) & (lo > 0.25))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < -0.025))
    return up.astype(np.int64) - down


def _format_chunk(x, sep):
    """The %.17g text of the values ``x``, each followed by its ``sep``
    byte, as one uint8 array."""
    layout, e, q = _decimal(x)
    present = np.zeros(_SLOW + 1, dtype=bool)
    present[layout] = True
    # a stable sort by layout, so that each layout fills a slice of rows
    runs = [(k, np.flatnonzero(layout == k)) for k in np.flatnonzero(present)]
    order = np.concatenate([rows for _, rows in runs])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(x.size)
    text = _sorted_rows(e[order], q[order],
                        [(k, len(rows)) for k, rows in runs])[inverse]
    text[:, 0] = np.signbit(x) * ord("-")
    text[:, -1] = sep
    for i in np.flatnonzero(layout == _SLOW):
        chars = ("%.17g" % x[i]).encode()
        text[i, :-1] = 0
        text[i, :len(chars)] = np.frombuffer(chars, dtype=np.uint8)
    return text[text != 0]


def _sorted_rows(e, q, runs):
    """Rows of _WIDTH bytes for values sorted into ``runs`` of (layout,
    count), 0 bytes where nothing prints: the number in its layout's
    columns, with column 0 left for the sign, the last for the separator,
    and _SLOW rows left empty."""
    full, cut = _digits(q)
    rows = np.zeros((q.size, _WIDTH), dtype=np.uint8)
    start = 0
    for k, count in runs:
        s = slice(start, start + count)
        start += count
        if k == _EXP:    # d.ddd...e+XX
            rows[s, 1] = full[s, 3]
            rows[s, 2] = ord(".") * (cut[s, 4] != 0)
            rows[s, 3:19] = cut[s, 4:20]
            rows[s, 19] = ord("e")
            rows[s, 20] = np.where(e[s] < 0, ord("-"), ord("+"))
            mag = np.abs(e[s])
            rows[s, 21:24] = _quads()[mag].view(np.uint8).reshape(-1, 4)[:, 1:]
            rows[s, 21] *= mag >= 100
        elif k == _ZERO:
            rows[s, 1] = ord("0")
        elif k < 4:      # 0.000ddd...
            E = k - 4
            rows[s, 1:3 - E] = ord("0")
            rows[s, 2] = ord(".")
            rows[s, 2 - E:19 - E] = cut[s, 3:20]
        elif k <= 20:    # ddd.ddd... with the integer digits kept whole
            E = k - 4
            rows[s, 1:E + 2] = full[s, 3:E + 4]
            if E < 16:
                rows[s, E + 2] = ord(".") * (cut[s, E + 4] != 0)
                rows[s, E + 3:19] = cut[s, E + 4:20]
    return rows


def _digits(q):
    """The 17 digits of each q as ASCII in columns 3 .. 19 of (n, 20)
    arrays: as they are, and with the number's trailing zeros blanked."""
    g = np.empty((q.size, 5), dtype=np.int32)   # the leading digit, then
    high = q // 10 ** 8         # four groups of four from int32 halves
    low = (q - high * 10 ** 8).astype(np.int32)
    g[:, 0], high = np.divmod(high.astype(np.int32), 10 ** 8)
    g[:, 1], g[:, 2] = np.divmod(high, 10 ** 4)
    g[:, 3], g[:, 4] = np.divmod(low, 10 ** 4)
    quads = _quads()
    full = quads[g].view(np.uint8)
    # a group reads the blanked table when every group after it is zero
    tail = np.ones(q.size, dtype=bool)
    for j in (4, 3, 2, 1):
        zero = g[:, j] == 0
        g[:, j] += 10000 * tail
        tail &= zero
    return full, quads[g].view(np.uint8)


def read_vtk(path):
    """Read a structured-grid file written by write_vtk.

    Returns (positions, fields) with positions shaped (n1, n2, 3) and
    fields a dict of (n1, n2) arrays (empty when the file has none).
    A NaN or infinite point raises NonFinitePosition naming its grid node
    (i, j); finite coordinates of any size read back bit-exactly.  A file
    whose third line is not ASCII (a BINARY file, say), or that holds bytes
    no number or keyword can take, raises ConfigError naming the file.
    """
    with open(path, "rb") as fh:
        # skip the version and the title, free text that may hold keywords
        fh.readline()
        fh.readline()
        kind = fh.readline().strip()
        if kind.upper() != b"ASCII":
            raise ConfigError("%s: not an ASCII STRUCTURED_GRID file "
                              "(line 3 reads %r, not ASCII)"
                              % (path, _text(kind)))
        flat = fh.read().split()

    def find(keyword):
        try:
            return flat.index(keyword)
        except ValueError:
            return -1

    k = find(b"DATASET")
    if k < 0 or k + 1 >= len(flat) or flat[k + 1] != b"STRUCTURED_GRID":
        raise ConfigError("%s: not an ASCII STRUCTURED_GRID file" % path)
    k = find(b"DIMENSIONS")
    if k < 0:
        raise ConfigError("%s: missing DIMENSIONS" % path)
    n2, n1, nz = _header_ints(path, flat, k, 3)
    if min(n1, n2) < 1:
        raise ConfigError("%s: DIMENSIONS must be positive, got %d %d"
                          % (path, n2, n1))
    if nz != 1:
        raise ConfigError("%s: expected a single sheet, got nz=%d" % (path, nz))
    k = find(b"POINTS")
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
        if flat[idx] == b"SCALARS":
            # SCALARS name type [numComp], numComp 1 when absent
            if idx + 1 == len(flat):
                raise ConfigError("%s: SCALARS without a field name" % path)
            name = _text(flat[idx + 1])
            idx += 3
            if idx < len(flat) and flat[idx] != b"LOOKUP_TABLE":
                if flat[idx] != b"1":
                    raise ConfigError("%s: field %r has component count "
                                      "%s, only 1 is supported"
                                      % (path, name, _text(flat[idx])))
                idx += 1
            if idx < len(flat) and flat[idx] == b"LOOKUP_TABLE":
                idx += 2
            vals = _parse_block(path, "field %r" % name, flat[idx:idx + count])
            if vals.size != count:
                raise ConfigError("%s: truncated field %r" % (path, name))
            fields[name] = vals.reshape(n1, n2)
            idx += count
        else:
            idx += 1
    return positions, fields


def _text(token):
    """A bytes token as text, undecodable bytes shown as escapes."""
    return token.decode("utf-8", "backslashreplace")


def _parse_block(path, block, tokens):
    """The float64 values of a block's bytes tokens; a token that is not a
    number raises ConfigError naming the file, the block and the token."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        for token in tokens:
            try:
                float(token)
            except ValueError:
                raise ConfigError("%s: bad value in the %s block: %r"
                                  % (path, block, _text(token))) from None
        raise


def _header_ints(path, flat, k, count):
    """The ``count`` integers after the keyword at token ``k``."""
    tokens = flat[k + 1:k + 1 + count]
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        values = []
    if len(values) != count:
        raise ConfigError("%s: bad %s header %s"
                          % (path, _text(flat[k]), [_text(t) for t in tokens]))
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
