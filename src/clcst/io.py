"""Bit-exact binary container for grid signals and transform volumes.

Layout (little-endian):

    magic "CLCG" | version u16 | n u16 | axis_count u16 |
    per-axis sizes u32[axis_count] | count u32 | payload

A grid file is version 1: its axes are the b-grid shape, ``count`` is the
blade count, and its float64 payload is blade-major, then row-major over
the axes.  A volume file is version 4: its axes are (U, T_s) + b-grid
shape and ``count`` is the number P of stored pairs.  After the header
come the U x n float64 of the u list, row-major, and the U float64 of its
quadrature weights, then the payload: the volume's stored complex128
array, (U, T_s, P) + b-grid shape in row-major order, so each slice is one
contiguous run.  T_s is T, or 1 when one column serves every theta.
Volume files of earlier versions are refused: those of real blades,
versions 1 and 2, whose signals must be transformed again, and version 3,
whose u list and weights were in its sidecar.

A JSON sidecar at <path>.json carries the lattice geometry and, for
volumes, the theta list, parameter matrix, window, stored pairs and the
evaluation-path tag.

Each file and its sidecar are written to temporary files beside them and
renamed over them, so a write that stops partway leaves the old files.  A
volume file is written u-block by u-block (:func:`volume_writer`) and read
back the same way (:class:`VolumePayload`).
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

from .algebra import AlgebraError, algebra
from .grid import GridError, GridSignal, GridSpec
from .lct import LCTError, LCTParams
from .volume import CLCSTVolume, checked_pairs
from .windows import RAW, UNIT_INTEGRAL, WINDOWS, CompositeWindow, WindowError, window_angles

MAGIC = b"CLCG"
BLADE_MAJOR = 1  # grid files
PAIRS = 4  # volume files
# what reading a sidecar that does not describe its volume raises
SIDECAR_ERRORS = (AttributeError, LookupError, TypeError, ValueError, ArithmeticError,
                  AlgebraError, GridError, LCTError, WindowError)


class FormatError(Exception):
    pass


def _header(version, n, axes_sizes, count):
    header = MAGIC + struct.pack("<HHH", version, n, len(axes_sizes))
    header += struct.pack("<%dI" % len(axes_sizes), *axes_sizes)
    return header + struct.pack("<I", count)


def _raw(array):
    """The bytes of array as little-endian float64 or complex128: the array's
    own buffer, without a copy, when it is C-ordered and little-endian."""
    array = np.ascontiguousarray(array, dtype="<c16" if np.iscomplexobj(array) else "<f8")
    return memoryview(array.reshape(-1)).cast("B")


@contextlib.contextmanager
def _replacing(*paths):
    """New binary files open for writing, one beside each of paths.  They
    replace the paths when the block exits cleanly and are removed when it
    raises, so each path holds either its old file or its whole new one."""
    temps, files = [], []
    try:
        for path in paths:
            directory, name = os.path.split(os.fspath(path))
            temp = os.path.join(directory, ".%s.%s.tmp" % (name, os.urandom(4).hex()))
            files.append(open(temp, "xb"))
            temps.append(temp)
        yield files
        for fh in files:
            fh.close()
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for fh in files:
            fh.close()
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


def _read_header(fh, path, versions):
    """(version, n, sizes, count) of an open container, left after its
    header, once the file size matches the header."""
    head = fh.read(10)
    if head[:4] != MAGIC:
        raise FormatError("bad magic in %s" % path)
    try:
        version, n, axis_count = struct.unpack_from("<HHH", head, 4)
        if version not in versions:
            raise FormatError("unsupported format version %d in %s" % (version, path))
        rest = fh.read(4 * axis_count + 4)
        sizes = struct.unpack_from("<%dI" % axis_count, rest)
        (count,) = struct.unpack_from("<I", rest, 4 * axis_count)
    except struct.error as exc:
        raise FormatError("truncated header in %s: %s" % (path, exc)) from None
    if version != BLADE_MAJOR and axis_count < 2:
        raise FormatError("%s declares %d axes, a volume needs (U, T_s) first"
                          % (path, axis_count))
    payload = 8 * count * math.prod(sizes)
    if version == PAIRS:  # complex pairs, after the u list and weights
        payload = 2 * payload + 8 * sizes[0] * (n + 1)
    size = os.fstat(fh.fileno()).st_size
    if size != fh.tell() + payload:
        raise FormatError("%s holds %d payload bytes, the header declares %d"
                          % (path, size - fh.tell(), payload))
    return version, n, sizes, count


def _read_payload(fh, path, out):
    """Fill the little-endian array out from the file's position."""
    if fh.readinto(memoryview(out.reshape(-1)).cast("B")) != out.nbytes:
        raise FormatError("%s ended while its payload was read" % path)
    return out


def _stamp(fh):
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class VolumePayload:
    """The payload of a version 4 volume file, left in the file: the reader
    of a :class:`~clcst.volume.CLCSTVolume` whose rows are read on demand.

    ``shape`` is the volume's stored shape.  ``rows`` reads into the array
    ``out`` it is given, or else into one buffer that its next call reuses.
    A file that was replaced or rewritten after :func:`read_volume` opened
    it is refused, not read as this volume.
    """

    def __init__(self, path, offset, shape, stamp):
        self.path = path
        self.offset = offset
        self.shape = shape
        self._stamp = stamp
        self._buffer = None

    def _read(self, start, out, column=None):
        """u rows from ``start`` into out: whole rows, one contiguous run, or
        the one run of ``column`` in each row of several columns."""
        columns = self.shape[1]
        column_size = 16 * math.prod(self.shape[2:])
        with open(self.path, "rb") as fh:
            if _stamp(fh) != self._stamp:
                raise FormatError("%s changed after it was read as a volume" % self.path)
            if column is None or columns == 1:
                fh.seek(self.offset + start * column_size * columns)
                _read_payload(fh, self.path, out)
            else:
                for i, row in enumerate(out):
                    fh.seek(self.offset + ((start + i) * columns + column) * column_size)
                    _read_payload(fh, self.path, row)
        return out

    def rows(self, start, stop, column=None, out=None):
        """u rows start:stop, of one stored column (shape (rows, 1) + ...)
        or all of them, read into ``out``, a C-ordered little-endian complex
        array of that shape, or else into the buffer of the last call."""
        if not 0 <= start <= stop <= self.shape[0]:
            raise IndexError("u rows %d:%d of a volume of %d" % (start, stop, self.shape[0]))
        if column is not None and not 0 <= column < self.shape[1]:
            raise IndexError("column %d of a volume of %d" % (column, self.shape[1]))
        shape = (stop - start,) + (self.shape[1:] if column is None else (1,) + self.shape[2:])
        if out is not None:
            if (out.shape, out.dtype) != (shape, np.dtype("<c16")) or not out.flags.c_contiguous:
                raise ValueError("rows of shape %r are read into a C-ordered <c16 array of that "
                                 "shape, not %r %s" % (shape, out.shape, out.dtype))
            return self._read(start, out, column)
        count = math.prod(shape)
        if self._buffer is None or self._buffer.size < count:
            self._buffer = np.empty(count, dtype="<c16")
        return self._read(start, self._buffer[:count].reshape(shape), column)

    def load(self):
        return self._read(0, np.empty(self.shape, dtype="<c16"))


def _sidecar(path):
    return str(path) + ".json"


def window_to_meta(window):
    """The sidecar form of a window: its kind's numbers, or a composite's terms."""
    if window is None:
        return None
    if isinstance(window, CompositeWindow):
        meta = {"terms": [[c, window_to_meta(w)] for c, w in window.terms]}
    elif WINDOWS.get(getattr(window, "kind", None)) is type(window):
        meta = {p: getattr(window, p) for p in window.parameters}
    else:
        raise FormatError("cannot serialize window %r" % window)
    meta.update(kind=window.kind, amplitude=window.amplitude, normalization=window.normalization)
    return meta


def window_from_meta(meta, n):
    """The window of a sidecar; FormatError unless its amplitude and its kind's
    numbers (a composite's coefficients) are finite and its normalization known."""
    if meta is None:
        return None
    kind, normalization = meta["kind"], meta.get("normalization", RAW)
    if kind == CompositeWindow.kind:
        terms = [(c, window_from_meta(m, n)) for c, m in meta["terms"]]
        numbers = {"coefficient %d" % i: c for i, (c, _) in enumerate(terms)}
    elif kind in WINDOWS:
        numbers = {p: meta[p] for p in WINDOWS[kind].parameters}
    else:
        raise FormatError("unknown window kind %r" % kind)
    numbers["amplitude"] = meta["amplitude"]
    for name, value in numbers.items():
        if not _numbers([value]):
            raise FormatError("window %s %r is not a finite number" % (name, value))
    if normalization not in (RAW, UNIT_INTEGRAL):
        raise FormatError("window normalization %r is not %r or %r"
                          % (normalization, RAW, UNIT_INTEGRAL))
    if kind == CompositeWindow.kind:
        return CompositeWindow(terms, numbers["amplitude"], normalization)
    return WINDOWS[kind](n, **numbers, normalization=normalization)


def _grid_meta(spec, ctx, domain):
    return {
        "n": spec.n,
        "half_width": spec.half_width,
        "samples_per_axis": spec.samples_per_axis,
        "metric_sign": ctx.metric_sign,
        "domain": domain,
    }


def _json_bytes(meta):
    """Compact JSON, which the json module writes with its C encoder."""
    return json.dumps(meta, sort_keys=True).encode()


def write_grid(path, signal):
    meta = {"kind": "grid"}
    meta.update(_grid_meta(signal.spec, signal.ctx, signal.domain))
    with _replacing(path, _sidecar(path)) as (payload, sidecar):
        payload.write(_header(BLADE_MAJOR, signal.spec.n, signal.spec.shape,
                              signal.ctx.blade_count))
        payload.write(_raw(signal.data))
        sidecar.write(_json_bytes(meta))


def read_grid(path):
    """The signal of a grid file; a sidecar that does not describe the
    payload raises :class:`FormatError`, as in :func:`read_volume`."""
    with open(path, "rb") as fh:
        _, n, sizes, blade_count = _read_header(fh, path, (BLADE_MAJOR,))
        payload = _read_payload(fh, path, np.empty((blade_count,) + sizes, dtype="<f8"))
    try:
        with open(_sidecar(path), "rb") as fh:
            meta = json.load(fh)
        if meta.get("kind") != "grid":
            raise FormatError("%s is not a grid file" % path)
        spec = GridSpec(meta["n"], meta["half_width"], meta["samples_per_axis"])
        ctx = algebra(meta["n"], meta["metric_sign"])
        if (blade_count, sizes) != (ctx.blade_count, spec.shape):
            raise FormatError("%s: payload does not match sidecar geometry" % path)
        return GridSignal(spec, ctx, payload, meta["domain"])
    except SIDECAR_ERRORS as exc:  # a sidecar that does not describe its grid
        raise FormatError("%s: malformed sidecar (%s: %s)"
                          % (path, type(exc).__name__, exc)) from None


class VolumeWriter:
    """Appends the u rows of one volume, in order, to an open version 4 file
    (:func:`volume_writer`)."""

    def __init__(self, fh):
        self._fh = fh
        self._vol = None
        self._rows = 0
        self.bytes = None

    def begin(self, vol):
        """Write the header of vol's file, its u list and its weights.
        Returns :meth:`append`, the sink of its u-blocks
        (:func:`~clcst.stockwell.fill_volume`)."""
        if self._vol is not None:
            raise FormatError("a volume file holds one volume")
        if vol.u_weights.shape != (vol.u_count,):
            raise FormatError("u weights of shape %r, not one for each of %d u rows"
                              % (vol.u_weights.shape, vol.u_count))
        self._vol = vol
        axes = (vol.u_count, vol.stored_theta_columns) + vol.spec.shape
        self._fh.write(_header(PAIRS, vol.spec.n, axes, len(vol.pairs)))
        self._fh.write(_raw(vol.u_list))
        self._fh.write(_raw(vol.u_weights))
        return self.append

    def append(self, start, stop, rows):
        """Append rows start:stop of the stored array, which follow the rows
        appended before."""
        vol = self._vol
        if ((start, stop) != (self._rows, self._rows + len(rows)) or stop > vol.u_count
                or rows.shape[1:] != vol.stored_shape[1:]):
            raise FormatError("u rows %d:%d of shape %r do not follow %d of the %r stored"
                              % (start, stop, rows.shape, self._rows, vol.stored_shape))
        self._fh.write(_raw(rows))
        self._rows = stop

    def _meta(self):
        vol = self._vol
        if vol is None:
            raise FormatError("no volume was begun")
        if self._rows != vol.u_count:
            raise FormatError("the volume file holds %d of %d u rows" % (self._rows, vol.u_count))
        return {
            "kind": "volume",
            "grid": _grid_meta(vol.spec, vol.ctx, "space"),
            "theta_list": vol.theta_list.tolist(),
            "pairs": vol.pairs.tolist(),
            "path": vol.path,
            "params": list(vol.params.as_tuple()) if vol.params else None,
            "window": window_to_meta(vol.window),
        }


@contextlib.contextmanager
def volume_writer(path):
    """A :class:`VolumeWriter` streaming one volume to a version 4 file at
    path, to be given the header (``begin``) and then every u row.

    The rows go to a temporary file beside path.  When the block exits
    cleanly with every row written, the sidecar is written and the two
    files replace path and its sidecar; ``bytes`` is then their size.  When
    it raises, neither is touched.
    """
    with _replacing(path, _sidecar(path)) as (payload, sidecar):
        writer = VolumeWriter(payload)
        yield writer
        sidecar.write(_json_bytes(writer._meta()))
        writer.bytes = payload.tell() + sidecar.tell()


def write_volume(path, vol):
    """Write vol as a version 4 file and its sidecar, block by block of its
    rows (:meth:`~clcst.volume.CLCSTVolume.blocks`); returns the bytes of
    both."""
    with volume_writer(path) as writer:
        writer.begin(vol)
        for start, stop, rows in vol.blocks():
            writer.append(start, stop, rows)
    return writer.bytes


def _numbers(value, count=None):
    """Whether value is a JSON list of finite numbers, count of them if given;
    a bool is not a number here."""
    return (isinstance(value, list) and count in (None, len(value))
            and set(map(type, value)) <= {int, float} and all(map(math.isfinite, value)))


def read_volume(path):
    """The volume of a version 4 file, its header, size, u list, weights and
    sidecar checked; a non-finite u or weight, or a sidecar that does not
    describe the payload, raises :class:`FormatError`, and so does a file of
    another version.

    The payload stays in the file: the volume reads its u rows on demand
    (:class:`VolumePayload`) and loads them whole only when its ``stored``
    array is asked for.
    """
    with open(path, "rb") as fh:
        _, n, sizes, count = _read_header(fh, path, (PAIRS,))
        u_list = _read_payload(fh, path, np.empty((sizes[0], n), dtype="<f8"))
        u_weights = _read_payload(fh, path, np.empty(sizes[0], dtype="<f8"))
        offset, stamp = fh.tell(), _stamp(fh)
    for name, values in (("u_list", u_list), ("u_weights", u_weights)):
        if not np.all(np.isfinite(values)):
            raise FormatError("%s: %s holds a value that is not finite" % (path, name))
    try:
        with open(_sidecar(path), "rb") as fh:
            meta = json.load(fh)
        if meta.get("kind") != "volume":
            raise FormatError("%s is not a volume file" % path)
        g, params = meta["grid"], meta["params"]
        tag = meta["path"]  # the evaluation-path tag
        if g["n"] != n:
            raise FormatError("%s: header n = %d, sidecar n = %r" % (path, n, g["n"]))
        spec = GridSpec(n, g["half_width"], g["samples_per_axis"])
        ctx = algebra(n, g["metric_sign"])
        if params is not None and not _numbers(params, 4):
            raise FormatError("%s: sidecar params %r is not 4 numbers" % (path, params))
        params = LCTParams(*params) if params else None
        pairs = checked_pairs(ctx, meta["pairs"])
        if not (meta["theta_list"] and _numbers(meta["theta_list"])):
            raise FormatError("%s: sidecar theta_list is not a non-empty list of finite numbers"
                              % path)
        try:
            window = window_from_meta(meta["window"], n)
        except FormatError as exc:
            raise FormatError("%s: %s" % (path, exc)) from None
        theta_list = np.asarray(meta["theta_list"], dtype=np.float64)
        columns = len(window_angles(window, theta_list))
    except SIDECAR_ERRORS as exc:  # a sidecar that does not describe its volume
        raise FormatError("%s: malformed sidecar (%s: %s)"
                          % (path, type(exc).__name__, exc)) from None
    if count != len(pairs):
        raise FormatError("%s holds %d pairs, its sidecar lists %d" % (path, count, len(pairs)))
    if sizes[2:] != spec.shape:
        raise FormatError("%s: payload does not match sidecar geometry" % path)
    if sizes[1] != columns:
        raise FormatError("%s stores %d theta columns, not the window's %d"
                          % (path, sizes[1], columns))
    payload = VolumePayload(path, offset, sizes[:2] + (count,) + sizes[2:], stamp)
    return CLCSTVolume(spec, ctx, u_list, theta_list, stored=payload, params=params,
                       window=window, path=tag, u_weights=u_weights, pairs=pairs)


def export_spectrogram_csv(path, vol, ui, ti):
    """|S| (coefficient 2-norm) of one (u, theta) slice as CSV rows: the
    norm over the stored pairs, |z_B|^2 = f_B^2 + f_{B^F}^2."""
    z = vol.rows(ui, ui + 1, vol.column(ti))[0, 0]
    mag = np.sqrt(np.sum(z.real**2 + z.imag**2, axis=0))
    header = "u=%s theta=%g" % (vol.u_list[ui].tolist(), vol.theta_list[ti])
    np.savetxt(path, mag.reshape(mag.shape[0], -1), delimiter=",", header=header)
