"""Bit-exact binary container for grid signals and transform volumes.

Layout (little-endian):

    magic "CLCG" | version u16 | n u16 | axis_count u16 |
    per-axis sizes u32[axis_count] | blade_count u32 | payload float64

A grid file is version 1: its axes are the b-grid shape and its payload is
blade-major, then row-major over the axes.  A volume file is version 2: its
axes are (U, T_s) + b-grid shape and its payload is the volume's stored
array, (U, T_s, blade) + b-grid shape in row-major order, so each slice is
one contiguous run.  T_s is T, or 1 when one column serves every theta.
Version 1 volumes, with axes b-grid shape + (U, T) and a blade-major
payload, are still read.

A JSON sidecar at <path>.json carries the lattice geometry and, for
volumes, the (u, theta) lists, parameter matrix, window, weights, and the
evaluation-path tag.

Each file and its sidecar are written to temporary files beside them and
renamed over them, so a write that stops partway leaves the old files.  A
volume file is written u-block by u-block (:func:`volume_writer`), and a
version 2 file is read back the same way (:class:`VolumePayload`).
"""

import contextlib
import json
import os
import struct

import numpy as np

from .algebra import algebra
from .grid import GridSignal, GridSpec, unpack
from .lct import LCTParams
from .volume import CLCSTVolume
from .windows import CompositeWindow, DOGWindow, GaussianWindow, window_angles

MAGIC = b"CLCG"
BLADE_MAJOR = 1  # grid files, and volume files before version 2
SLICE_MAJOR = 2  # volume files


class FormatError(Exception):
    pass


def _header(version, n, axes_sizes, blade_count):
    header = MAGIC + struct.pack("<HHH", version, n, len(axes_sizes))
    header += struct.pack("<%dI" % len(axes_sizes), *axes_sizes)
    return header + struct.pack("<I", blade_count)


def _raw(array):
    """The bytes of array as little-endian float64: the array's own buffer,
    without a copy, when it is C-ordered little-endian float64."""
    array = np.ascontiguousarray(array, dtype="<f8")
    return memoryview(array.reshape(-1)).cast("B")


def _reused(buffer, shape):
    """(buffer, view): a view of the given shape on the front of a flat
    float64 buffer, which is replaced by a new one when it is too small."""
    count = int(np.prod(shape))
    if buffer is None or buffer.size < count:
        buffer = np.empty(count, dtype="<f8")
    return buffer, buffer[:count].reshape(shape)


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
    """(version, n, sizes, blade_count) of an open container, left at its
    payload, once the file size matches the header."""
    head = fh.read(10)
    if head[:4] != MAGIC:
        raise FormatError("bad magic in %s" % path)
    try:
        version, n, axis_count = struct.unpack_from("<HHH", head, 4)
        if version not in versions:
            raise FormatError("unsupported format version %d in %s" % (version, path))
        rest = fh.read(4 * axis_count + 4)
        sizes = struct.unpack_from("<%dI" % axis_count, rest)
        (blade_count,) = struct.unpack_from("<I", rest, 4 * axis_count)
    except struct.error as exc:
        raise FormatError("truncated header in %s: %s" % (path, exc)) from None
    if version == SLICE_MAJOR and axis_count < 2:
        raise FormatError("%s declares %d axes, a volume needs (U, T_s) first"
                          % (path, axis_count))
    count = blade_count * int(np.prod(sizes))
    size = os.fstat(fh.fileno()).st_size
    if size != fh.tell() + 8 * count:
        raise FormatError("%s holds %d payload bytes, the header declares %d"
                          % (path, size - fh.tell(), 8 * count))
    return version, n, sizes, blade_count


def _read_payload(fh, path, out):
    """Fill the little-endian float64 array out from the file's position."""
    if fh.readinto(memoryview(out.reshape(-1)).cast("B")) != out.nbytes:
        raise FormatError("%s ended while its payload was read" % path)
    return out


def _stamp(fh):
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class VolumePayload:
    """The payload of a version 2 volume file, left in the file: the reader
    of a :class:`~clcst.volume.CLCSTVolume` whose rows are read on demand.

    ``rows`` reads into one buffer that its next call reuses.  A file that
    was replaced or rewritten after :func:`read_volume` opened it is
    refused, not read as this volume.
    """

    def __init__(self, path, offset, shape, stamp):
        self.path = path
        self.offset = offset
        self.shape = shape
        self._stamp = stamp
        self._row_bytes = 8 * int(np.prod(shape[1:]))
        self._buffer = None

    def _read(self, start, out):
        with open(self.path, "rb") as fh:
            if _stamp(fh) != self._stamp:
                raise FormatError("%s changed after it was read as a volume" % self.path)
            fh.seek(self.offset + start * self._row_bytes)
            return _read_payload(fh, self.path, out)

    def rows(self, start, stop):
        if not 0 <= start <= stop <= self.shape[0]:
            raise IndexError("u rows %d:%d of a volume of %d" % (start, stop, self.shape[0]))
        self._buffer, out = _reused(self._buffer, (stop - start,) + self.shape[1:])
        return self._read(start, out)

    def load(self):
        return self._read(0, np.empty(self.shape, dtype="<f8"))


def _sidecar(path):
    return str(path) + ".json"


def window_to_meta(window):
    if window is None:
        return None
    if isinstance(window, GaussianWindow):
        return {
            "kind": "gaussian",
            "sigma": window.sigma,
            "amplitude": window.amplitude,
            "normalization": window.normalization,
        }
    if isinstance(window, DOGWindow):
        return {
            "kind": "dog",
            "lam": window.lam,
            "amplitude": window.amplitude,
            "normalization": window.normalization,
        }
    if isinstance(window, CompositeWindow):
        return {
            "kind": "composite",
            "amplitude": window.amplitude,
            "normalization": window.normalization,
            "terms": [[c, window_to_meta(w)] for c, w in window.terms],
        }
    raise FormatError("cannot serialize window %r" % window)


def window_from_meta(meta, n):
    if meta is None:
        return None
    kind = meta["kind"]
    if kind == "gaussian":
        w = GaussianWindow(n, sigma=meta["sigma"], amplitude=meta["amplitude"])
    elif kind == "dog":
        w = DOGWindow(n, lam=meta["lam"], amplitude=meta["amplitude"])
    elif kind == "composite":
        terms = [(c, window_from_meta(m, n)) for c, m in meta["terms"]]
        w = CompositeWindow(terms, amplitude=meta["amplitude"])
    else:
        raise FormatError("unknown window kind %r" % kind)
    w.normalization = meta.get("normalization", w.normalization)
    return w


def _grid_meta(spec, ctx, domain):
    return {
        "n": spec.n,
        "half_width": spec.half_width,
        "samples_per_axis": spec.samples_per_axis,
        "metric_sign": ctx.metric_sign,
        "domain": domain,
    }


def _json_bytes(meta):
    return json.dumps(meta, indent=1, sort_keys=True).encode()


def write_grid(path, signal):
    meta = {"kind": "grid"}
    meta.update(_grid_meta(signal.spec, signal.ctx, signal.domain))
    with _replacing(path, _sidecar(path)) as (payload, sidecar):
        payload.write(_header(BLADE_MAJOR, signal.spec.n, signal.spec.shape,
                              signal.ctx.blade_count))
        payload.write(_raw(signal.data))
        sidecar.write(_json_bytes(meta))


def read_grid(path):
    with open(path, "rb") as fh:
        _, n, sizes, blade_count = _read_header(fh, path, (BLADE_MAJOR,))
        payload = _read_payload(fh, path, np.empty((blade_count,) + sizes, dtype="<f8"))
    with open(_sidecar(path)) as fh:
        meta = json.load(fh)
    if meta.get("kind") != "grid":
        raise FormatError("%s is not a grid file" % path)
    spec = GridSpec(meta["n"], meta["half_width"], meta["samples_per_axis"])
    ctx = algebra(meta["n"], meta["metric_sign"])
    if (blade_count, sizes) != (ctx.blade_count, spec.shape):
        raise FormatError("payload does not match sidecar geometry")
    return GridSignal(spec, ctx, payload, meta["domain"])


class VolumeWriter:
    """Appends the u rows of one volume, in order, to an open version 2 file
    (:func:`volume_writer`)."""

    def __init__(self, fh):
        self._fh = fh
        self._vol = None
        self._rows = 0
        self._buffer = None
        self.bytes = None

    def begin(self, vol):
        """Write the header of vol's file.  Returns the sink of its u-blocks
        as complex pairs (:func:`~clcst.stockwell.fill_volume`), which
        unpacks each block's live pairs, and zeros for the rest, into one
        reused real buffer and appends it."""
        if self._vol is not None:
            raise FormatError("a volume file holds one volume")
        self._vol = vol
        axes = (vol.u_count, vol.stored_theta_columns) + vol.spec.shape
        self._fh.write(_header(SLICE_MAJOR, vol.spec.n, axes, vol.ctx.blade_count))
        return self._append_pairs

    def append(self, rows):
        """Append the stored array's next u rows."""
        vol = self._vol
        if rows.shape[1:] != vol.stored_shape[1:] or self._rows + len(rows) > vol.u_count:
            raise FormatError("rows of shape %r do not follow %d of the %r stored"
                              % (rows.shape, self._rows, vol.stored_shape))
        self._fh.write(_raw(rows))
        self._rows += len(rows)

    def _append_pairs(self, start, stop, pairs, live):
        if start != self._rows:
            raise FormatError("u rows %d:%d arrive after %d rows" % (start, stop, self._rows))
        shape = (stop - start,) + self._vol.stored_shape[1:]
        self._buffer, rows = _reused(self._buffer, shape)
        unpack(self._vol.ctx, np.moveaxis(pairs, 2, 0), out=np.moveaxis(rows, 2, 0), pairs=live)
        self.append(rows)

    def _meta(self):
        vol = self._vol
        if vol is None:
            raise FormatError("no volume was begun")
        if self._rows != vol.u_count:
            raise FormatError("the volume file holds %d of %d u rows" % (self._rows, vol.u_count))
        return {
            "kind": "volume",
            "grid": _grid_meta(vol.spec, vol.ctx, "space"),
            "u_list": vol.u_list.tolist(),
            "u_weights": vol.u_weights.tolist(),
            "theta_list": vol.theta_list.tolist(),
            "path": vol.path,
            "params": list(vol.params.as_tuple()) if vol.params else None,
            "window": window_to_meta(vol.window),
        }


@contextlib.contextmanager
def volume_writer(path):
    """A :class:`VolumeWriter` streaming one volume to a version 2 file at
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
    """Write vol as a version 2 file and its sidecar, block by block of its
    rows (:meth:`~clcst.volume.CLCSTVolume.blocks`); returns the bytes of
    both."""
    with volume_writer(path) as writer:
        writer.begin(vol)
        for _, _, rows in vol.blocks():
            writer.append(rows)
    return writer.bytes


def read_volume(path):
    """The volume of a file, its header, size and sidecar checked.

    A version 2 file's payload stays in the file: the volume reads its u
    rows on demand (:class:`VolumePayload`) and loads them whole only when
    its ``stored`` array is asked for.  A version 1 file's blade-major
    payload holds no u row in one run, so it is read whole and its axes are
    moved into the stored order once, with T_s = T.
    """
    with open(path, "rb") as fh:
        version, n, sizes, blade_count = _read_header(fh, path, (BLADE_MAJOR, SLICE_MAJOR))
        if version == BLADE_MAJOR:
            payload = _read_payload(fh, path, np.empty((blade_count,) + sizes, dtype="<f8"))
        else:
            payload = VolumePayload(path, fh.tell(),
                                    sizes[:2] + (blade_count,) + sizes[2:], _stamp(fh))
    with open(_sidecar(path)) as fh:
        meta = json.load(fh)
    if meta.get("kind") != "volume":
        raise FormatError("%s is not a volume file" % path)
    g = meta["grid"]
    spec = GridSpec(g["n"], g["half_width"], g["samples_per_axis"])
    ctx = algebra(g["n"], g["metric_sign"])
    params = LCTParams(*meta["params"]) if meta["params"] else None
    window = window_from_meta(meta["window"], g["n"])
    u_list = np.asarray(meta["u_list"], dtype=np.float64).reshape(-1, spec.n)
    theta_list = np.asarray(meta["theta_list"], dtype=np.float64).ravel()
    if version == BLADE_MAJOR:
        if sizes[-2:] != (len(u_list), len(theta_list)):
            raise FormatError("%s holds (U, T) = %r, its sidecar lists %r"
                              % (path, sizes[-2:], (len(u_list), len(theta_list))))
        payload = np.ascontiguousarray(np.moveaxis(payload, (-2, -1), (0, 1)))
    else:
        if sizes[0] != len(u_list):
            raise FormatError("%s holds %d u rows, its sidecar lists %d"
                              % (path, sizes[0], len(u_list)))
        columns = (len(theta_list), len(window_angles(window, theta_list)))
        if sizes[1] not in columns:
            raise FormatError("%s stores %d theta columns, not T = %d or the window's %d"
                              % ((path, sizes[1]) + columns))
    if payload.shape[2:] != (ctx.blade_count,) + spec.shape:
        raise FormatError("payload does not match sidecar geometry")
    return CLCSTVolume(
        spec,
        ctx,
        u_list,
        theta_list,
        stored=payload,
        params=params,
        window=window,
        path=meta["path"],
        u_weights=np.asarray(meta["u_weights"]),
    )


def export_spectrogram_csv(path, vol, ui, ti):
    """|S| (coefficient 2-norm) of one (u, theta) slice as CSV rows."""
    mag = np.sqrt(np.sum(vol.rows(ui, ui + 1)[0, vol.column(ti)] ** 2, axis=0))
    header = "u=%s theta=%g" % (vol.u_list[ui].tolist(), vol.theta_list[ti])
    np.savetxt(path, mag.reshape(mag.shape[0], -1), delimiter=",", header=header)
