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
"""

import json
import os
import struct

import numpy as np

from .algebra import algebra
from .grid import GridSignal, GridSpec
from .lct import LCTParams
from .volume import CLCSTVolume
from .windows import CompositeWindow, DOGWindow, GaussianWindow, window_angles

MAGIC = b"CLCG"
BLADE_MAJOR = 1  # grid files, and volume files before version 2
SLICE_MAJOR = 2  # volume files


class FormatError(Exception):
    pass


def _write_container(path, version, axes_sizes, blade_count, n, payload):
    header = MAGIC + struct.pack("<HHH", version, n, len(axes_sizes))
    header += struct.pack("<%dI" % len(axes_sizes), *axes_sizes)
    header += struct.pack("<I", blade_count)
    # written from the array's own buffer: no copy for C-ordered little-endian data
    payload = np.ascontiguousarray(payload, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload.reshape(-1)).cast("B"))


def _read_container(path, versions):
    """(version, n, sizes, blade_count, payload), the payload read straight
    into one new array once the file size matches the header."""
    with open(path, "rb") as fh:
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
        offset = fh.tell()
        count = blade_count * int(np.prod(sizes))
        size = os.fstat(fh.fileno()).st_size
        if size != offset + 8 * count:
            raise FormatError("%s holds %d payload bytes, the header declares %d"
                              % (path, size - offset, 8 * count))
        # the blade axis comes first in version 1, after (U, T_s) in version 2
        if version == BLADE_MAJOR:
            shape = (blade_count,) + sizes
        else:
            shape = sizes[:2] + (blade_count,) + sizes[2:]
        payload = np.empty(shape, dtype="<f8")
        if fh.readinto(memoryview(payload.reshape(-1)).cast("B")) != 8 * count:
            raise FormatError("%s ended while its payload was read" % path)
    return version, n, sizes, blade_count, payload


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


def write_grid(path, signal):
    _write_container(
        path,
        BLADE_MAJOR,
        signal.spec.shape,
        signal.ctx.blade_count,
        signal.spec.n,
        signal.data,
    )
    meta = {"kind": "grid"}
    meta.update(_grid_meta(signal.spec, signal.ctx, signal.domain))
    with open(_sidecar(path), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def read_grid(path):
    _, n, sizes, blade_count, payload = _read_container(path, (BLADE_MAJOR,))
    with open(_sidecar(path)) as fh:
        meta = json.load(fh)
    if meta.get("kind") != "grid":
        raise FormatError("%s is not a grid file" % path)
    spec = GridSpec(meta["n"], meta["half_width"], meta["samples_per_axis"])
    ctx = algebra(meta["n"], meta["metric_sign"])
    if (blade_count, sizes) != (ctx.blade_count, spec.shape):
        raise FormatError("payload does not match sidecar geometry")
    return GridSignal(spec, ctx, payload, meta["domain"])


def write_volume(path, vol):
    """Write vol as a version 2 file and its sidecar; returns the bytes of both."""
    axes = (vol.u_count, vol.stored_theta_columns) + vol.spec.shape
    _write_container(path, SLICE_MAJOR, axes, vol.ctx.blade_count, vol.spec.n, vol.stored)
    meta = {
        "kind": "volume",
        "grid": _grid_meta(vol.spec, vol.ctx, "space"),
        "u_list": vol.u_list.tolist(),
        "u_weights": vol.u_weights.tolist(),
        "theta_list": vol.theta_list.tolist(),
        "path": vol.path,
        "params": list(vol.params.as_tuple()) if vol.params else None,
        "window": window_to_meta(vol.window),
    }
    with open(_sidecar(path), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return os.path.getsize(path) + os.path.getsize(_sidecar(path))


def read_volume(path):
    """A version 2 file's payload becomes the stored array as read; a version
    1 file's axes are moved into the stored order once, with T_s = T."""
    version, n, sizes, blade_count, payload = _read_container(path, (BLADE_MAJOR, SLICE_MAJOR))
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
    mag = np.sqrt(np.sum(vol.stored[ui, vol.column(ti)] ** 2, axis=0))
    header = "u=%s theta=%g" % (vol.u_list[ui].tolist(), vol.theta_list[ti])
    np.savetxt(path, mag.reshape(mag.shape[0], -1), delimiter=",", header=header)
