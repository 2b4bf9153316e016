"""Bit-exact binary container for grid signals and transform volumes.

Layout (little-endian):

    magic "CLCG" | version u16 | n u16 | axis_count u16 |
    per-axis sizes u32[axis_count] | blade_count u32 |
    payload float64, blade-major then row-major over the axes

A JSON sidecar at <path>.json carries the lattice geometry and, for
volumes, the (u, theta) lists, parameter matrix, window, weights, and the
evaluation-path tag.
"""

import json
import struct

import numpy as np

from .algebra import algebra
from .grid import GridSignal, GridSpec
from .lct import LCTParams
from .volume import CLCSTVolume
from .windows import CompositeWindow, DOGWindow, GaussianWindow

MAGIC = b"CLCG"
VERSION = 1


class FormatError(Exception):
    pass


def _write_container(path, axes_sizes, blade_count, n, payload):
    header = MAGIC + struct.pack("<HHH", VERSION, n, len(axes_sizes))
    header += struct.pack("<%dI" % len(axes_sizes), *axes_sizes)
    header += struct.pack("<I", blade_count)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def _read_container(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FormatError("bad magic in %s" % path)
    try:
        version, n, axis_count = struct.unpack_from("<HHH", raw, 4)
        if version != VERSION:
            raise FormatError("unsupported format version %d" % version)
        offset = 10
        sizes = struct.unpack_from("<%dI" % axis_count, raw, offset)
        offset += 4 * axis_count
        (blade_count,) = struct.unpack_from("<I", raw, offset)
    except struct.error as exc:
        raise FormatError("truncated header in %s: %s" % (path, exc)) from None
    offset += 4
    count = blade_count * int(np.prod(sizes))
    if len(raw) != offset + 8 * count:
        raise FormatError(
            "%s holds %d payload bytes, the header declares %d" % (path, len(raw) - offset, 8 * count)
        )
    payload = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return n, sizes, blade_count, payload.reshape((blade_count,) + tuple(sizes))


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
    n, sizes, blade_count, payload = _read_container(path)
    with open(_sidecar(path)) as fh:
        meta = json.load(fh)
    if meta.get("kind") != "grid":
        raise FormatError("%s is not a grid file" % path)
    spec = GridSpec(meta["n"], meta["half_width"], meta["samples_per_axis"])
    ctx = algebra(meta["n"], meta["metric_sign"])
    if (blade_count, sizes) != (ctx.blade_count, spec.shape):
        raise FormatError("payload does not match sidecar geometry")
    return GridSignal(spec, ctx, payload.copy(), meta["domain"])


def write_volume(path, vol):
    axes = vol.spec.shape + (vol.u_count, vol.theta_count)
    _write_container(path, axes, vol.ctx.blade_count, vol.spec.n, vol.values)
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


def read_volume(path):
    n, sizes, blade_count, payload = _read_container(path)
    with open(_sidecar(path)) as fh:
        meta = json.load(fh)
    if meta.get("kind") != "volume":
        raise FormatError("%s is not a volume file" % path)
    g = meta["grid"]
    spec = GridSpec(g["n"], g["half_width"], g["samples_per_axis"])
    ctx = algebra(g["n"], g["metric_sign"])
    params = LCTParams(*meta["params"]) if meta["params"] else None
    window = window_from_meta(meta["window"], g["n"])
    return CLCSTVolume(
        spec,
        ctx,
        np.asarray(meta["u_list"]),
        np.asarray(meta["theta_list"]),
        values=payload.copy(),
        params=params,
        window=window,
        path=meta["path"],
        u_weights=np.asarray(meta["u_weights"]),
    )


def export_spectrogram_csv(path, vol, ui, ti):
    """|S| (coefficient 2-norm) of one (u, theta) slice as CSV rows."""
    mag = np.sqrt(np.sum(vol.values[..., ui, ti] ** 2, axis=0))
    header = "u=%s theta=%g" % (vol.u_list[ui].tolist(), vol.theta_list[ti])
    np.savetxt(path, mag.reshape(mag.shape[0], -1), delimiter=",", header=header)
