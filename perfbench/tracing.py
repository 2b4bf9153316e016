"""Per-layer spans recorded from outside `clcst`, by wrapping its functions.

Nothing in the package changes: `install` replaces each target function by a
wrapper at the name through which other modules call it, and at every other
binding of the same function object inside `clcst` and `numpy.fft`, then
`uninstall` puts the originals back.  A target name that no longer exists
raises `TraceError`, so a refactor cannot silently drop a layer from the
breakdown.

Each wrapper records a span (name, start, end, parent) in memory; self time
is a span's duration minus the durations of its direct children.  Counts
(FFT points, window points, modulated points, payload bytes) are computed
from array sizes, so they are exact and repeat between runs of the same
commit and seed.
"""

import contextlib
import functools
import importlib
import sys
import time

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class TraceError(RuntimeError):
    pass


def _size(shape):
    out = 1
    for s in shape:
        out *= int(s)
    return out


def _fft_points(args, kwargs, result):
    """Points transformed: the larger of input and output (real or complex)."""
    return max(_size(getattr(args[0], "shape", ())), _size(result.shape))


def _window_points(args, kwargs, result):
    return _size(result.shape)


def _phase_points(args, kwargs, result):
    return _size(result.data.shape[1:])


def _bytes_of_arg(attr):
    def count(args, kwargs, result):
        return getattr(args[1], attr).nbytes
    return count


def _bytes_of_result(attr):
    def count(args, kwargs, result):
        return getattr(result, attr).nbytes
    return count


# (span name, module, attribute path, counter or None).  The module is the
# one whose code calls the function, so the name is the call site's.
TARGETS = (
    ("stockwell.cst_slice", "clcst.transform", "cst_slice", None),
    ("stockwell.plane_wave_multiply", "clcst.stockwell", "plane_wave_multiply", None),
    ("grid.phase_multiply", "clcst.transform", "phase_multiply", _phase_points),
    ("windows.evaluate", "clcst.windows", "WindowSpec.evaluate", _window_points),
    ("cft.cft_forward", "clcst.transform", "cft_forward", None),
    ("cft.cft_inverse", "clcst.transform", "cft_inverse", None),
    ("transform.clcst", "clcst.cli", "clcst", None),
    ("transform.admissibility_profile", "clcst.cli", "admissibility_profile", None),
    ("transform.modulated_window_spectrum", "clcst.transform",
     "modulated_window_spectrum", None),
    ("transform.marginal_spectrum", "clcst.transform", "marginal_spectrum", None),
    ("transform.reconstruct_resolution", "clcst.cli", "reconstruct_resolution", None),
    ("volume.set_slice", "clcst.volume", "CLCSTVolume.set_slice", None),
    ("volume.slice", "clcst.volume", "CLCSTVolume.slice", None),
    ("io.read_grid", "clcst.cli", "read_grid", _bytes_of_result("data")),
    ("io.write_grid", "clcst.cli", "write_grid", _bytes_of_arg("data")),
    ("io.read_volume", "clcst.cli", "read_volume", _bytes_of_result("values")),
    ("io.write_volume", "clcst.cli", "write_volume", _bytes_of_arg("values")),
) + tuple(("fft." + f, "numpy.fft", f, _fft_points) for f in FFT_FUNCTIONS)

LAYERS = ("fft", "stockwell", "grid", "windows", "cft", "transform", "volume", "io")


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counts[name] = counts.get(name, 0) + count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A span with no traced parent: one CLI command."""
        span = [name, time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        if self._patched:
            raise TraceError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "clcst" or key.startswith("clcst."))]
        try:
            for name, module_name, path, count in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None or not callable(fn):
                    raise TraceError(
                        "%s.%s no longer exists; update perfbench/tracing.py TARGETS"
                        % (module_name, path))
                wrapper = self._wrap(name, fn, count)
                self._patch(owner, attr, fn, wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, fn, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapper):
        if getattr(owner, attr) is wrapper:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def summarize(tracer):
    """Per span name: calls, s, self_s; per layer: s, self_s; plus FFT totals.

    A layer's s counts each of its spans not nested in another span of the
    same layer, so nesting is not counted twice; self_s adds the self times.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    root = list(range(len(spans)))
    same_layer_ancestor = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
            p = parent
            while p >= 0 and not same_layer_ancestor[i]:
                same_layer_ancestor[i] = layer_of(spans[p][0]) == layer_of(name)
                p = spans[p][3]
    functions = {}
    layers = {layer: {"s": 0.0, "self_s": 0.0} for layer in LAYERS}
    fft_under_transform = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[i]
        layer = layers.get(layer_of(name))
        if layer is not None:
            layer["self_s"] += duration - child_time[i]
            if not same_layer_ancestor[i]:
                layer["s"] += duration
        if layer_of(name) == "fft" and spans[root[i]][0] == "cli.transform":
            fft_under_transform += duration
    transform_s = sum(e - s for n, s, e, p in spans if n == "cli.transform")
    if transform_s > 0 and fft_under_transform == 0.0:
        raise TraceError("no numpy.fft call was traced inside the transform command; "
                         "the FFT floor is computed elsewhere, update TARGETS")
    fft = {
        "calls": sum(v["calls"] for k, v in functions.items() if layer_of(k) == "fft"),
        "points": sum(v for k, v in tracer.counts.items() if layer_of(k) == "fft"),
        "s": layers["fft"]["s"],
        "share": fft_under_transform / transform_s if transform_s > 0 else 0.0,
    }
    return {"functions": functions, "layers": layers, "fft": fft,
            "counts": dict(tracer.counts), "spans": len(spans)}
