"""Batch front end: synthesis, transforms, verification, reconstruction, I/O.

``synthesize``, ``transform`` and ``kernel-dump`` take their run parameters
from flags whose ``dest`` is ``cfg:`` plus the key path of the setting
(``cfg:grid.L`` for ``--half-width``), so each setting is declared once.
:func:`_config` nests those values into one JSON-serializable configuration
and lays ``--config file.json`` over it key by key, refusing any key that
names no setting and any value of another type than its flag reads or
outside its flag's choices, so those runs are reproducible from a single
document.
File paths, ``transform``'s spectrogram and report flags and
``kernel-dump``'s ``--b``, ``--u`` and ``--theta`` stay flags; ``verify`` and
``reconstruct`` take no configuration file.
"""

import argparse
import json
import math
import resource
import sys
import time
import warnings

import numpy as np

from .algebra import AlgebraError, transform_algebra
from .grid import GridError, GridSignal, GridSpec, chirp_multiply, sample
from .io import (  # write_volume stays importable here for call tracing
    FormatError,
    export_spectrogram_csv,
    read_grid,
    read_volume,
    volume_writer,
    write_grid,
    write_volume,
)
from .lct import LCTError, LCTParams
from .stockwell import NonUnitWindowWarning, Rotation, ScalingMatrix, StockwellError
from .transform import (  # admissibility_profile stays importable here for call tracing
    TransformError,
    admissibility_profile,
    clcst,
    clcst_kernel,
    reconstruct_marginal,
    reconstruct_resolution,
)
from .volume import DEFAULT_THETAS, default_u_list, tensor_u_list
from .windows import RAW, UNIT_INTEGRAL, WINDOWS, WindowError, _squared_scale, make_window


def _float_list(text):
    return [float(t) for t in text.split(",")]


def _vector(values, n, fill, flag):
    """The vector of flag --b or --u, n finite values; n copies of fill when
    the flag is omitted."""
    if values is not None and (len(values) != n or not all(map(math.isfinite, values))):
        raise SystemExit("%s expects %d comma-separated finite values, got %r" % (flag, n, values))
    return np.full(n, fill) if values is None else np.array(values)


def _spectrogram_index(text, u_count, theta_count):
    """The (ui, ti) of --spectrogram-index, refused unless it lies in [0, U) x [0, T)."""
    try:
        ui, ti = (int(v) for v in text.split(","))
    except ValueError:
        raise SystemExit("--spectrogram-index expects 'ui,ti', got %r" % text) from None
    if not (0 <= ui < u_count and 0 <= ti < theta_count):
        raise SystemExit(
            "--spectrogram-index %d,%d is outside [0, U) x [0, T) with U = %d, T = %d"
            % (ui, ti, u_count, theta_count)
        )
    return ui, ti


def _grid_spec(cfg):
    if cfg["n"] not in (2, 3):
        raise SystemExit("the command line supports n = 2 or 3 (core: any n = 2,3 mod 4)")
    return GridSpec(cfg["n"], cfg["grid"]["L"], cfg["grid"]["N"])


def _window(w, n):
    norm = w["normalization"]
    if norm not in (RAW, UNIT_INTEGRAL):
        raise SystemExit("config window.normalization %r is not 'raw' or 'unit-integral'" % (norm,))
    win = make_window(n=n, **w)  # the kind takes the settings it declares
    return win.normalize_unit_integral() if norm == UNIT_INTEGRAL else win


def _u_list(u, spec):
    """The u array of a u_list setting: a list of rows of n numbers (or one
    such row), or an object naming its kind, whose per_axis is a list of
    lists of numbers.  Every number must be finite and not a bool; anything
    else is refused in one line that names --u-list."""
    if isinstance(u, list):
        rows = u if u and all(isinstance(row, list) for row in u) else [u]
        for i, row in enumerate(rows):
            _u_numbers(row, "row %d" % i)
            if len(row) != spec.n:
                raise SystemExit("--u-list must hold rows of n = %d numbers; row %d is %r"
                                 % (spec.n, i, row))
        return np.asarray(u, dtype=np.float64)
    kind = u.get("kind", "default") if isinstance(u, dict) else None
    if kind == "default":
        if spec.samples_per_axis < 4:
            raise SystemExit("the default u list is empty at N = %d samples per axis: it needs "
                             "N >= 4, or an explicit --u-list" % spec.samples_per_axis)
        return default_u_list(spec)
    if kind in ("multiples", "tensor") and "per_axis" in u:
        per_axis = u["per_axis"]
        if not isinstance(per_axis, list):
            raise SystemExit("--u-list per_axis must be a list of lists of numbers, got %r"
                             % (per_axis,))
        for axis, values in enumerate(per_axis):
            _u_numbers(values, "per_axis[%d]" % axis)
        scale = spec.dw if kind == "multiples" else 1.0
        return tensor_u_list([np.multiply(m, scale) for m in per_axis])
    raise SystemExit("--u-list (config u_list) must be a list of rows or an object of kind "
                     "default, or of kind multiples or tensor with per_axis; got %r" % (u,))


def _u_numbers(values, where):
    """Refuse, in one line, a part of --u-list that is not a list of finite
    numbers: a bool, a string or a list in it is not a number."""
    if not isinstance(values, list):
        raise SystemExit("--u-list %s must be a list of numbers, got %r" % (where, values))
    for value in values:
        if not _number(value):
            raise SystemExit("--u-list %s holds %r, which is not a number" % (where, value))
        if not math.isfinite(_float(value, "--u-list " + where)):
            raise SystemExit("--u-list %s holds %r, which is not finite" % (where, value))


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value, where):
    """float(value), refused in one line that names ``where`` for an integer
    past the float range, which is not finite."""
    try:
        return float(value)
    except OverflowError:
        raise SystemExit("%s holds %r, which is not finite" % (where, value)) from None


def _file_value(path, action, value):
    """A --config value at key path as its flag gives it: of the JSON type
    the flag's ``type`` reads, converted by it, and among its ``choices``."""
    kind = action.type
    if kind is json.loads:
        ok = True
    elif kind is _float_list:
        ok = isinstance(value, list) and all(_number(v) for v in value)
        value = [_float(v, "config " + path) for v in value] if ok else value
    elif kind in (int, float):
        ok = _number(value) and (kind is float or isinstance(value, int))
        value = _float(value, "config " + path) if ok and kind is float else value
    else:
        ok = isinstance(value, str)
    if not ok:
        expected = {int: "an integer", float: "a number", _float_list: "a list of numbers"}
        raise SystemExit("config %s must be %s, got %r"
                         % (path, expected.get(kind, "a string"), value))
    if action.choices is not None and value not in action.choices:
        raise SystemExit("config %s must be one of %s, got %r"
                         % (path, ", ".join(action.choices), value))
    return value


def _merge(flat, doc, settings, prefix=""):
    """Lay the JSON object doc over flat, whose keys are dotted key paths.

    A key of doc names a setting, whose value it replaces whole after the
    setting's flag action in ``settings`` has checked it, or a section, whose
    object merges key by key; any other key is refused.
    """
    if not isinstance(doc, dict):
        raise SystemExit("config %s must be an object, got %r" % (prefix[:-1] or "file", doc))
    for key, value in doc.items():
        path = prefix + key
        if path in flat and "." not in key:
            flat[path] = _file_value(path, settings[path], value)
        elif "." not in key and any(k.startswith(path + ".") for k in flat):
            _merge(flat, value, settings, path + ".")
        else:
            raise SystemExit("unknown config key %r" % path)


def _config(args):
    """The nested run configuration: every ``cfg:`` flag's value at its key
    path, with the --config file laid over it."""
    flat = {dest[4:]: value for dest, value in vars(args).items() if dest.startswith("cfg:")}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SystemExit("config file %s is not UTF-8 JSON: %s" % (args.config, exc)) from None
        _merge(flat, doc, args.settings)
    cfg = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        node = cfg
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
    return cfg


def _json_value(value):
    """A report value that json does not write: a u array as its rows, any
    other numpy number as a float."""
    return value.tolist() if isinstance(value, np.ndarray) else float(value)


def _peak_rss_mb():
    """The process's peak resident set so far, in 10^6 bytes (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cmd_synthesize(args):
    cfg = _config(args)
    spec = _grid_spec(cfg)
    ctx = transform_algebra(spec.n)
    kind = cfg["kind"]
    if kind == "example1":
        if spec.n != 2:
            raise SystemExit("example1 is the two-dimensional reference signal")
        signal = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), spec, ctx)
    elif kind == "gaussian":
        s = cfg["sigma"]
        if not 0 < s < np.inf:
            raise SystemExit("--sigma must be positive and finite, got %r" % s)
        _squared_scale("sigma", s)  # the samples divide by 2 sigma^2
        signal = sample(lambda x: np.exp(-np.sum(x**2, axis=0) / (2 * s**2)), spec, ctx)
    elif kind == "gaussian_mixture":
        if cfg["components"] < 1:
            raise SystemExit("--components must be at least 1, got %r" % cfg["components"])
        if cfg["seed"] < 0:
            raise SystemExit("--seed must be non-negative, got %r" % cfg["seed"])
        rng = np.random.default_rng(cfg["seed"])
        mesh = spec.mesh()
        vals = np.zeros(spec.shape)
        for _ in range(cfg["components"]):
            center = rng.uniform(-1.5, 1.5, size=spec.n).reshape((-1,) + (1,) * spec.n)
            vals += rng.standard_normal() * np.exp(
                -np.sum((mesh - center) ** 2, axis=0) / rng.uniform(0.5, 1.5)
            )
        signal = GridSignal.from_scalar(spec, ctx, vals)
    elif kind == "chirp":
        # as the transform's chirp: largest |x|^2 = n L^2, overflowing to inf
        if cfg["rate"] and not np.isfinite(
                cfg["rate"] * spec.n * (spec.half_width * spec.half_width)):
            raise SystemExit("--rate must be finite, and so must its chirp phase rate |x|^2 on "
                             "the lattice: got --rate %r at --half-width %r"
                             % (cfg["rate"], spec.half_width))
        ones = sample(lambda x: np.ones(x.shape[1:]), spec, ctx)
        signal = chirp_multiply(ones, cfg["rate"])  # at rate 0 the ones, with no 0 x inf phase
    else:
        raise SystemExit("unknown synthesis kind %r" % kind)
    write_grid(args.out, signal)
    print("wrote %s (%s, n=%d, N=%d)" % (args.out, kind, spec.n, spec.samples_per_axis))
    return 0


def cmd_transform(args):
    cfg = _config(args)
    signal = read_grid(args.input)
    spec = signal.spec
    params = LCTParams(**cfg["M"])
    window = _window(cfg["window"], spec.n)
    u_list = _u_list(cfg["u_list"], spec)
    if isinstance(cfg["u_list"], list):
        # the report writes listed rows from the array: their parsed lists,
        # some 140 bytes a row, are not held through the transform
        cfg["u_list"] = u_list
        vars(args).pop("cfg:u_list", None)
    theta_list = cfg["theta_list"]
    if args.spectrogram:
        index = _spectrogram_index(
            args.spectrogram_index, np.size(u_list) // spec.n, np.size(theta_list)
        )
    report = {"path": cfg["path"], "warnings": [], "config": cfg}
    if not np.any(signal.data):
        report["warnings"].append("zero input")
    threshold = 1e-10  # share of the signal energy in the outermost lattice shell
    ratio = signal.boundary_mass_ratio()
    if np.any(signal.data) and ratio > threshold:
        report["warnings"].append(
            "boundary shell carries %.2e of the signal energy (threshold %.0e); "
            "periodic evaluation may differ from the open-domain transform" % (ratio, threshold)
        )
    if params.is_cft_point():
        report["warnings"].append("degenerates to CST")
    # the engine drops the signal's blades once it has packed their live
    # pairs, so no name here outlives the call: it is handed over
    handed = [signal]
    del signal
    # the volume streams u-block by u-block into --out as the engine
    # finishes each block; the whole volume is never held
    start = time.perf_counter()
    with volume_writer(args.out) as writer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vol = clcst(handed.pop(), window, params, u_list, theta_list, path=cfg["path"],
                    sink=writer.begin)
    report["warnings"].extend(
        str(w.message) for w in caught if issubclass(w.category, NonUnitWindowWarning)
    )
    report["transform_seconds"] = time.perf_counter() - start
    # the chirp e^{i_n A|x|^2/2B} peaks at per-axis frequency |A/B| L, which
    # the lattice resolves below its Nyquist pi/dx (Koc et al., IEEE TSP 2008)
    margin = np.pi / spec.dx - abs(params.A / params.B) * spec.half_width
    report["chirp_aliasing_margin"] = margin
    if margin <= 0.0:
        report["warnings"].append(
            "chirp frequency |A/B| L = %.3g reaches the lattice Nyquist pi/dx = %.3g; "
            "the chirped signal aliases" % (np.pi / spec.dx - margin, np.pi / spec.dx)
        )
    # the profile of the windows the transform pass used
    report["admissibility"] = vol.admissibility[1]
    report["volume_bytes"] = writer.bytes
    report["volume_file"] = args.out
    report["stored_theta_columns"] = vol.stored_theta_columns
    if args.spectrogram:
        export_spectrogram_csv(args.spectrogram, read_volume(args.out), *index)
        report["spectrogram_file"] = args.spectrogram
    report["peak_rss_mb"] = _peak_rss_mb()
    report_path = args.report or args.out + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=_json_value)
    print("wrote %s and %s" % (args.out, report_path))
    return 0


def cmd_verify(args):
    from .verify import UnknownSuite, run_suites  # the check registry loads only for this command

    try:
        results, all_passed = run_suites([s.strip() for s in args.suite.split(",")])
    except UnknownSuite as exc:
        raise SystemExit("clcst verify: %s" % exc) from None
    payload = {
        "suites": results,
        "all_passed": all_passed,
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    for suite, checks in results.items():
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            criterion = "-" if c["criterion"] is None else c["criterion"]
            print(
                "%-2s %-40s  measured %.3e  tolerance %.1e  %s"
                % (criterion, "%s: %s" % (suite, c["name"]), c["measured"], c["tolerance"], status),
                file=sys.stderr,
            )
    return 0 if all_passed else 1


def cmd_reconstruct(args):
    vol = read_volume(args.volume)
    if vol.params is None:
        raise SystemExit("volume carries no parameter matrix")
    if args.method == "resolution" and vol.window is None:
        raise SystemExit("volume carries no window; the resolution synthesis needs one")
    report = {}
    if args.method == "marginal":
        out, info = reconstruct_marginal(vol, vol.params, args.theta)
        report.update(info)
    else:
        # C_psi is the mean of the profile the synthesis pass accumulates
        out, (_, report["admissibility"]) = reconstruct_resolution(vol, vol.window, vol.params)
    write_grid(args.out, out)
    report["peak_rss_mb"] = _peak_rss_mb()
    report_path = args.out + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
    print("wrote %s and %s" % (args.out, report_path))
    return 0


def cmd_kernel_dump(args):
    cfg = _config(args)
    spec = _grid_spec(cfg)
    ctx = transform_algebra(spec.n)
    params = LCTParams(**cfg["M"])
    window = _window(cfg["window"], spec.n)
    b = _vector(args.b, spec.n, 0.0, "--b")
    u = _vector(args.u, spec.n, 1.0, "--u")
    if not math.isfinite(args.theta):
        raise SystemExit("--theta must be finite, got %r" % args.theta)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below in one line
        kernel = clcst_kernel(
            window, params, spec, ctx, b, ScalingMatrix(u), Rotation(args.theta)
        )
    if not np.all(np.isfinite(kernel.data)):
        raise SystemExit("the kernel at b = %s, u = %s has non-finite samples"
                         % (b.tolist(), u.tolist()))
    write_grid(args.out, kernel)
    print("wrote %s" % args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clcst",
        description="Clifford-valued linear canonical Stockwell transform toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags whose dest starts with "cfg:" are settings; the rest is the key path
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--n", dest="cfg:n", type=int, default=2)
    lattice.add_argument("--half-width", dest="cfg:grid.L", type=float, default=6.0)
    lattice.add_argument("--samples", dest="cfg:grid.N", type=int, default=64)
    lattice.add_argument("--config")
    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("--A", dest="cfg:M.A", type=float, default=0.0)
    analysis.add_argument("--B", dest="cfg:M.B", type=float, default=1.0)
    analysis.add_argument("--C", dest="cfg:M.C", type=float, default=-1.0)
    analysis.add_argument("--D", dest="cfg:M.D", type=float, default=0.0)
    analysis.add_argument("--window", dest="cfg:window.kind", default="gaussian",
                          choices=list(WINDOWS))
    analysis.add_argument("--sigma", dest="cfg:window.sigma", type=float, default=1.0)
    analysis.add_argument("--lam", dest="cfg:window.lam", type=float, default=0.5)
    analysis.add_argument("--normalize", dest="cfg:window.normalization", action="store_const",
                          const=UNIT_INTEGRAL, default=RAW,
                          help="scale the window to unit integral")

    syn = sub.add_parser("synthesize", parents=[lattice],
                         help="write a reference signal to a grid file")
    syn.add_argument("--kind", dest="cfg:kind", default="gaussian",
                     choices=["gaussian", "gaussian_mixture", "chirp", "example1"])
    syn.add_argument("--sigma", dest="cfg:sigma", type=float, default=1.0)
    syn.add_argument("--rate", dest="cfg:rate", type=float, default=0.5)
    syn.add_argument("--components", dest="cfg:components", type=int, default=3)
    syn.add_argument("--seed", dest="cfg:seed", type=int, default=0)
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=cmd_synthesize)

    tra = sub.add_parser("transform", parents=[analysis], help="run the transform on a grid file")
    tra.add_argument("--input", required=True)
    tra.add_argument("--u-list", dest="cfg:u_list", type=json.loads, default={"kind": "default"},
                     help="JSON u-list spec, e.g. '{\"kind\": \"default\"}'")
    tra.add_argument("--theta", dest="cfg:theta_list", type=_float_list,
                     default=list(DEFAULT_THETAS),
                     help="comma-separated angles (default 0, pi/4, pi/2)")
    tra.add_argument("--path", dest="cfg:path", default="three_step",
                     choices=["direct", "three_step", "spectral"])
    tra.add_argument("--spectrogram", help="optional CSV path for one |S| slice")
    tra.add_argument("--spectrogram-index", default="0,0", help="ui,ti for the CSV slice")
    tra.add_argument("--report", help="report JSON path (default <out>.report.json)")
    tra.add_argument("--config")
    tra.add_argument("--out", required=True)
    tra.set_defaults(func=cmd_transform)

    ver = sub.add_parser("verify", help="run property suites and report JSON results")
    ver.add_argument("--suite", default="all",
                     help="comma-separated: algebra, cft, clct, cst, clcst, reconstruction, example1, all")
    ver.add_argument("--out", help="write the JSON report here instead of stdout")
    ver.set_defaults(func=cmd_verify)

    rec = sub.add_parser("reconstruct", help="invert a stored transform volume")
    rec.add_argument("--volume", required=True)
    rec.add_argument("--method", default="marginal", choices=["marginal", "resolution"])
    rec.add_argument("--theta", type=float, default=0.0)
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_reconstruct)

    ker = sub.add_parser("kernel-dump", parents=[lattice, analysis],
                         help="write one analysis kernel to a grid file")
    ker.add_argument("--b", type=_float_list, help="comma-separated translation (default 0)")
    ker.add_argument("--u", type=_float_list, help="comma-separated scaling (default all 1)")
    ker.add_argument("--theta", type=float, default=0.0)
    ker.add_argument("--out", required=True)
    ker.set_defaults(func=cmd_kernel_dump)
    for command in sub.choices.values():  # each setting's flag checks its --config value
        command.set_defaults(settings={a.dest[4:]: a for a in command._actions
                                       if a.dest.startswith("cfg:")})
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, FormatError, GridError, LCTError, MemoryError, OSError,
            StockwellError, TransformError, WindowError) as exc:
        # numpy's MemoryError names the size it could not allocate
        raise SystemExit("clcst %s: %s" % (args.command, str(exc) or type(exc).__name__)) from None


if __name__ == "__main__":
    sys.exit(main())
