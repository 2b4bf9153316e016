"""Batch front end: synthesis, transforms, verification, reconstruction, I/O.

All run parameters live in one JSON-serializable configuration; a
``--config file.json`` overrides every flag, so batch runs are fully
reproducible from a single document.
"""

import argparse
import json
import sys
import time
import warnings

import numpy as np

from .algebra import transform_algebra
from .grid import GridSignal, GridSpec, phase_multiply, sample
from .io import (
    export_spectrogram_csv,
    read_grid,
    read_volume,
    write_grid,
    write_volume,
)
from .lct import LCTParams
from .stockwell import NonUnitWindowWarning, Rotation, ScalingMatrix
from .transform import (
    admissibility_profile,
    clcst,
    clcst_kernel,
    reconstruct_marginal,
    reconstruct_resolution,
)
from .verify import run_suites
from .volume import DEFAULT_THETAS, default_u_list, tensor_u_list
from .windows import make_window


def _parse_vector(text, n):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != n:
        raise SystemExit("expected %d comma-separated values, got %r" % (n, text))
    return np.array(parts)


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


def _window(cfg):
    w = cfg["window"]
    params = {}
    if w["kind"] == "gaussian":
        params["sigma"] = w.get("sigma", 1.0)
    elif w["kind"] == "dog":
        params["lam"] = w.get("lam", 0.5)
    win = make_window(w["kind"], cfg["n"], **params)
    if w.get("normalization") == "unit-integral":
        win = win.normalize_unit_integral()
    return win


def _u_list(cfg, spec):
    u = cfg.get("u_list", {"kind": "default"})
    if isinstance(u, list):
        return np.asarray(u, dtype=np.float64)
    kind = u.get("kind", "default")
    if kind == "default":
        return default_u_list(spec)
    if kind == "multiples":
        dw = spec.dw
        per_axis = [np.asarray(m, dtype=np.float64) * dw for m in u["per_axis"]]
        return tensor_u_list(per_axis)
    if kind == "tensor":
        return tensor_u_list(u["per_axis"])
    raise SystemExit("unknown u_list kind %r" % kind)


def _merge(base, override):
    """base with override laid over it; nested dicts merge key by key."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merge(out[key], value)
        out[key] = value
    return out


def _load_config(args, base):
    if not getattr(args, "config", None):
        return dict(base)
    with open(args.config) as fh:
        return _merge(base, json.load(fh))


def cmd_synthesize(args):
    cfg = _load_config(
        args,
        {
            "n": args.n,
            "grid": {"L": args.half_width, "N": args.samples},
            "kind": args.kind,
            "sigma": args.sigma,
            "rate": args.rate,
            "components": args.components,
            "seed": args.seed,
        },
    )
    spec = _grid_spec(cfg)
    ctx = transform_algebra(spec.n)
    kind = cfg["kind"]
    if kind == "example1":
        if spec.n != 2:
            raise SystemExit("example1 is the two-dimensional reference signal")
        signal = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), spec, ctx)
    elif kind == "gaussian":
        s = cfg["sigma"]
        signal = sample(lambda x: np.exp(-np.sum(x**2, axis=0) / (2 * s**2)), spec, ctx)
    elif kind == "gaussian_mixture":
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
        ones = sample(lambda x: np.ones(x.shape[1:]), spec, ctx)
        signal = phase_multiply(ones, cfg["rate"] * spec.squared_radius())
    else:
        raise SystemExit("unknown synthesis kind %r" % kind)
    write_grid(args.out, signal)
    print("wrote %s (%s, n=%d, N=%d)" % (args.out, kind, spec.n, spec.samples_per_axis))
    return 0


def cmd_transform(args):
    signal = read_grid(args.input)
    cfg = _load_config(
        args,
        {
            "n": signal.spec.n,
            "grid": {"L": signal.spec.half_width, "N": signal.spec.samples_per_axis},
            "M": {"A": args.A, "B": args.B, "C": args.C, "D": args.D},
            "window": {
                "kind": args.window,
                "sigma": args.sigma,
                "lam": args.lam,
                "normalization": "unit-integral" if args.normalize else "raw",
            },
            "u_list": json.loads(args.u_list) if args.u_list else {"kind": "default"},
            "theta_list": [float(t) for t in args.theta.split(",")] if args.theta else list(DEFAULT_THETAS),
            "path": args.path,
        },
    )
    m = cfg["M"]
    params = LCTParams(m["A"], m["B"], m["C"], m["D"])
    spec = _grid_spec(cfg)
    if spec.shape != signal.spec.shape or spec.n != signal.spec.n:
        raise SystemExit("config grid does not match the input file")
    window = _window(cfg)
    u_list = _u_list(cfg, signal.spec)
    theta_list = cfg["theta_list"]
    if args.spectrogram:
        index = _spectrogram_index(
            args.spectrogram_index, np.size(u_list) // spec.n, np.size(theta_list)
        )
    report = {"path": cfg["path"], "warnings": [], "config": cfg}
    if not np.any(signal.data):
        report["warnings"].append("zero input")
    threshold = cfg.get("boundary_mass_threshold", 1e-10)
    ratio = signal.boundary_mass_ratio()
    if np.any(signal.data) and ratio > threshold:
        report["warnings"].append(
            "boundary shell carries %.2e of the signal energy (threshold %.0e); "
            "periodic evaluation may differ from the open-domain transform" % (ratio, threshold)
        )
    if params.is_cft_point():
        report["warnings"].append("degenerates to CST")
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vol = clcst(signal, window, params, u_list, theta_list, path=cfg["path"])
        report["warnings"].extend(
            str(w.message) for w in caught if issubclass(w.category, NonUnitWindowWarning)
        )
    report["transform_seconds"] = time.perf_counter() - start
    # the profile of the windows the transform pass evaluated
    report["admissibility"] = vol.admissibility[1]
    report["volume_bytes"] = write_volume(args.out, vol)
    report["volume_file"] = args.out
    report["stored_theta_columns"] = vol.stored_theta_columns
    if args.spectrogram:
        export_spectrogram_csv(args.spectrogram, vol, *index)
        report["spectrogram_file"] = args.spectrogram
    report_path = args.report or args.out + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
    print("wrote %s and %s" % (args.out, report_path))
    return 0


def cmd_verify(args):
    names = [s.strip() for s in args.suite.split(",")]
    results, all_passed = run_suites(names)
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
    report = {}
    if args.method == "marginal":
        out, info = reconstruct_marginal(vol, vol.params, args.theta, strict=not args.no_strict)
        report.update(info)
    else:
        profile, stats = admissibility_profile(
            vol.window, vol.params, vol.spec, vol.ctx, vol.u_list, vol.theta_list
        )
        report["admissibility"] = stats
        out = reconstruct_resolution(vol, vol.window, vol.params, stats["mean"])
    write_grid(args.out, out)
    report_path = args.out + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
    print("wrote %s and %s" % (args.out, report_path))
    return 0


def cmd_kernel_dump(args):
    cfg = _load_config(
        args,
        {
            "n": args.n,
            "grid": {"L": args.half_width, "N": args.samples},
            "M": {"A": args.A, "B": args.B, "C": args.C, "D": args.D},
            "window": {
                "kind": args.window,
                "sigma": args.sigma,
                "lam": args.lam,
                "normalization": "unit-integral" if args.normalize else "raw",
            },
        },
    )
    spec = _grid_spec(cfg)
    ctx = transform_algebra(spec.n)
    m = cfg["M"]
    params = LCTParams(m["A"], m["B"], m["C"], m["D"])
    window = _window(cfg)
    b = _parse_vector(args.b, spec.n)
    u = _parse_vector(args.u, spec.n)
    kernel = clcst_kernel(
        window, params, spec, ctx, b, ScalingMatrix(u), Rotation(args.theta)
    )
    write_grid(args.out, kernel)
    print("wrote %s" % args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clcst",
        description="Clifford-valued linear canonical Stockwell transform toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="write a reference signal to a grid file")
    syn.add_argument("--kind", default="gaussian",
                     choices=["gaussian", "gaussian_mixture", "chirp", "example1"])
    syn.add_argument("--n", type=int, default=2)
    syn.add_argument("--half-width", type=float, default=6.0)
    syn.add_argument("--samples", type=int, default=64)
    syn.add_argument("--sigma", type=float, default=1.0)
    syn.add_argument("--rate", type=float, default=0.5)
    syn.add_argument("--components", type=int, default=3)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--config")
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=cmd_synthesize)

    tra = sub.add_parser("transform", help="run the transform on a grid file")
    tra.add_argument("--input", required=True)
    tra.add_argument("--A", type=float, default=0.0)
    tra.add_argument("--B", type=float, default=1.0)
    tra.add_argument("--C", type=float, default=-1.0)
    tra.add_argument("--D", type=float, default=0.0)
    tra.add_argument("--window", default="gaussian", choices=["gaussian", "dog"])
    tra.add_argument("--sigma", type=float, default=1.0)
    tra.add_argument("--lam", type=float, default=0.5)
    tra.add_argument("--normalize", action="store_true",
                     help="scale the window to unit integral")
    tra.add_argument("--u-list", help="JSON u-list spec, e.g. '{\"kind\": \"default\"}'")
    tra.add_argument("--theta", help="comma-separated angles (default 0, pi/4, pi/2)")
    tra.add_argument("--path", default="three_step", choices=["direct", "three_step", "spectral"])
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
    rec.add_argument("--no-strict", action="store_true",
                     help="tolerate a window without unit integral")
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_reconstruct)

    ker = sub.add_parser("kernel-dump", help="write one analysis kernel to a grid file")
    ker.add_argument("--n", type=int, default=2)
    ker.add_argument("--half-width", type=float, default=6.0)
    ker.add_argument("--samples", type=int, default=64)
    ker.add_argument("--A", type=float, default=0.0)
    ker.add_argument("--B", type=float, default=1.0)
    ker.add_argument("--C", type=float, default=-1.0)
    ker.add_argument("--D", type=float, default=0.0)
    ker.add_argument("--window", default="gaussian", choices=["gaussian", "dog"])
    ker.add_argument("--sigma", type=float, default=1.0)
    ker.add_argument("--lam", type=float, default=0.5)
    ker.add_argument("--normalize", action="store_true")
    ker.add_argument("--b", default="0,0")
    ker.add_argument("--u", default="1,1")
    ker.add_argument("--theta", type=float, default=0.0)
    ker.add_argument("--config")
    ker.add_argument("--out", required=True)
    ker.set_defaults(func=cmd_kernel_dump)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
