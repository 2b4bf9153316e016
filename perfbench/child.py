"""One child process of the benchmark.

    child.py MODE WORKLOAD SEED WORKDIR RESULT

Except in check mode, the child first imports clcst and runs `clcst
synthesize`: the set-up, timed from this file's first statement.  Then:

    setup    nothing more.
    plain    the workload's commands after set-up, each timed, through
             clcst.cli.main in this process.
    traced   the same, with every layer function wrapped (tracing.py) from
             before synthesize on.
    check    no timed work: check the outputs the last pass left in WORKDIR.

Measurements go to RESULT as JSON; CLI chatter goes to standard output.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

MODES = ("setup", "plain", "traced", "check")
CHECK_SLICES = 16
SLICE_TOLERANCE = 1e-12  # acceptance criterion 5, direct against three_step
MARGINAL_TOLERANCE = 1e-6  # acceptance criterion 8, intermediate b-sum identity


def file_paths(workdir):
    return {
        "grid": os.path.join(workdir, "input.clcg"),
        "volume": os.path.join(workdir, "volume.clcg"),
        "marginal": os.path.join(workdir, "marginal.clcg"),
        "resolution": os.path.join(workdir, "resolution.clcg"),
    }


def run_command(cli, argv, tracer, label):
    """(seconds, None) on success, else (seconds, one-line failure)."""
    scope = contextlib.nullcontext() if tracer is None else tracer.root("cli." + label)
    start = time.perf_counter()
    try:
        with scope:
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed operation is counted, not fatal
        code = "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    return seconds, None if code in (0, None) else "%s failed: %s" % (label, code)


def run_pipeline(mode, spec, paths):
    import resource

    from clcst import cli

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    commands = [("synthesize", workloads.synthesize_argv(spec, paths))]
    if mode != "setup":
        commands += workloads.pipeline_argvs(spec, paths)
    out = {"seconds": {}, "failures": [], "attempted": 0}
    try:
        for label, argv in commands:
            seconds, failure = run_command(cli, argv, tracer, label)
            out["seconds"][label] = seconds
            out["attempted"] += 1
            if label == "synthesize":
                out["setup_s"] = time.perf_counter() - _START
            if failure is not None:
                out["failures"].append(failure)
                return out
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        out["trace"] = tracing.summarize(tracer)
    if mode != "setup":
        from clcst.grid import rel_l2_error
        from clcst.io import read_grid

        out["volume_bytes"] = (os.path.getsize(paths["volume"])
                               + os.path.getsize(paths["volume"] + ".json"))
        f = read_grid(paths["grid"])
        out["errors"] = {m: rel_l2_error(read_grid(paths[m]), f) for m in spec["reconstruct"]}
        u_list, thetas = expected_lists(spec, f.spec)
        out["slices"] = len(u_list) * len(thetas)
    return out


def expected_lists(spec, grid_spec):
    """The (u, theta) lists the transform should have used, from the library."""
    import numpy as np
    from clcst.volume import DEFAULT_THETAS, default_u_list, tensor_u_list

    u = spec["u_list"]
    if u is None:
        u_list = default_u_list(grid_spec)
    elif u["kind"] == "multiples":
        u_list = tensor_u_list([np.asarray(m, dtype=float) * grid_spec.dw
                                for m in u["per_axis"]])
    else:
        u_list = tensor_u_list(u["per_axis"])
    thetas = DEFAULT_THETAS if spec["thetas"] is None else spec["thetas"]
    return u_list, np.asarray(thetas, dtype=float)


def window(spec, n):
    from clcst.windows import make_window

    w = spec["window"]
    psi = make_window(w["kind"], n, **{k: w[k] for k in ("sigma", "lam") if k in w})
    return psi.normalize_unit_integral() if w["unit_integral"] else psi


def check_outputs(spec, seed, paths):
    """Each check of the last pass's outputs; a tolerance of None means reported only."""
    import platform
    import random
    import warnings

    import numpy as np
    from clcst.cft import cft_forward
    from clcst.grid import chirp_multiply
    from clcst.io import read_grid, read_volume
    from clcst.lct import LCTParams
    from clcst.transform import clcst, marginal_spectrum

    f = read_grid(paths["grid"])
    vol = read_volume(paths["volume"])
    u_list, thetas = expected_lists(spec, f.spec)
    lists_ok = (vol.u_list.shape == u_list.shape and vol.theta_list.shape == thetas.shape
                and np.array_equal(vol.u_list, u_list)
                and np.array_equal(vol.theta_list, thetas))
    results = [("volume u and theta lists match the workload", 0.0 if lists_ok else 1.0, 0.0),
               ("volume values are finite", float(np.sum(~np.isfinite(vol.values))), 0.0)]
    for method in spec["reconstruct"]:
        out = read_grid(paths[method])
        results.append(("%s reconstruction is finite" % method,
                        float(np.sum(~np.isfinite(out.data))), 0.0))
    params = LCTParams(*workloads.M)
    psi = window(spec, f.spec.n)
    if spec["check"] == "slices":
        rng = random.Random(seed)
        pairs = [(rng.randrange(vol.u_count), rng.randrange(vol.theta_count))
                 for _ in range(CHECK_SLICES)]
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the non-unit window warning
            for ui, ti in pairs:
                direct = clcst(f, psi, params, vol.u_list[ui:ui + 1],
                               vol.theta_list[ti:ti + 1], path="direct").values[..., 0, 0]
                written = vol.values[..., ui, ti]
                scale = max(np.max(np.abs(direct)), 1e-300)
                worst = max(worst, float(np.max(np.abs(direct - written)) / scale))
        results.append(("%d sampled slices equal path=direct (relative max)" % CHECK_SLICES,
                        worst, SLICE_TOLERANCE))
    else:
        # On the lattice the b-sum is G(u) = c(u) cft(f chirp)(u), where
        # c(u) = |det A_u| dx^n sum_x psi(A_u x) is the lattice quadrature of
        # the unit window integral (theta = 0).  c differs from 1 where the
        # scaled window is cut by the period (small |u|) or under-resolved
        # (large |u|), so the check holds G = c P; the gap to c = 1 is reported.
        G, _ = marginal_spectrum(vol, params, 0.0)
        P = cft_forward(chirp_multiply(f, params.chirp_rate, +1))
        half = f.spec.samples_per_axis // 2
        mesh = f.spec.mesh()
        c = np.ones(f.spec.shape)
        for u in vol.u_list:
            bin_ = tuple(np.rint(u / f.spec.dw).astype(int) + half)
            scaled = u.reshape((-1,) + (1,) * f.spec.n) * mesh
            c[bin_] = abs(np.prod(u)) * f.spec.cell_weight() * np.sum(psi.evaluate(scaled))
        off_axes = np.ones(f.spec.shape, dtype=bool)
        for axis in range(f.spec.n):
            index = [slice(None)] * f.spec.n
            index[axis] = half
            off_axes[tuple(index)] = False
        scale = np.max(np.abs(P.data))
        exact = np.max(np.abs(G.data - c * P.data)[:, off_axes]) / scale
        unit = np.max(np.abs(G.data - P.data)[:, off_axes]) / scale
        results.append(("b-sum marginal spectrum equals c(u) cft(f chirp) off the axis planes",
                        float(exact), MARGINAL_TOLERANCE))
        results.append(("b-sum marginal spectrum against cft(f chirp), c(u) = 1 assumed",
                        float(unit), None))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = "python %s, numpy %s, %s %s" % (platform.python_version(), np.__version__,
                                               blas.get("name"), blas.get("version"))
    return {"checks": [{"name": n, "measured": m, "tolerance": t} for n, m, t in results],
            "versions": versions}


def main(argv):
    if len(argv) != 5 or argv[0] not in MODES:
        raise SystemExit(__doc__)
    mode, name, seed, workdir, result_path = argv[0], argv[1], int(argv[2]), argv[3], argv[4]
    spec = workloads.workload(name, seed)
    paths = file_paths(workdir)
    if mode == "check":
        try:
            out = check_outputs(spec, seed, paths)
        except Exception as exc:  # a check that cannot run counts as a miss
            out = {"checks": [{"name": "output checks raised %s: %s" % (type(exc).__name__, exc),
                               "measured": float("inf"), "tolerance": 0.0}]}
    else:
        out = run_pipeline(mode, spec, paths)
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
