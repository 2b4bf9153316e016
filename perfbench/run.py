"""Benchmark of the clcst command-line pipelines, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from ./src.
Fresh child processes run one at a time: set-up probes (import clcst and
synthesize the input), then passes of the whole pipeline, one child each,
until about S seconds are spent, then one child that checks the outputs.
With --trace 1 untraced and traced passes alternate and the per-layer
metrics are reported instead of the end-to-end ones.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object.  perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
TIME_LIMIT = 170.0  # seconds for the whole run, inside the 180 s allowed
# Single-threaded BLAS: clcst does its work in numpy's single-threaded FFT,
# and an idle OpenBLAS pool only adds noise on a small shared host.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Functions whose time is reported in the JSON: those on every workload's
# path.  cft_inverse, CLCSTVolume.slice, read_volume, marginal_spectrum and
# reconstruct_resolution run only on the round trip; their calls are in the
# JSON and their times are printed.
TIMED = ("stockwell.cst_slice", "stockwell.plane_wave_multiply", "grid.phase_multiply",
         "windows.evaluate", "cft.cft_forward", "transform.clcst",
         "transform.admissibility_profile", "volume.set_slice", "io.read_grid",
         "io.write_grid", "io.write_volume")
COUNTED = ("stockwell.cst_slice", "stockwell.plane_wave_multiply", "grid.phase_multiply",
           "windows.evaluate", "cft.cft_forward", "cft.cft_inverse",
           "transform.modulated_window_spectrum", "transform.marginal_spectrum",
           "transform.reconstruct_resolution", "volume.set_slice", "volume.slice",
           "io.read_volume")
SELF_TIMED = ("stockwell.cst_slice", "transform.clcst", "transform.admissibility_profile")


class BenchError(Exception):
    pass


def child(mode, args, workdir, env, deadline):
    result = os.path.join(workdir, "result.json")
    command = [sys.executable, os.path.join(HERE, "child.py"), mode, args.workload,
               str(args.seed), workdir, result]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the %s child" % mode)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s child timed out after %.0f s" % (mode, timeout))
    if done.returncode != 0:
        raise BenchError("%s child exited with %d:\n%s"
                         % (mode, done.returncode, done.stderr[-4000:]))
    with open(result) as fh:
        return json.load(fh)


def collect(args, workdir, env):
    """Run the children; return (setup probes, passes, check result)."""
    deadline = time.monotonic() + TIME_LIMIT
    setups = [child("setup", args, workdir, env, deadline) for _ in range(SETUP_PROBES)]
    passes = []
    started = time.monotonic()
    longest = 0.0
    while True:
        mode = "traced" if args.trace and len(passes) % 2 == 1 else "plain"
        t0 = time.monotonic()
        p = child(mode, args, workdir, env, deadline)
        longest = max(longest, time.monotonic() - t0)
        p["traced"] = mode == "traced"
        passes.append(p)
        if p["failures"]:
            break
        if len(passes) >= 1 + args.trace and time.monotonic() - started + longest > args.seconds:
            break
    if passes[-1]["failures"]:
        return setups, passes, {"checks": []}
    return setups, passes, child("check", args, workdir, env, deadline)


def per_layer_metrics(traces):
    """(value, unit) per per-layer metric: medians over the traced passes."""
    def med(get):
        return statistics.median(get(t) for t in traces)

    def fn(name, key):
        return med(lambda t: t["functions"].get(name, {}).get(key, 0))

    def counts(*names):
        return med(lambda t: sum(t["counts"].get(n, 0) for n in names))

    m = {"fft.calls": (med(lambda t: t["fft"]["calls"]), "count"),
         "fft.points": (med(lambda t: t["fft"]["points"]), "count"),
         "fft.s": (med(lambda t: t["fft"]["s"]), "s"),
         "fft.share": (med(lambda t: t["fft"]["share"]), "fraction")}
    m.update((n + ".calls", (fn(n, "calls"), "count")) for n in COUNTED)
    m.update((n + ".s", (fn(n, "s"), "s")) for n in TIMED)
    m.update((n + ".self_s", (fn(n, "self_s"), "s")) for n in SELF_TIMED)
    m["grid.phase_multiply.points"] = (counts("grid.phase_multiply"), "count")
    m["windows.evaluate.points"] = (counts("windows.evaluate"), "count")
    m["io.bytes_written"] = (counts("io.write_grid", "io.write_volume"), "bytes")
    m["io.bytes_read"] = (counts("io.read_grid", "io.read_volume"), "bytes")
    for layer in ("stockwell", "grid", "windows", "cft", "transform", "volume", "io"):
        m[layer + ".s"] = (med(lambda t: t["layers"][layer]["s"]), "s")
        m[layer + ".self_s"] = (med(lambda t: t["layers"][layer]["self_s"]), "s")
    return m


def print_trace(traces):
    print("  %-38s %9s %10s %10s %14s" % ("span, median of traced passes", "calls", "s",
                                          "self_s", "exact count"))
    for name in sorted({n for t in traces for n in t["functions"]}):
        row = [statistics.median(t["functions"].get(name, {}).get(k, 0) for t in traces)
               for k in ("calls", "s", "self_s")]
        print("  %-38s %9d %10.4f %10.4f %14s" % (name, row[0], row[1], row[2],
                                                  traces[0]["counts"].get(name, "")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "clcst", "__init__.py")):
        sys.exit("perfbench: no clcst sources under %s; run from a checkout's root" % src)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", **THREAD_ENV)
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        setups, passes, checked = collect(args, workdir, env)
    except BenchError as exc:
        sys.exit("perfbench: %s" % exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    done = [p for p in passes if not p["failures"]]
    if not done:
        sys.exit("perfbench: no pass of %s completed: %s"
                 % (args.workload, "; ".join(passes[-1]["failures"])))
    checks = checked["checks"]
    for method in workloads.workload(args.workload, args.seed)["reconstruct"]:
        errors = [p["errors"][method] for p in done]
        checks.append({"name": "%s reconstruction error repeats in every pass" % method,
                       "measured": max(errors) - min(errors), "tolerance": 0.0})
    gated = [c for c in checks if c["tolerance"] is not None]
    failures = [f for p in setups + passes for f in p["failures"]]
    failures += ["check missed: " + c["name"] for c in gated
                 if not c["measured"] <= c["tolerance"]]
    attempted = sum(p["attempted"] for p in setups + passes) + len(gated)

    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed,
                                                        args.seconds, args.trace))
    print("  %s, nproc %d, %s" % (checked.get("versions", "versions unknown"), os.cpu_count(),
                                 " ".join("%s=%s" % kv for kv in sorted(THREAD_ENV.items()))))
    for c in checks:
        limit = "reported only" if c["tolerance"] is None else "<= %.0e" % c["tolerance"]
        print("  check %-70s %.3e %s" % (c["name"], c["measured"], limit))
    for failure in failures:
        print("  FAILED " + failure)
    print("  error_rate %d/%d = %.4f" % (len(failures), attempted, len(failures) / attempted))

    untraced = [p for p in done if not p["traced"]]
    if args.trace:
        traced = [p for p in done if p["traced"]]
        if not traced:
            sys.exit("perfbench: no traced pass completed")
        traces = [p["trace"] for p in traced]
        metrics = per_layer_metrics(traces)
        walls = [statistics.median(sum(p["seconds"].values()) for p in group)
                 for group in (untraced, traced)]
        metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
        metrics["trace.spans"] = (statistics.median(t["spans"] for t in traces), "count")
        print("  %d untraced, %d traced passes of synthesize+pipeline; median %.4f s, %.4f s"
              % (len(untraced), len(traced), walls[0], walls[1]))
        print_trace(traces)
    else:
        labels = [k for k in done[0]["seconds"] if k != "synthesize"]
        for label in labels:
            print("  %-28s %s s" % (label, ", ".join("%.4f" % p["seconds"][label]
                                                      for p in done)))
        if any(k.startswith("reconstruct_") for k in labels):
            print("  %-28s %.6g s" % ("reconstruct_s", statistics.median(
                sum(v for k, v in p["seconds"].items() if k.startswith("reconstruct_"))
                for p in done)))
            for method in done[0]["errors"]:
                print("  %-28s %.6e" % (method + "_rel_l2", done[0]["errors"][method]))
        setup_s = [p["setup_s"] for p in setups + untraced]
        print("  %-28s %s s" % ("set-up samples", ", ".join("%.4f" % s for s in setup_s)))
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(sum(p["seconds"][k] for k in labels)
                                         for p in done), "s"),
            "transform_slices_per_s": (statistics.median(
                p["slices"] / p["seconds"]["transform"] for p in done), "1/s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in done), "MB"),
            "volume_mb": (statistics.median(p["volume_bytes"] for p in done) / 1e6, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print("  %-40s %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
