"""The three benchmark workloads, as `clcst` command lines built from a seed.

Pure Python on purpose: the set-up probe imports this module before it
starts timing the import of `clcst`, so it must not pull in numpy itself.
"""

import json
import math
import random

NAMES = ("analyze-lattice-n2", "roundtrip-lattice-n2", "analyze-offlattice-n3")
M = (1.0, 2.0, 1.0, 3.0)
# Every frequency-lattice bin of N=48 except the k=0 planes: -24..-1, 1..23.
ROUNDTRIP_MULTIPLES = [k for k in range(-24, 24) if k != 0]
OFFLATTICE_HALF_WIDTH = 4.0
OFFLATTICE_MARGIN = 0.1  # least distance from a lattice bin, in units of dw


def offlattice_u_values(rng, low=0.6, high=3.0, count=3):
    """Distinct per-axis u values with |u| in [low, high], none on the lattice."""
    dw = math.pi / OFFLATTICE_HALF_WIDTH
    values = []
    while len(values) < count:
        u = rng.choice((-1.0, 1.0)) * rng.uniform(low, high)
        steps = abs(u) / dw
        if abs(steps - round(steps)) < OFFLATTICE_MARGIN:
            continue
        if any(abs(u - v) < OFFLATTICE_MARGIN * dw for v in values):
            continue
        values.append(u)
    return sorted(values)


def workload(name, seed):
    """The concrete inputs of one workload for one seed.

    ``synthesize`` and ``transform`` are CLI flags without file names;
    ``window``, ``u_list`` and ``thetas`` restate the transform for the
    output checks, which rebuild it through the library (``u_list`` None and
    ``thetas`` None mean the CLI defaults).
    """
    if name == "analyze-lattice-n2":
        return {
            "synthesize": ["--kind", "example1", "--n", "2", "--half-width", "6",
                           "--samples", "64"],
            "transform": ["--window", "dog", "--lam", "0.5"],
            "window": {"kind": "dog", "lam": 0.5, "unit_integral": False},
            "u_list": None,
            "thetas": None,
            "reconstruct": (),
            "check": "slices",
        }
    if name == "roundtrip-lattice-n2":
        return {
            "synthesize": ["--kind", "gaussian_mixture", "--n", "2", "--half-width", "6",
                           "--samples", "48", "--seed", str(seed)],
            "transform": ["--window", "gaussian", "--sigma", "0.75", "--normalize"],
            "window": {"kind": "gaussian", "sigma": 0.75, "unit_integral": True},
            "u_list": {"kind": "multiples",
                       "per_axis": [ROUNDTRIP_MULTIPLES, ROUNDTRIP_MULTIPLES]},
            "thetas": [0.0],
            "reconstruct": ("marginal", "resolution"),
            "check": "marginal",
        }
    if name == "analyze-offlattice-n3":
        rng = random.Random(seed)
        return {
            "synthesize": ["--kind", "gaussian", "--n", "3", "--sigma", "0.8",
                           "--half-width", repr(OFFLATTICE_HALF_WIDTH), "--samples", "32"],
            "transform": ["--window", "gaussian", "--sigma", "1"],
            "window": {"kind": "gaussian", "sigma": 1.0, "unit_integral": False},
            "u_list": {"kind": "tensor",
                       "per_axis": [offlattice_u_values(rng) for _ in range(3)]},
            "thetas": None,
            "reconstruct": (),
            "check": "slices",
        }
    raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(NAMES)))


def synthesize_argv(spec, paths):
    return ["synthesize"] + spec["synthesize"] + ["--out", paths["grid"]]


def pipeline_argvs(spec, paths):
    """(label, argv) of every command after set-up, in order."""
    transform = ["transform", "--input", paths["grid"], "--path", "three_step"]
    transform += ["--A", repr(M[0]), "--B", repr(M[1]), "--C", repr(M[2]), "--D", repr(M[3])]
    transform += spec["transform"]
    if spec["u_list"] is not None:
        transform += ["--u-list", json.dumps(spec["u_list"])]
    if spec["thetas"] is not None:
        transform += ["--theta", ",".join(repr(t) for t in spec["thetas"])]
    commands = [("transform", transform + ["--out", paths["volume"]])]
    for method in spec["reconstruct"]:
        commands.append((
            "reconstruct_" + method,
            ["reconstruct", "--volume", paths["volume"], "--method", method,
             "--theta", "0", "--out", paths[method]],
        ))
    return commands
