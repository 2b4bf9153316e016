"""Acceptance gate: the twelve desk-scale criteria, one printed line per check.

Criteria 1-11 are identities.  Their inputs, reductions and tolerances are
written once, in the check registry ``clcst.verify.SUITES``, which
`clcst verify` runs as well; this module only runs and prints them, along
with the registry's verify-only checks.  Criterion 12 times code rather
than measuring an identity, so it stays here.
"""

import time

import numpy as np
import pytest

from clcst.grid import GridSpec, sample
from clcst.stockwell import Rotation, ScalingMatrix
from clcst.transform import clcst
from clcst.verify import CTX2, M_EXAMPLE, SPEC64, SUITES, clcst_direct_sum_slice, run_checks
from clcst.windows import GaussianWindow

pytestmark = pytest.mark.filterwarnings("ignore::clcst.stockwell.NonUnitWindowWarning")


def report(label, description, measured, tolerance):
    passed = measured <= tolerance
    print(
        "%-13s %-58s measured %.3e  tolerance %.1e  %s"
        % (label, description, measured, tolerance, "pass" if passed else "FAIL")
    )
    return passed


def run_registry(fns):
    """Print one line per check of the given measuring functions; fail on any miss."""
    assert fns, "no registry entry"
    failed = []
    for fn in fns:
        label = "VERIFY" if fn.criterion is None else "ACCEPTANCE %-2s" % fn.criterion
        for c in run_checks(fn):
            if not report(label, c["name"], c["measured"], c["tolerance"]):
                failed.append("%s: measured %.3e exceeds %.1e" % (c["name"], c["measured"], c["tolerance"]))
    assert not failed, "; ".join(failed)


# Test ids keep one function per criterion, each running the registry
# entries tagged with that criterion.
CRITERIA = (
    "algebra_axioms",
    "cft_unitarity",
    "convolution_theorems",
    "clct_consistency",
    "path_equivalence",
    "covariance_suite",
    "orthogonality",
    "marginal_reconstruction",
    "resolution_reconstruction",
    "reproducing_kernel",
    "example_oracle",
)


def criterion_test(criterion):
    def test():
        run_registry([fn for fns in SUITES.values() for fn in fns if fn.criterion == criterion])

    return test


for _criterion, _topic in enumerate(CRITERIA, start=1):
    globals()["test_criterion_%02d_%s" % (_criterion, _topic)] = criterion_test(_criterion)


@pytest.mark.parametrize(
    "suite", [name for name, fns in SUITES.items() if any(fn.criterion is None for fn in fns)]
)
def test_verify_only_checks(suite):
    run_registry([fn for fn in SUITES[suite] if fn.criterion is None])


def test_criterion_12_performance():
    spec128 = GridSpec(2, 6.0, 128)

    def gaussian(x):
        return np.exp(-np.sum(x**2, axis=0))

    f128 = sample(gaussian, spec128, CTX2)
    f64 = sample(gaussian, SPEC64, CTX2)
    psi = GaussianWindow(2, sigma=1.0)
    m = M_EXAMPLE
    dw = spec128.dw
    u = np.array([[2 * dw, 3 * dw]])

    def best_of(fn, repeats=5):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    fast128 = best_of(lambda: clcst(f128, psi, m, u, [0.0], path="three_step"))
    fast64 = best_of(lambda: clcst(f64, psi, m, u, [0.0], path="three_step"))
    start = time.perf_counter()
    clcst_direct_sum_slice(f128, psi, m, ScalingMatrix(u[0]), Rotation(0.0))
    slow128 = time.perf_counter() - start
    speedup = slow128 / fast128
    print(
        "ACCEPTANCE 12 three-step %.4fs vs direct-sum oracle %.1fs at N=128 (x%.0f)"
        % (fast128, slow128, speedup)
    )
    assert report("ACCEPTANCE 12", "three-step at least 5x faster than direct-sum oracle", 5.0 / speedup, 1.0)
    growth = fast128 / fast64
    assert report("ACCEPTANCE 12", "N=64 -> N=128 cost growth within N^2 log N envelope", growth, 6.0)
