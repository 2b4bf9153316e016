"""The check registry's shape, read without running the checks."""

import json
import math

import pytest

from clcst.cli import main
from clcst.verify import SUITES


def test_registry_structure():
    keys = [(suite, name) for suite, fns in SUITES.items() for fn in fns for name, _ in fn.checks]
    assert len(keys) == len(set(keys))
    for fns in SUITES.values():
        for fn in fns:
            assert fn.checks
            for name, tolerance in fn.checks:
                assert math.isfinite(tolerance) and tolerance > 0, name
    criteria = {fn.criterion for fns in SUITES.values() for fn in fns}
    assert criteria - {None} == set(range(1, 12))


def test_cli_verify_reports_criteria(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "algebra,example1", "--out", str(out)]) == 0
    suites = json.loads(out.read_text())["suites"]
    for name, checks in suites.items():
        declared = [(n, fn.criterion) for fn in SUITES[name] for n, _ in fn.checks]
        assert [(c["name"], c["criterion"]) for c in checks] == declared


def test_cli_verify_refuses_an_unknown_suite(tmp_path):
    """An unknown suite is refused in one line that lists the suites,
    before any suite runs and before any report is written."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "algebra,nosuch", "--out", str(out)])
    assert str(err.value) == ("clcst verify: unknown suite 'nosuch' (choose from all, %s)"
                              % ", ".join(SUITES))
    assert not out.exists()


def test_run_suites_checks_every_name_before_it_runs_one(monkeypatch):
    """A later unknown name stops run_suites before the suites named first run."""
    from clcst import verify

    calls = []

    def record():  # a measuring function of no checks
        calls.append("algebra")
        return []

    record.checks, record.criterion = (), None
    monkeypatch.setitem(verify.SUITES, "algebra", (record,))
    with pytest.raises(KeyError, match="unknown suite 'nosuch'"):
        verify.run_suites(["algebra", "nosuch"])
    assert calls == []
    verify.run_suites(["algebra"])
    assert calls == ["algebra"]


def cheap_suites(monkeypatch, calls):
    """Stand every suite in for one check that records its run and passes."""
    from clcst import verify

    suites = {}
    for name in verify.SUITES:
        def measure(name=name):
            calls.append(name)
            return [0.0]

        measure.checks, measure.criterion = (("%s ran" % name, 1.0),), None
        suites[name] = (measure,)
    monkeypatch.setattr(verify, "SUITES", suites)


def test_run_suites_all_runs_every_suite(monkeypatch):
    """"all" runs every suite once, in the registry's order."""
    from clcst import verify

    calls = []
    cheap_suites(monkeypatch, calls)
    results, all_passed = verify.run_suites(["all"])
    assert calls == list(SUITES) and list(results) == list(SUITES) and all_passed


def test_cli_verify_without_out_prints_its_report(monkeypatch, tmp_path, capsys):
    """Without --out, verify prints the JSON report to standard output and
    writes no file."""
    calls = []
    cheap_suites(monkeypatch, calls)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "cft"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and list(report["suites"]) == ["cft"] == calls
    assert [c["name"] for c in report["suites"]["cft"]] == ["cft ran"]
    assert list(tmp_path.iterdir()) == []


def test_dense_window_normalizes_like_its_window():
    """The dense stand-in of a separable window keeps its values when it is
    scaled to unit integral."""
    import numpy as np

    from clcst.grid import GridSpec
    from clcst.verify import _DenseWindow
    from clcst.windows import UNIT_INTEGRAL, GaussianWindow

    dense = _DenseWindow(GaussianWindow(2)).normalize_unit_integral()
    points = GridSpec(2, 4.0, 16).mesh()
    assert np.array_equal(dense.evaluate(points),
                          GaussianWindow(2).normalize_unit_integral().evaluate(points))
    assert dense.normalization == UNIT_INTEGRAL and dense.is_unit_integral()
    assert dense.radial and dense.separable_terms() is None
