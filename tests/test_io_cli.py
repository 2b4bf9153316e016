import json
import struct

import numpy as np
import pytest

from clcst.algebra import transform_algebra
from clcst.cli import main
from clcst.grid import GridSignal, GridSpec, rel_l2_error, sample
from clcst.io import (
    FormatError,
    read_grid,
    read_volume,
    window_from_meta,
    window_to_meta,
    write_grid,
    write_volume,
)
from clcst.lct import LCTParams
from clcst.transform import clcst
from clcst.windows import CompositeWindow, DOGWindow, GaussianWindow, WindowSpec

CTX = transform_algebra(2)
SPEC = GridSpec(2, 6.0, 32)


def random_signal(seed=0):
    rng = np.random.default_rng(seed)
    return GridSignal(SPEC, CTX, rng.standard_normal((CTX.blade_count,) + SPEC.shape))


def test_grid_round_trip_bit_exact(tmp_path):
    f = random_signal()
    p1 = tmp_path / "a.clcg"
    p2 = tmp_path / "b.clcg"
    write_grid(p1, f)
    g = read_grid(p1)
    assert g.spec == f.spec and g.domain == f.domain
    assert np.array_equal(g.data, f.data)
    write_grid(p2, g)
    assert p1.read_bytes() == p2.read_bytes()


def test_frequency_domain_grid_round_trip(tmp_path):
    from clcst.cft import cft_forward

    F = cft_forward(sample(lambda x: np.exp(-np.sum(x**2, axis=0)), SPEC, CTX))
    path = tmp_path / "freq.clcg"
    write_grid(path, F)
    G = read_grid(path)
    assert G.domain == "frequency"
    assert np.array_equal(G.data, F.data)


def test_volume_round_trip_bit_exact(tmp_path):
    f = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), SPEC, CTX)
    psi = GaussianWindow(2, sigma=0.8).normalize_unit_integral()
    m = LCTParams(1, 2, 1, 3)
    dw = SPEC.dw
    vol = clcst(f, psi, m, np.array([[dw, 2 * dw], [2 * dw, -dw]]), [0.0, np.pi / 2])
    p1 = tmp_path / "v.clcg"
    p2 = tmp_path / "w.clcg"
    write_volume(p1, vol)
    back = read_volume(p1)
    assert np.array_equal(back.values, vol.values)
    assert back.params.as_tuple() == m.as_tuple()
    assert np.array_equal(back.u_list, vol.u_list)
    assert back.window.sigma == psi.sigma
    assert back.window.normalization == "unit-integral"
    write_volume(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


class Shifted(WindowSpec):
    """A unit-integral window that is not radial, so its volume stores every
    theta column."""

    def _evaluate(self, points):
        return np.exp(-np.sum((points - 0.5) ** 2, axis=0)) / np.pi ** (self.n / 2.0)

    def raw_integral(self):
        return 1.0


def small_volume(radial):
    psi = GaussianWindow(2, sigma=0.8).normalize_unit_integral() if radial else Shifted(2)
    u = [[SPEC.dw, 2 * SPEC.dw], [-3 * SPEC.dw, SPEC.dw]]
    vol = clcst(random_signal(), psi, LCTParams(1, 2, 1, 3), u, [0.0, 0.7, 2.0])
    if not radial:
        vol.window = None  # the sidecar names only the catalogue windows
    return vol


def header_size(n):
    return 4 + 2 * 3 + 4 * (n + 2) + 4  # magic, version n axes, (U, T_s) + b sizes, blades


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "not-radial"])
def test_volume_file_is_the_stored_array(tmp_path, radial):
    """Version 2: axes (U, T_s) + b and the stored array byte for byte."""
    vol = small_volume(radial)
    columns = 1 if radial else 3
    path = tmp_path / "v.clcg"
    written = write_volume(path, vol)
    raw = path.read_bytes()
    assert struct.unpack_from("<HHH", raw, 4) == (2, 2, 4)
    assert struct.unpack_from("<5I", raw, 10) == (2, columns) + SPEC.shape + (CTX.blade_count,)
    assert len(raw) == header_size(2) + 8 * 2 * columns * CTX.blade_count * SPEC.point_count
    assert raw[header_size(2):] == vol.stored.astype("<f8").tobytes()
    assert written == len(raw) + len((tmp_path / "v.clcg.json").read_bytes())
    back = read_volume(path)
    assert back.stored.shape == vol.stored.shape and np.array_equal(back.values, vol.values)


def write_v1_volume(path, vol):
    """The version 1 layout: axes b + (U, T) and a blade-major payload."""
    write_volume(path, vol)  # for the sidecar
    axes = SPEC.shape + (vol.u_count, vol.theta_count)
    header = b"CLCG" + struct.pack("<HHH", 1, 2, len(axes))
    header += struct.pack("<%dI" % len(axes), *axes) + struct.pack("<I", CTX.blade_count)
    path.write_bytes(header + np.ascontiguousarray(vol.values, dtype="<f8").tobytes())


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "not-radial"])
def test_version_1_volume_reads_back_and_rewrites_as_version_2(tmp_path, radial):
    vol = small_volume(radial)
    old, new, again = (tmp_path / name for name in ("v1.clcg", "v2.clcg", "v2b.clcg"))
    write_v1_volume(old, vol)
    back = read_volume(old)
    assert back.stored_theta_columns == 3  # T_s = T for a version 1 file
    assert np.array_equal(back.values, vol.values)
    write_volume(new, back)
    assert struct.unpack_from("<H", new.read_bytes(), 4) == (2,)
    assert np.array_equal(read_volume(new).values, vol.values)
    write_volume(again, read_volume(new))
    assert new.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("damage, message", [
    ("theta columns", "stores 2 theta columns"),
    ("u rows", "holds 1 u rows"),
    ("truncated payload", "payload bytes"),
    ("one axis", r"needs \(U, T_s\)"),
])
def test_malformed_version_2_volume_rejected(tmp_path, damage, message):
    """A radial volume may store 1 or T = 3 columns, nothing else; its u
    count must be the sidecar's."""
    path = tmp_path / "v.clcg"
    write_volume(path, small_volume(radial=True))
    raw = bytearray(path.read_bytes())
    payload = raw[header_size(2):]
    if damage == "theta columns":
        struct.pack_into("<I", raw, 14, 2)
        raw = raw[:header_size(2)] + payload + payload  # sizes agree with the header
    elif damage == "u rows":
        struct.pack_into("<I", raw, 10, 1)
        raw = raw[:header_size(2) + len(payload) // 2]
    elif damage == "truncated payload":
        raw = raw[:-8]
    else:
        raw = b"CLCG" + struct.pack("<HHHII", 2, 2, 1, 2, 4) + b"\x00" * 64
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=message):
        read_volume(path)


def test_grid_reader_refuses_a_volume_file(tmp_path):
    path = tmp_path / "v.clcg"
    write_volume(path, small_volume(radial=True))
    (tmp_path / "v.clcg.json").write_text(json.dumps({"kind": "grid"}))
    with pytest.raises(FormatError, match="version 2"):
        read_grid(path)


def test_container_io_makes_no_payload_copy(tmp_path):
    import tracemalloc

    psi = GaussianWindow(2, sigma=0.8).normalize_unit_integral()
    u = [[k * SPEC.dw, SPEC.dw] for k in range(1, 41)]
    vol = clcst(random_signal(), psi, LCTParams(1, 2, 1, 3), u, [0.0, 1.0])
    path = tmp_path / "v.clcg"
    payload = vol.stored.nbytes  # 1.3 MB: one theta column for the radial window
    tracemalloc.start()
    try:
        write_volume(path, vol)
        _, written_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_volume(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written_peak < 0.2 * payload
    assert read_peak < 1.2 * payload
    assert back.stored.flags.writeable and np.array_equal(back.values, vol.values)


def test_window_meta_round_trip():
    for window in (
        GaussianWindow(2, sigma=0.7).normalize_unit_integral(),
        DOGWindow(3, lam=0.4),
        CompositeWindow([(0.5, GaussianWindow(2, sigma=1.0)), (-1.0, DOGWindow(2, lam=0.5))]),
    ):
        meta = window_to_meta(window)
        back = window_from_meta(meta, window.n)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(window.n, 7))
        assert np.allclose(back.evaluate(pts), window.evaluate(pts), rtol=1e-15)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.clcg"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        read_grid(path)


@pytest.mark.parametrize("kind", ["grid", "volume"])
@pytest.mark.parametrize("damage", ["truncated payload", "trailing bytes", "truncated header"])
def test_malformed_container_rejected(tmp_path, kind, damage):
    path = tmp_path / "x.clcg"
    if kind == "grid":
        write_grid(path, random_signal())
        read = read_grid
    else:
        psi = GaussianWindow(2, sigma=0.8).normalize_unit_integral()
        write_volume(path, clcst(random_signal(), psi, LCTParams(1, 2, 1, 3), [[SPEC.dw, SPEC.dw]], [0.0]))
        read = read_volume
    raw = path.read_bytes()
    path.write_bytes({
        "truncated payload": raw[:-8],
        "trailing bytes": raw + b"\x00" * 8,
        "truncated header": raw[:12],
    }[damage])
    with pytest.raises(FormatError):
        read(path)


def test_cli_synthesize_kinds(tmp_path):
    for kind, checks in {
        "example1": lambda g: g.data[0][16, 16] == pytest.approx(1.0),
        "gaussian": lambda g: g.data[0][16, 16] == pytest.approx(1.0),
        "chirp": lambda g: np.allclose(np.sum(g.data**2, axis=0), 1.0),
    }.items():
        out = tmp_path / (kind + ".clcg")
        assert main([
            "synthesize", "--kind", kind, "--n", "2", "--half-width", "6",
            "--samples", "32", "--out", str(out),
        ]) == 0
        assert checks(read_grid(out))
    out = tmp_path / "flat.clcg"
    main(["synthesize", "--kind", "chirp", "--rate", "0", "--samples", "32", "--out", str(out)])
    g = read_grid(out)
    assert np.all(g.data[0] == 1.0) and np.all(g.data[1:] == 0.0)


def test_cli_transform_report_and_paths(tmp_path):
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "example1", "--samples", "32", "--out", str(src)])
    u_spec = json.dumps({"kind": "multiples", "per_axis": [[-2, -1, 1, 2], [-2, -1, 1, 2]]})
    outputs = {}
    for path in ("direct", "three_step"):
        out = tmp_path / ("vol_%s.clcg" % path)
        code = main([
            "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
            "--window", "gaussian", "--sigma", "0.8", "--normalize",
            "--u-list", u_spec, "--theta", "0,0.785398163397448,1.570796326794897",
            "--path", path, "--out", str(out),
        ])
        assert code == 0
        outputs[path] = read_volume(out)
        report = json.loads((tmp_path / ("vol_%s.clcg.report.json" % path)).read_text())
        assert report["path"] == path
        assert "admissibility" in report
        assert report["stored_theta_columns"] == 1  # the Gaussian window is radial
        written = out.stat().st_size + (tmp_path / ("vol_%s.clcg.json" % path)).stat().st_size
        assert report["volume_bytes"] == written
    diff = np.max(np.abs(outputs["direct"].values - outputs["three_step"].values))
    assert diff <= 1e-12 * np.max(np.abs(outputs["direct"].values))


def test_cli_transform_zero_input_warning(tmp_path):
    src = tmp_path / "zero.clcg"
    write_grid(src, GridSignal.zero(SPEC, CTX))
    out = tmp_path / "zvol.clcg"
    main([
        "transform", "--input", str(src), "--window", "gaussian", "--normalize",
        "--u-list", json.dumps({"kind": "multiples", "per_axis": [[1], [1]]}),
        "--out", str(out),
    ])
    report = json.loads((tmp_path / "zvol.clcg.report.json").read_text())
    assert "zero input" in report["warnings"]
    assert "degenerates to CST" in report["warnings"]
    assert np.all(read_volume(out).values == 0.0)


def test_cli_partial_config_keeps_flag_defaults(tmp_path):
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "32", "--out", str(src)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"L": 6}, "window": {"sigma": 0.8}}))
    out = tmp_path / "vol.clcg"
    assert main([
        "transform", "--input", str(src), "--u-list", "[[0.5, 0.5]]", "--theta", "0",
        "--config", str(cfg), "--out", str(out),
    ]) == 0
    report = json.loads((tmp_path / "vol.clcg.report.json").read_text())
    assert report["config"]["grid"] == {"L": 6, "N": 32}
    assert report["config"]["window"]["kind"] == "gaussian"
    assert report["config"]["window"]["sigma"] == 0.8
    assert read_volume(out).window.sigma == 0.8


def test_cli_reconstruct_marginal(tmp_path):
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "example1", "--samples", "32", "--out", str(src)])
    ks = [k for k in range(-16, 16) if k != 0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u_list": {"kind": "multiples", "per_axis": [ks, ks]},
                               "theta_list": [0.0]}))
    vol = tmp_path / "vol.clcg"
    main([
        "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--window", "gaussian", "--sigma", "0.75", "--normalize",
        "--config", str(cfg), "--out", str(vol),
    ])
    rec = tmp_path / "rec.clcg"
    assert main(["reconstruct", "--volume", str(vol), "--method", "marginal",
                 "--theta", "0", "--out", str(rec)]) == 0
    f = read_grid(src)
    fhat = read_grid(rec)
    assert rel_l2_error(fhat, f) < 1e-3
    report = json.loads((tmp_path / "rec.clcg.report.json").read_text())
    assert "filled_bins" in report


def test_cli_kernel_dump(tmp_path):
    out = tmp_path / "k.clcg"
    assert main([
        "kernel-dump", "--samples", "32", "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--u", "1.0,1.5", "--theta", "0.7", "--b", "0.5,-0.5", "--out", str(out),
    ]) == 0
    k = read_grid(out)
    assert k.data.shape == (4, 32, 32)
    assert np.max(np.abs(k.data)) > 0


def test_cli_verify_subset(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "algebra,example1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert set(report["suites"]) == {"algebra", "example1"}


def test_cli_spectrogram_export(tmp_path):
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "32", "--out", str(src)])
    out = tmp_path / "vol.clcg"
    csv = tmp_path / "slice.csv"
    main([
        "transform", "--input", str(src), "--window", "gaussian", "--normalize",
        "--u-list", json.dumps({"kind": "multiples", "per_axis": [[1, 2], [1, 2]]}),
        "--spectrogram", str(csv), "--spectrogram-index", "1,0",
        "--out", str(out),
    ])
    rows = np.loadtxt(csv, delimiter=",")
    assert rows.shape == (32, 32)
    assert np.all(rows >= 0.0)


@pytest.mark.parametrize("index, message", [
    ("99,0", "U = 64, T = 3"),  # the default u list at N=16 has 8^2 u
    ("0,3", "U = 64, T = 3"),
    ("-1,0", "U = 64, T = 3"),
    ("1", "ui,ti"),
    ("a,b", "ui,ti"),
])
def test_cli_bad_spectrogram_index_refused_before_transform(tmp_path, index, message):
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    out = tmp_path / "vol.clcg"
    with pytest.raises(SystemExit) as err:
        main([
            "transform", "--input", str(src), "--spectrogram", str(tmp_path / "s.csv"),
            "--spectrogram-index=" + index, "--out", str(out),
        ])
    assert message in str(err.value)
    assert not out.exists()
    assert not (tmp_path / "vol.clcg.json").exists()
