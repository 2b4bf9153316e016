import json
import math
import re
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
from clcst.volume import CLCSTVolume
from clcst.windows import (
    WINDOWS,
    CompositeWindow,
    DOGWindow,
    GaussianWindow,
    WindowSpec,
    make_window,
)

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
    return 4 + 2 * 3 + 4 * (n + 2) + 4  # magic, version n axes, (U, T_s) + b sizes, count


def lists_size(n, u_count):
    return 8 * u_count * (n + 1)  # the u list and its weights


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "not-radial"])
def test_volume_file_is_the_stored_array(tmp_path, radial):
    """Version 4: axes (U, T_s) + b, the pair count, the u list and weights,
    and the stored complex pairs byte for byte."""
    vol = small_volume(radial)
    columns, pairs = 1 if radial else 3, CTX.blade_count // 2  # every pair is live
    path = tmp_path / "v.clcg"
    written = write_volume(path, vol)
    raw = path.read_bytes()
    assert struct.unpack_from("<HHH", raw, 4) == (4, 2, 4)
    assert struct.unpack_from("<5I", raw, 10) == (2, columns) + SPEC.shape + (pairs,)
    lists = header_size(2) + lists_size(2, 2)
    assert len(raw) == lists + 16 * 2 * columns * pairs * SPEC.point_count
    assert raw[header_size(2):lists] == vol.u_list.tobytes() + vol.u_weights.tobytes()
    assert raw[lists:] == vol.stored.astype("<c16").tobytes()
    assert json.loads((tmp_path / "v.clcg.json").read_text())["pairs"] == list(range(pairs))
    assert written == len(raw) + len((tmp_path / "v.clcg.json").read_bytes())
    back = read_volume(path)
    assert back.stored.shape == vol.stored.shape and np.array_equal(back.values, vol.values)


def test_volume_file_rows_are_read_on_demand(tmp_path):
    """read_volume leaves the payload in the file: rows and slice read u rows
    from it, and a file replaced after it was read is refused, not read as
    the same volume."""
    vol = small_volume(radial=False)
    path = tmp_path / "v.clcg"
    write_volume(path, vol)
    back = read_volume(path)
    assert np.array_equal(back.rows(1, 2), vol.stored[1:2])
    assert np.array_equal(back.slice(-1, 2).data, vol.values[..., 1, 2])
    write_volume(path, back)  # read from the old file while the new one is written
    assert np.array_equal(read_volume(path).values, vol.values)
    with pytest.raises(FormatError, match="changed after it was read"):
        back.rows(0, 1)


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "not-radial"])
def test_volume_energy_reads_a_volume_file_block_by_block(tmp_path, monkeypatch, radial):
    """volume_energy sums a read-back volume over its blocks of rows, one row
    each here, to the in-memory volume's energy, without loading it."""
    from clcst import volume
    from clcst.verify import volume_energy

    vol = small_volume(radial)
    path = tmp_path / "v.clcg"
    write_volume(path, vol)
    back = read_volume(path)
    monkeypatch.setattr(volume, "block_rows", lambda bytes_per_u: 1)
    expect = volume_energy(vol)
    assert volume_energy(back) == pytest.approx(expect, rel=1e-14, abs=0.0)
    assert back._stored is None


def test_streamed_volume_file_equals_the_written_volume(tmp_path, monkeypatch):
    """A volume streamed block by block to a file, its last block short,
    writes the bytes write_volume writes for the same volume in memory, and
    holds no payload itself."""
    from clcst import stockwell
    from clcst.grid import GridError
    from clcst.io import volume_writer

    monkeypatch.setattr(stockwell, "block_rows", lambda bytes_per_u: 2)
    psi = GaussianWindow(2, sigma=0.8).normalize_unit_integral()
    u = [[k * SPEC.dw, SPEC.dw] for k in range(1, 6)]
    args = (random_signal(), psi, LCTParams(1, 2, 1, 3), u, [0.0, 0.7])
    written, streamed = tmp_path / "w.clcg", tmp_path / "s.clcg"
    write_volume(written, clcst(*args))
    with volume_writer(streamed) as writer:
        vol = clcst(*args, sink=writer.begin)
    assert streamed.read_bytes() == written.read_bytes()
    assert (tmp_path / "s.clcg.json").read_bytes() == (tmp_path / "w.clcg.json").read_bytes()
    assert writer.bytes == streamed.stat().st_size + (tmp_path / "s.clcg.json").stat().st_size
    with pytest.raises(GridError, match="no payload"):
        vol.rows(0, 1)


def test_one_column_read_holds_that_column(tmp_path):
    """rows(start, stop, column) of a volume of T_s = T columns equals
    stored[start:stop, column:column + 1], in memory and read from a file,
    whose read buffer then holds that one column of the rows."""
    vol = small_volume(radial=False)
    path = tmp_path / "v.clcg"
    write_volume(path, vol)
    assert vol.stored_theta_columns == 3
    per_row = vol.stored.shape[2] * SPEC.point_count  # the buffer's complex pairs per u row
    for column in range(3):
        for start, stop in ((0, 2), (1, 2), (0, 1)):
            expect = vol.stored[start:stop, column:column + 1]
            assert np.array_equal(vol.rows(start, stop, column), expect)
            back = read_volume(path)
            got = back.rows(start, stop, column)
            assert got.shape == expect.shape and np.array_equal(got, expect)
            assert back._reader._buffer.size == (stop - start) * per_row
            assert back._stored is None


def test_slice_and_spectrogram_read_only_their_column(tmp_path, monkeypatch):
    """slice and export_spectrogram_csv of a volume file of T_s = T columns
    read the one stored column of the u row that they return, and give what
    they give for the volume in memory."""
    from clcst.io import VolumePayload, export_spectrogram_csv

    vol = small_volume(radial=False)
    path = tmp_path / "v.clcg"
    write_volume(path, vol)
    back = read_volume(path)
    reads, read = [], VolumePayload._read

    def spied(self, start, out, column=None):
        reads.append((start, out.shape[:2], column))
        return read(self, start, out, column)

    monkeypatch.setattr(VolumePayload, "_read", spied)
    for ui, ti in ((0, 2), (1, 1)):
        assert np.array_equal(back.slice(ui, ti).data, vol.slice(ui, ti).data)
        export_spectrogram_csv(tmp_path / "file.csv", back, ui, ti)
        export_spectrogram_csv(tmp_path / "memory.csv", vol, ui, ti)
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "memory.csv").read_bytes()
    assert reads == [(0, (1, 1), 2)] * 2 + [(1, (1, 1), 1)] * 2


@pytest.mark.parametrize("damage, message", [
    ("theta columns", "stores 2 theta columns"),
    ("T columns", "stores 3 theta columns, not the window's 1$"),
    ("truncated payload", "payload bytes"),
    ("one axis", r"needs \(U, T_s\)"),
])
def test_malformed_volume_rejected(tmp_path, damage, message):
    """A radial volume stores the one column of its window, not 2 or T = 3;
    its file holds what its header declares, and its axes start with (U,
    T_s)."""
    path = tmp_path / "v.clcg"
    write_volume(path, small_volume(radial=True))
    raw = bytearray(path.read_bytes())
    lists = header_size(2) + lists_size(2, 2)
    if damage in ("theta columns", "T columns"):
        columns = 2 if damage == "theta columns" else 3
        struct.pack_into("<I", raw, 14, columns)
        raw += raw[lists:] * (columns - 1)  # sizes agree with the header
    elif damage == "truncated payload":
        raw = raw[:-8]
    else:
        raw = b"CLCG" + struct.pack("<HHHII", 4, 2, 1, 2, 4) + b"\x00" * 64
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=message):
        read_volume(path)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_blade_volume_is_refused(tmp_path, version):
    """A volume file of an earlier version is refused naming its version,
    and reconstruct on it exits in one line without writing: real blades,
    version 1 (axes b + (U, T), blade-major) or version 2 (axes (U, T_s) +
    b), or version 3, the complex pairs of version 4 with the u list and
    weights in the sidecar."""
    vol = small_volume(radial=False)
    path, out = tmp_path / "old.clcg", tmp_path / "rec.clcg"
    write_volume(path, vol)
    sidecar = path.with_name(path.name + ".json")
    meta = json.loads(sidecar.read_text())
    if version == 3:
        meta.update(u_list=vol.u_list.tolist(), u_weights=vol.u_weights.tolist())
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, version)
        path.write_bytes(raw[:header_size(2)] + raw[header_size(2) + lists_size(2, 2):])
    else:
        meta.pop("pairs")  # a blade file's sidecar lists no pairs
        columns = (vol.u_count, vol.theta_count)
        axes = SPEC.shape + columns if version == 1 else columns + SPEC.shape
        header = b"CLCG" + struct.pack("<HHH", version, 2, len(axes))
        header += struct.pack("<%dI" % len(axes), *axes) + struct.pack("<I", CTX.blade_count)
        path.write_bytes(header + bytes(8 * CTX.blade_count * math.prod(axes)))
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="unsupported format version %d in " % version):
        read_volume(path)
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--volume", str(path), "--out", str(out)])
    assert str(err.value) == "clcst reconstruct: unsupported format version %d in %s" % (
        version, path)
    assert not out.exists()


def test_grid_reader_refuses_a_volume_file(tmp_path):
    path = tmp_path / "v.clcg"
    write_volume(path, small_volume(radial=True))
    (tmp_path / "v.clcg.json").write_text(json.dumps({"kind": "grid"}))
    with pytest.raises(FormatError, match="version 4"):
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


def test_window_meta_round_trip(tmp_path):
    """Every WINDOWS kind, raw and unit-integral, and a composite read back
    from their sidecar form with the same values, repr and normalization; a
    window class outside the table is refused on write."""
    windows = [make_window(kind, 3) for kind in WINDOWS]
    windows.append(CompositeWindow([(0.5, GaussianWindow(2, sigma=1.0)),
                                    (-1.0, DOGWindow(2, lam=0.5))], 1.7))
    for window in windows + [w.normalize_unit_integral() for w in windows]:
        back = window_from_meta(window_to_meta(window), window.n)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(window.n, 7))
        assert np.array_equal(back.evaluate(pts), window.evaluate(pts))
        assert repr(back) == repr(window) and back.normalization == window.normalization

    class Wider(GaussianWindow):
        pass

    vol = small_volume(radial=False)
    for window in (Shifted(2), Wider(2)):
        vol.window = window
        with pytest.raises(FormatError, match="cannot serialize window"):
            write_volume(tmp_path / "v.clcg", vol)
        assert not (tmp_path / "v.clcg").exists()


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
    # a half-width that is not finite, a sigma that is zero or infinite, a
    # chirp rate that is not finite or no mixture component is refused in
    # one line, and nothing is written
    refused = tmp_path / "refused.clcg"
    for flags, message in [
        (["--kind", "gaussian", "--half-width", "nan"], "half_width must be positive and finite"),
        (["--kind", "gaussian", "--half-width", "inf"], "half_width must be positive and finite"),
        (["--kind", "gaussian", "--sigma", "0"], "--sigma must be positive"),
        (["--kind", "gaussian", "--sigma", "inf"], "--sigma must be positive and finite"),
        (["--kind", "chirp", "--rate", "nan"], "--rate must be finite"),
        (["--kind", "chirp", "--rate", "inf"], "--rate must be finite"),
        (["--kind", "gaussian_mixture", "--components", "0"], "--components must be at least 1"),
    ]:
        with pytest.raises(SystemExit, match=message) as err:
            main(["synthesize", "--samples", "16", "--out", str(refused)] + flags)
        assert "\n" not in str(err.value)
        assert not refused.exists() and not (tmp_path / "refused.clcg.json").exists()


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
        assert report["peak_rss_mb"] > 0
    diff = np.max(np.abs(outputs["direct"].values - outputs["three_step"].values))
    assert diff <= 1e-12 * np.max(np.abs(outputs["direct"].values))


def transform_argv(src, out, u_spec):
    return ["transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
            "--sigma", "0.75", "--normalize", "--u-list", u_spec, "--theta", "0",
            "--out", str(out)]


@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-file"])
def test_cli_transform_that_fails_partway_writes_nothing(tmp_path, monkeypatch, existing):
    """A transform whose fill raises after its first u-block leaves no file
    and no sidecar at --out, or the file that was there byte for byte, and
    no temporary file beside them."""
    from clcst import stockwell, transform

    src, out, sidecar = tmp_path / "f.clcg", tmp_path / "vol.clcg", tmp_path / "vol.clcg.json"
    main(["synthesize", "--kind", "gaussian_mixture", "--samples", "16", "--out", str(src)])
    u_spec = json.dumps({"kind": "multiples", "per_axis": [[1, 2, 3], [1, 2]]})
    if existing:
        assert main(transform_argv(src, out, u_spec)) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fill_volume = transform.fill_volume
    blocks = []

    def failing_fill_volume(vol, psi, fill_block, *sink):
        def fill(start, stop, M, B, block):
            if blocks:
                raise RuntimeError("fill failed at u row %d" % start)
            blocks.append(start)
            fill_block(start, stop, M, B, block)
        return fill_volume(vol, psi, fill, *sink)

    monkeypatch.setattr(stockwell, "block_rows", lambda bytes_per_u: 1)
    monkeypatch.setattr(transform, "fill_volume", failing_fill_volume)
    with pytest.raises(RuntimeError, match="fill failed at u row 1"):
        main(transform_argv(src, out, u_spec))
    assert blocks == [0]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert out.exists() == sidecar.exists() == existing


def test_cli_memory_does_not_grow_with_the_u_list(tmp_path):
    """transform streams each u-block into the volume file, and both
    reconstructions read the file back u-block by u-block: from a volume of
    about 2 BLOCK_BYTES to one of 12, which store the input's one live pair,
    each command's traced peak grows by less than BLOCK_BYTES / 2, room for
    the u list and sidecar, which do grow with U, and stays below
    5 BLOCK_BYTES plus the signal.  That holds for a tensor list, whose
    rows share their values, and for a list of as many rows that share
    none, which the transform and the resolution synthesis read (the
    marginal needs every frequency bin, which that list does not cover).
    One untraced transform runs first, so that no traced peak carries the
    one-time allocations of the process (lazy imports, caches), whatever
    ran before the test."""
    import tracemalloc

    from clcst.volume import BLOCK_BYTES

    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian_mixture", "--samples", "16", "--out", str(src)])
    spec = read_grid(src).spec
    signal = read_grid(src).data.nbytes
    warm_up = json.dumps({"kind": "multiples", "per_axis": [[-1, 0.5, 1.5], [-0.5, 1]]})
    assert main(transform_argv(src, tmp_path / "warm-up.clcg", warm_up)) == 0
    for listed in (False, True):
        peaks, sizes = [], []
        # steps of dw / 2 and dw / 5 on axis 1 and half those on axis 2:
        # every lattice bin, for the marginal, and off-lattice u between
        # them, 1953 and 12561 u rows; listed, as many rows, each value on
        # each axis its own
        for div in (2, 5):
            ks = [[k / d for k in range(-8 * d, 8 * d) if k != 0] for d in (div, 2 * div)]
            u_spec = json.dumps({"kind": "multiples", "per_axis": ks})
            methods = ("marginal", "resolution")
            if listed:
                count = len(ks[0]) * len(ks[1])
                steps = (np.arange(count) + 0.25) * 16 / count - 8
                rows = np.stack([steps, -0.9 * steps[::-1]], axis=1) * spec.dw
                u_spec, methods = json.dumps(rows.tolist()), ("resolution",)
            vol = tmp_path / ("vol%d.clcg" % div)
            commands = [transform_argv(src, vol, u_spec)] + [
                ["reconstruct", "--volume", str(vol), "--method", method,
                 "--out", str(tmp_path / (method + ".clcg"))]
                for method in methods]
            peak = []
            for argv in commands:
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peak.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks.append(peak)
            sizes.append(vol.stat().st_size)
        assert sizes[0] > 1.5 * BLOCK_BYTES and sizes[1] > 8 * BLOCK_BYTES
        for small, large in zip(*peaks):
            assert large < small + BLOCK_BYTES / 2
            assert large < 5 * BLOCK_BYTES + signal
        # the transform of one live pair holds one block's window spectra at
        # a time and writes its block as it is (measured 1.8 BLOCK_BYTES; 2.7
        # when each block was unpacked into blades first, 4.2 with both pairs
        # and two blocks' spectra)
        assert peaks[1][0] < 3 * BLOCK_BYTES


def test_cli_transform_holds_its_input_once(tmp_path):
    """The transform of a scalar n = 3 signal (N = 32, 27 off-lattice tensor
    u, the analyze-offlattice-n3 benchmark's shape) hands its input to the
    engine, which drops the 2^n real blades (2.10 MB) once it has packed
    their one live pair (0.52 MB) and chirps that pair in place.  Its
    traced peak was 7.99 MB with both copies held, and is 5.36 MB; holding
    the chirped copy again reads 5.89 MB, and holding the blades 7.46 MB,
    so both break the 5.7 MB bound.  One untraced transform runs first, so
    that the traced peak carries none of the process's one-time
    allocations."""
    import tracemalloc

    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--n", "3", "--sigma", "0.8",
          "--half-width", "4", "--samples", "32", "--out", str(src)])
    per_axis = [[-2.71, 0.93, 1.87], [-1.44, 1.12, 2.56], [-2.2, 0.71, 2.93]]
    argv = ["transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
            "--window", "gaussian", "--sigma", "1",
            "--u-list", json.dumps({"kind": "tensor", "per_axis": per_axis}),
            "--out", str(tmp_path / "vol.clcg")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.7e6


@pytest.mark.parametrize("samples, bound", [(32, 4.5e6), (64, 30e6), (64, 24e6)])
def test_cli_transform_peak_is_the_slice_engine(tmp_path, samples, bound):
    """An n = 3 transform of 27 off-lattice tensor u (the
    analyze-offlattice-n3 benchmark's list) peaks in its slice engine.  Its
    traced peak was 5.36 MB at N = 32 and 37.9 MB at N = 64 while the
    admissibility profile was copied into a signal of 2^n blades and the
    boundary mass summed a squared copy of the input's blades; with the
    profile built in place of the pass's sum, after the block buffer is
    released, and the squares added a blade at a time, it is 3.56 and
    27.4 MB; with an off-lattice node opened and transformed in one array,
    23.4 MB at N = 64.  One untraced transform runs first."""
    import tracemalloc

    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--n", "3", "--sigma", "0.8",
          "--half-width", "4", "--samples", str(samples), "--out", str(src)])
    per_axis = [[-2.71, 0.93, 1.87], [-1.44, 1.12, 2.56], [-2.2, 0.71, 2.93]]
    argv = ["transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
            "--window", "gaussian", "--sigma", "1",
            "--u-list", json.dumps({"kind": "tensor", "per_axis": per_axis}),
            "--out", str(tmp_path / "vol.clcg")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_cli_lattice_transform_peak_is_not_its_block_buffer(tmp_path):
    """An n = 2 transform of the analyze-lattice-n2 benchmark's inputs (DOG
    lambda = 0.5, default lists, N = 64, 1,024 factored u) peaked at 3.53 MB
    traced while its block buffer held 32 rows counted by every pair of the
    algebra, 2.10 MB; with factored blocks of at most BLOCK_BYTES / 8 of
    stored rows, 0.52 MB, it peaks at 1.84 MB.  One untraced transform runs
    first."""
    import tracemalloc

    src = tmp_path / "f.clcg"
    assert main(["synthesize", "--kind", "example1", "--n", "2", "--half-width", "6",
                 "--samples", "64", "--out", str(src)]) == 0
    argv = ["transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
            "--window", "dog", "--lam", "0.5", "--out", str(tmp_path / "vol.clcg")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def roundtrip_volume(tmp_path):
    """The roundtrip-lattice-n2 benchmark's volume: 2209 lattice u at N = 48,
    one stored column of the input's one live pair, 36,864 bytes a row."""
    src, vol = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    assert main(["synthesize", "--kind", "gaussian_mixture", "--n", "2", "--half-width", "6",
                 "--samples", "48", "--seed", "3", "--out", str(src)]) == 0
    ks = [k for k in range(-24, 24) if k != 0]
    assert main(transform_argv(src, vol, json.dumps({"kind": "multiples",
                                                     "per_axis": [ks, ks]}))) == 0
    return vol


def traced_peak(argv):
    """The traced peak of one command, run once untraced first."""
    import tracemalloc

    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_marginal_reads_its_column_in_slabs(tmp_path, monkeypatch):
    """reconstruct --method marginal takes one dot product per stored row,
    so it reads its one column in slabs of at most BLOCK_BYTES / 8 of stored
    rows, the bound of a factored block of the analysis, not in blocks of
    BLOCK_BYTES.  On the roundtrip-lattice-n2 volume its traced peak was
    4.71 MB with 113-row blocks of 4.2 MB, 1.58 MB with slabs of 1 MiB and
    the sidecar's lists parsed as Python floats, and is 1.11 MB, within
    1 MiB plus 8 (n + 1) + 16 P bytes a u row: the u list and weights and
    the marginal's per-row G."""
    from clcst.volume import BLOCK_BYTES, CLCSTVolume

    vol = roundtrip_volume(tmp_path)
    slabs, blocks = [], CLCSTVolume.blocks

    def spied(self, column=None, rows=None):
        slabs.append(rows)
        return blocks(self, column, rows)

    monkeypatch.setattr(CLCSTVolume, "blocks", spied)
    peak = traced_peak(["reconstruct", "--volume", str(vol), "--method", "marginal",
                        "--out", str(tmp_path / "marginal.clcg")])
    assert slabs == [max(1, BLOCK_BYTES // 8 // (16 * 48 * 48))] * 2
    assert peak < 2**20 + 2209 * (8 * (2 + 1) + 16 * 1)


def test_cli_resolution_synthesis_holds_its_rows_once(tmp_path):
    """reconstruct --method resolution reads each block of rows into one
    buffer of the pass, which its route weights and transforms in place.
    On the roundtrip-lattice-n2 volume its traced peak was 2.07 MB with a
    weighted copy of each block and the sidecar's u list parsed as Python
    floats, and is 1.52 MB: below the transform's 1.64 MB."""
    vol = roundtrip_volume(tmp_path)
    peak = traced_peak(["reconstruct", "--volume", str(vol), "--method", "resolution",
                        "--out", str(tmp_path / "resolution.clcg")])
    assert peak < 1.8e6


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


@pytest.mark.parametrize("corner, warned", [
    (None, False), (2e-5, False), (5e-5, True), ("flat", True),
], ids=["centred-gaussian", "below-threshold", "above-threshold", "flat"])
def test_cli_transform_warns_of_boundary_mass(tmp_path, corner, warned):
    """The report warns when the outermost lattice shell carries more than
    1e-10 of the signal energy: not for a centred Gaussian, on either side
    of the threshold for a Gaussian with one corner sample set, and for a
    signal of unit magnitude everywhere."""
    if corner == "flat":
        signal = GridSignal.from_scalar(SPEC, CTX, np.ones(SPEC.shape))
    else:
        signal = sample(lambda x: np.exp(-np.sum(x**2, axis=0)), SPEC, CTX)
        if corner is not None:
            signal.data[0, 0, 0] = corner
            assert (signal.boundary_mass_ratio() > 1e-10) == warned
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    write_grid(src, signal)
    assert main([
        "transform", "--input", str(src), "--u-list", "[[0.5, 0.5]]", "--theta", "0",
        "--out", str(out),
    ]) == 0
    report = json.loads((tmp_path / "vol.clcg.report.json").read_text())
    boundary = [w for w in report["warnings"] if w.startswith("boundary shell carries")]
    assert len(boundary) == int(warned)


def test_cli_partial_config_keeps_flag_defaults(tmp_path):
    """A config section merges key by key over the flags: a file's grid.L
    keeps --samples' N, and its window.sigma keeps the default window kind."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"L": 6}}))
    src = tmp_path / "f.clcg"
    assert main(["synthesize", "--kind", "gaussian", "--half-width", "4", "--samples", "32",
                 "--config", str(cfg), "--out", str(src)]) == 0
    spec = read_grid(src).spec
    assert (spec.half_width, spec.samples_per_axis) == (6.0, 32)
    cfg.write_text(json.dumps({"window": {"sigma": 0.8}}))
    out = tmp_path / "vol.clcg"
    assert main([
        "transform", "--input", str(src), "--u-list", "[[0.5, 0.5]]", "--theta", "0",
        "--config", str(cfg), "--out", str(out),
    ]) == 0
    report = json.loads((tmp_path / "vol.clcg.report.json").read_text())
    assert report["config"]["window"]["kind"] == "gaussian"
    assert report["config"]["window"]["sigma"] == 0.8
    assert read_volume(out).window.sigma == 0.8


@pytest.mark.parametrize("command, doc, message", [
    ("transform", {"theta_lst": [0.0]}, "unknown config key 'theta_lst'"),
    ("transform", {"window": {"sigmaa": 1}}, "unknown config key 'window.sigmaa'"),
    ("transform", {"window": 1}, "config window must be an object"),
    ("transform", {"window": {"normalization": "unit_integral"}}, "window.normalization"),
    ("transform", {"grid": {"L": 6}}, "unknown config key 'grid'"),
    ("transform", {"u_list": {"kind": "multiple", "per_axis": [[1], [1]]}}, "config u_list"),
    ("transform", {"u_list": {"kind": "tensor"}}, "config u_list"),
    ("transform", [1], "config file must be an object"),
    ("synthesize", {"grid.L": 6}, "unknown config key 'grid.L'"),
    ("kernel-dump", {"grid": {"L": 6, "n": 3}}, "unknown config key 'grid.n'"),
    ("synthesize", {"grid": {"N": "16"}}, "config grid.N must be an integer, got '16'"),
    ("synthesize", {"grid": {"N": 16.0}}, "config grid.N must be an integer"),
    ("synthesize", {"seed": True}, "config seed must be an integer"),
    ("transform", {"theta_list": "0,1"}, "config theta_list must be a list of numbers"),
    ("transform", {"path": "fast"}, "config path must be one of direct, three_step, spectral"),
    ("transform", {"window": {"kind": "Foo"}}, "config window.kind must be one of gaussian, dog"),
], ids=["unknown-top", "unknown-nested", "scalar-section", "normalization", "transform-grid",
        "u-list-kind", "u-list-per-axis", "list-document", "dotted-key", "misplaced-key",
        "string-int", "float-int", "bool-int", "string-list", "path-choice", "window-choice"])
def test_cli_config_refuses_keys_that_name_no_setting(tmp_path, command, doc, message):
    """A config key that names no setting of the command, a section that is
    not an object, and a value the setting cannot take are refused before
    any output file exists."""
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.clcg"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg), "--out", str(out)]
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(argv + (["--input", str(src)] if command == "transform" else []))
    assert not out.exists()
    assert not (tmp_path / "out.clcg.json").exists()


@pytest.mark.parametrize("command, content, message", [
    ("synthesize", b'{"grid": ', r"config file \S+cfg\.json is not UTF-8 JSON: Expecting value: "
     r"line 1 column 10 \(char 9\)"),
    ("synthesize", b'\xff{}', r"config file \S+cfg\.json is not UTF-8 JSON: 'utf-8' codec can't "
     r"decode byte 0xff in position 0: invalid start byte"),
    ("synthesize", b'{"grid": {"L": ' + b"9" * 400 + b"}}",
     r"config grid\.L holds 9{400}, which is not finite"),
    ("transform", b'{"theta_list": [0, 1' + b"0" * 400 + b"]}",
     r"config theta_list holds 10{400}, which is not finite"),
], ids=["not-json", "not-utf-8", "integer-past-float-range", "list-integer-past-float-range"])
def test_cli_config_file_errors_end_in_one_line(tmp_path, command, content, message):
    """A --config file that is not UTF-8 JSON, or that holds an integer
    past the float range for a number setting, ends in one line naming the
    file or the key, before any output file exists."""
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.clcg"
    cfg.write_bytes(content)
    argv = [command, "--config", str(cfg), "--out", str(out)]
    with pytest.raises(SystemExit) as err:
        main(argv + (["--input", str(src)] if command == "transform" else []))
    assert re.fullmatch(message, str(err.value))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "f.clcg", "f.clcg.json"]


@pytest.mark.parametrize("flags, message", [
    (["--n", "4"], "the command line supports n = 2 or 3 (core: any n = 2,3 mod 4)"),
    (["--kind", "example1", "--n", "3"], "example1 is the two-dimensional reference signal"),
], ids=["n-4", "example1-n-3"])
def test_cli_synthesis_refuses_a_dimension_it_cannot_make(tmp_path, flags, message):
    with pytest.raises(SystemExit) as err:
        main(["synthesize", "--samples", "8", "--out", str(tmp_path / "f.clcg")] + flags)
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []


def test_cli_reconstruct_refuses_a_volume_without_a_parameter_matrix(tmp_path):
    vol = small_volume(radial=True)
    vol.params = None
    path, out = tmp_path / "v.clcg", tmp_path / "rec.clcg"
    write_volume(path, vol)
    for method in ("marginal", "resolution"):
        with pytest.raises(SystemExit) as err:
            main(["reconstruct", "--volume", str(path), "--method", method, "--out", str(out)])
        assert str(err.value) == "volume carries no parameter matrix"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.clcg", "v.clcg.json"]


def cli_error_classes():
    """Every exception class defined in a module that clcst.cli imports from,
    read from its source, but the warnings, which the CLI records rather
    than raises, and verify.UnknownSuite, which cmd_verify words itself."""
    import ast
    import importlib
    import inspect

    from clcst import cli

    modules = sorted({node.module for node in ast.walk(ast.parse(inspect.getsource(cli)))
                      if isinstance(node, ast.ImportFrom) and node.level == 1})
    found = []
    for name in modules:
        module = importlib.import_module("clcst." + name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, Exception) and not issubclass(cls, Warning)
                  and cls.__module__ == module.__name__ and cls.__name__ != "UnknownSuite"]
    return found


@pytest.mark.parametrize("error", cli_error_classes(), ids=lambda cls: cls.__qualname__)
def test_every_library_error_ends_the_cli_in_one_line(tmp_path, monkeypatch, error):
    """A library error raised inside a command ends it in a one-line exit,
    named by its command, with no traceback: a new error class that main
    does not catch fails here."""
    from clcst import cli

    def fails(args):
        raise error("the library refused")

    monkeypatch.setattr(cli, "cmd_synthesize", fails)
    with pytest.raises(SystemExit) as err:
        cli.main(["synthesize", "--out", str(tmp_path / "f.clcg")])
    assert str(err.value) == "clcst synthesize: the library refused"
    assert err.value.__cause__ is None and err.value.__suppress_context__


def test_cli_malformed_theta_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["transform", "--input", str(tmp_path / "f.clcg"), "--theta", "0,x",
              "--out", str(tmp_path / "vol.clcg")])
    assert err.value.code == 2
    assert "--theta" in capsys.readouterr().err


def test_cli_u_list_rows_must_have_n_components(tmp_path):
    """An n = 2 input with rows of three u components is refused, not re-cut
    into three rows of two."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    with pytest.raises(SystemExit, match="rows of n = 2"):
        main(["transform", "--input", str(src), "--u-list", "[[0.5,0.5,0.7],[0.9,1.1,1.3]]",
              "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--theta", "0,nan"],
    ["--theta", "0,inf"],
    ["--u-list", "[[1.0, NaN]]"],
    ["--u-list", "[[1.0, Infinity]]"],
], ids=["theta-nan", "theta-inf", "u-nan", "u-inf"])
def test_cli_non_finite_lists_write_nothing(tmp_path, flags):
    """A NaN or infinite angle or u component is refused before the volume
    is written, not stored in a sidecar that reconstruct then refuses."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    with pytest.raises(SystemExit, match="not finite"):
        main(["transform", "--input", str(src), "--out", str(out)] + flags)
    assert not out.exists()
    assert not (tmp_path / "vol.clcg.json").exists()


@pytest.mark.parametrize("u_spec, message", [
    ('{"kind": "tensor", "per_axis": 5}', "--u-list per_axis must be a list of lists"),
    ('{"kind": "tensor", "per_axis": [1, 2]}', "--u-list per_axis[0] must be a list of numbers"),
    ('{"kind": "tensor", "per_axis": [["a"], [1]]}', "--u-list per_axis[0] holds 'a'"),
    ('{"kind": "multiples", "per_axis": [[1], [true]]}', "--u-list per_axis[1] holds True"),
    ('[["a", 1]]', "--u-list row 0 holds 'a'"),
    ('[[1, true]]', "--u-list row 0 holds True"),
    ('[[[1]], [1]]', "--u-list row 0 holds [1]"),
    ('[[1, 2], [1]]', "--u-list must hold rows of n = 2 numbers; row 1 is [1]"),
    ('[[1e999, 1]]', "--u-list row 0 holds inf, which is not finite"),
    ('[[1%s, 1]]' % ("0" * 400), "which is not finite"),
], ids=["per-axis-number", "per-axis-flat", "per-axis-string", "per-axis-bool", "row-string",
        "row-bool", "row-nested", "row-ragged", "row-overflow", "row-huge-int"])
def test_cli_malformed_u_list_writes_nothing(tmp_path, u_spec, message):
    """A --u-list of another nesting than rows of n numbers or per-axis
    lists of numbers, or holding a bool, a string or a number past the
    float range, is refused in one line before anything is written."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    with pytest.raises(SystemExit, match=re.escape(message)) as err:
        main(["transform", "--input", str(src), "--out", str(out), "--u-list", u_spec])
    assert "\n" not in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.clcg", "f.clcg.json"]


@pytest.mark.parametrize("flags", [["--sigma", "nan"], ["--sigma", "inf"], "config"],
                         ids=["flag-nan", "flag-inf", "config-nan"])
def test_cli_non_finite_window_sigma_writes_nothing(tmp_path, flags):
    """A NaN or infinite window sigma, from the flag or a --config file, is
    refused before the volume is written, not stored in a sidecar that
    reconstruct then refuses."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    if flags == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"window": {"sigma": NaN}}')
        flags = ["--config", str(cfg)]
    with pytest.raises(SystemExit) as err:
        main(["transform", "--input", str(src), "--out", str(out)] + flags)
    assert re.fullmatch(r"clcst transform: sigma must be positive and finite, got (nan|inf)",
                        str(err.value))
    assert not out.exists() and not (tmp_path / "vol.clcg.json").exists()
    assert not (tmp_path / "vol.clcg.report.json").exists()


def test_cli_failed_allocation_is_one_line(tmp_path):
    """A grid too large to allocate ends in the one-line exit of the library
    errors, naming the size numpy could not allocate, not in a traceback;
    the request is refused at once, so nothing is allocated."""
    out = tmp_path / "big.clcg"
    with pytest.raises(SystemExit) as err:
        main(["synthesize", "--n", "3", "--samples", "100000", "--out", str(out)])
    assert str(err.value).startswith("clcst synthesize: Unable to allocate")
    assert "\n" not in str(err.value)
    assert not out.exists()


@pytest.mark.parametrize("flags, config, message", [
    (["--kind", "chirp", "--rate", "1e308"], None, "got --rate 1e+308 at --half-width 6.0"),
    (["--kind", "chirp", "--half-width", "1e200"], None, "got --rate 0.5 at --half-width 1e+200"),
    (["--kind", "gaussian_mixture", "--seed", "-1"], None, "--seed must be non-negative, got -1"),
    (["--kind", "gaussian_mixture"], {"seed": -1}, "--seed must be non-negative, got -1"),
], ids=["rate-overflows", "half-width-overflows", "negative-seed", "negative-seed-config"])
def test_cli_synthesis_refuses_a_chirp_or_seed_it_cannot_use(tmp_path, flags, config, message):
    """A chirp whose phase rate |x|^2 overflows on the lattice wrote a grid
    of mostly non-finite samples, and a negative seed, as a flag or from
    --config, ended in numpy's traceback; each is refused in one line that
    names the value, and nothing is written."""
    out = tmp_path / "f.clcg"
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        flags = flags + ["--config", str(tmp_path / "run.json")]
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main(["synthesize", "--samples", "16", "--out", str(out)] + flags)
    assert message in str(err.value) and "\n" not in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_cli_chirp_of_rate_zero_is_ones_on_any_lattice(tmp_path):
    """A chirp of rate 0 is no chirp: it is not refused, and it writes ones
    even where the lattice's |x|^2 overflows, where 0 x inf would be NaN."""
    out = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "chirp", "--rate", "0", "--half-width", "1e200",
          "--samples", "8", "--out", str(out)])
    data = read_grid(out).data
    assert np.all(data[0] == 1.0) and np.all(data[1:] == 0.0)


@pytest.mark.parametrize("command", ["transform", "kernel-dump"])
def test_cli_refuses_a_half_width_whose_square_overflows(tmp_path, command):
    """The chirp test took L**2 as a float power, which raises OverflowError
    past the float range, and ended in a traceback; a half-width whose
    square overflows is refused in one line that names it."""
    spec = GridSpec(2, 1e200, 16)
    src, out = tmp_path / "f.clcg", tmp_path / "out.clcg"
    write_grid(src, GridSignal.zero(spec, CTX))
    where = (["--input", str(src)] if command == "transform"
             else ["--half-width", "1e200", "--samples", "16"])
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main([command, *where, "--out", str(out)])
    assert "L = 1e+200" in str(err.value) and "\n" not in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_cli_resolution_refuses_a_volume_without_a_window(tmp_path):
    """A volume whose sidecar window is null cannot be synthesized by the
    resolution formula: it is refused before any pass, naming the cause and
    not the transform, and no grid is written."""
    rng = np.random.default_rng(3)
    shape = (2, 1, CTX.blade_count // 2) + SPEC.shape
    stored = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vol = CLCSTVolume(SPEC, CTX, [[1.0, 1.0], [2.0, -1.0]], [0.0], stored=stored,
                      params=LCTParams(1, 2, 1, 3), window=None, path="three_step")
    write_volume(tmp_path / "vol.clcg", vol)
    assert read_volume(tmp_path / "vol.clcg").window is None
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--volume", str(tmp_path / "vol.clcg"), "--method", "resolution",
              "--out", str(tmp_path / "rec.clcg")])
    assert str(err.value) == "volume carries no window; the resolution synthesis needs one"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_cli_empty_u_list_writes_nothing(tmp_path):
    """A tensor u list with no value on an axis has no rows: the transform
    exits with one line and writes no volume, sidecar or report, instead of
    an empty volume whose report holds a relative variation of Infinity."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    with pytest.raises(SystemExit) as err:
        main(["transform", "--input", str(src), "--out", str(out),
              "--u-list", '{"kind": "tensor", "per_axis": [[], [1.0]]}'])
    assert str(err.value) == ("clcst transform: u list is empty; "
                              "a (u, theta) set must be non-empty")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.clcg", "f.clcg.json"]


def test_cli_empty_default_u_list_names_its_cause(tmp_path):
    """The default u list has N / 4 values per axis, none below N = 4: a
    transform with no --u-list of a grid of N = 2 says so, and how to mend
    it, in one line and writes nothing."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "2", "--out", str(src)])
    with pytest.raises(SystemExit) as err:
        main(["transform", "--input", str(src), "--out", str(out)])
    assert str(err.value) == ("the default u list is empty at N = 2 samples per axis: "
                              "it needs N >= 4, or an explicit --u-list")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.clcg", "f.clcg.json"]


def test_cli_config_replays_its_report(tmp_path):
    """A transform report's config, given back as --config with no other
    setting flag, writes the same volume byte for byte."""
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian_mixture", "--samples", "16", "--out", str(src)])
    first, second = tmp_path / "first.clcg", tmp_path / "second.clcg"
    assert main([
        "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--window", "dog", "--lam", "0.4",
        "--u-list", json.dumps({"kind": "multiples", "per_axis": [[-2, 1, 3], [1, 2]]}),
        "--theta", "0,0.7", "--path", "direct", "--out", str(first),
    ]) == 0
    cfg = tmp_path / "cfg.json"
    report = json.loads((tmp_path / "first.clcg.report.json").read_text())
    cfg.write_text(json.dumps(report["config"]))
    assert main(["transform", "--input", str(src), "--config", str(cfg), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert read_volume(second).window.lam == 0.4


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
    assert report["peak_rss_mb"] > 0
    for theta in ("0.5", "nan"):  # no column of the volume holds it
        absent = tmp_path / ("theta-%s.clcg" % theta)
        with pytest.raises(SystemExit, match="not present"):
            main(["reconstruct", "--volume", str(vol), "--method", "marginal",
                  "--theta", theta, "--out", str(absent)])
        assert not absent.exists()
    # at N = 8 the k = 0 fill would read the bins at N/2 + 4 = 8, past the lattice
    small, small_vol = tmp_path / "f8.clcg", tmp_path / "vol8.clcg"
    main(["synthesize", "--kind", "gaussian_mixture", "--samples", "8", "--out", str(small)])
    ks = [k for k in range(-4, 4) if k != 0]
    main(["transform", "--input", str(small), "--sigma", "0.75", "--normalize", "--u-list",
          json.dumps({"kind": "multiples", "per_axis": [ks, ks]}), "--out", str(small_vol)])
    refused = tmp_path / "rec8.clcg"
    with pytest.raises(SystemExit, match="needs N >= 10 samples per axis, got N = 8") as err:
        main(["reconstruct", "--volume", str(small_vol), "--method", "marginal",
              "--out", str(refused)])
    assert "\n" not in str(err.value)
    assert not refused.exists()
    assert not (tmp_path / "rec8.clcg.report.json").exists()


def test_cli_kernel_dump(tmp_path):
    out = tmp_path / "k.clcg"
    assert main([
        "kernel-dump", "--samples", "32", "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--u", "1.0,1.5", "--theta", "0.7", "--b", "0.5,-0.5", "--out", str(out),
    ]) == 0
    k = read_grid(out)
    assert k.data.shape == (4, 32, 32)
    assert np.max(np.abs(k.data)) > 0


def test_cli_kernel_dump_defaults_fit_n(tmp_path):
    """Without --b and --u, kernel-dump takes b at the origin and u all ones
    for any n."""
    out, explicit = tmp_path / "k.clcg", tmp_path / "k_explicit.clcg"
    assert main(["kernel-dump", "--n", "3", "--samples", "16", "--out", str(out)]) == 0
    assert read_grid(out).data.shape == (8, 16, 16, 16)
    assert main(["kernel-dump", "--n", "3", "--samples", "16", "--b", "0,0,0", "--u", "1,1,1",
                 "--out", str(explicit)]) == 0
    assert out.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--b", "nan,0"], "--b expects 2 comma-separated finite values"),
    (["--u", "inf,1"], "--u expects 2 comma-separated finite values"),
    (["--theta", "nan"], "--theta must be finite"),
    (["--b", "1e308,0"], "non-finite samples"),
], ids=["b-nan", "u-inf", "theta-nan", "b-overflows"])
def test_cli_kernel_dump_refuses_non_finite_samples(tmp_path, flags, message):
    """A non-finite --b, --u or --theta, or a finite b so far out that the
    kernel's phase overflows, is refused in one line and writes nothing."""
    out = tmp_path / "k.clcg"
    with pytest.raises(SystemExit) as err:
        main(["kernel-dump", "--samples", "16", *flags, "--out", str(out)])
    assert message in str(err.value) and "\n" not in str(err.value)
    assert not out.exists() and not (tmp_path / "k.clcg.json").exists()


@pytest.mark.parametrize("command", ["transform", "kernel-dump"])
@pytest.mark.parametrize("flags, message", [
    (["--sigma", "1e300"], "sigma = 1e+300 is out of range: its square inf overflows"),
    (["--sigma", "1e-300"], "sigma = 1e-300 is out of range: its square 0.0 underflows"),
    (["--window", "dog", "--lam", "1e-200"], "lam = 1e-200 is out of range"),
], ids=["sigma-overflows", "sigma-underflows", "lam-underflows"])
def test_cli_refuses_a_window_scale_whose_square_is_not_normal(tmp_path, command, flags, message):
    """A window scale whose square overflows or underflows ended in an
    OverflowError or ZeroDivisionError traceback, or in a volume of NaN
    values; it is refused in one line, and nothing is written."""
    src, out = tmp_path / "f.clcg", tmp_path / "out.clcg"
    assert main(["synthesize", "--kind", "gaussian", "--samples", "8", "--out", str(src)]) == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    where = ["--input", str(src)] if command == "transform" else ["--samples", "8"]
    with pytest.raises(SystemExit) as err:
        main([command, *where, *flags, "--out", str(out)])
    assert message in str(err.value) and "\n" not in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, flags, message", [
    ("transform", ["--A", "nan"], "A = nan is not finite"),
    ("transform", ["--C", "inf"], "C = inf is not finite"),
    ("synthesize", ["--kind", "gaussian", "--sigma", "1e-200"],
     "sigma = 1e-200 is out of range: its square 0.0 underflows"),
    ("synthesize", ["--kind", "gaussian", "--sigma", "1e200"],
     "sigma = 1e+200 is out of range: its square inf overflows"),
    ("transform", ["--sigma", "1e-153", "--normalize"],
     "window integral 6.28319e-306 over R^2 is out of range for unit normalization: "
     "the amplitude 1.59155e+305 squares to inf"),
], ids=["A-nan", "C-inf", "synthesis-sigma-underflows", "synthesis-sigma-overflows",
        "unit-amplitude-overflows"])
def test_cli_refuses_what_would_end_in_non_finite_output(tmp_path, command, flags, message):
    """A NaN or infinite entry of M was refused as a chirp phase that is
    not finite, or as AD - BC != 1, without naming the entry; a synthesis
    sigma whose square underflows wrote a NaN sample, and one whose square
    overflows ended in an OverflowError; a window whose integral is a
    normal number but whose unit amplitude squares past the float range was
    refused as one that integrates to zero.  Each is refused in one line
    that names the value, and nothing is written."""
    src, out = tmp_path / "f.clcg", tmp_path / "out.clcg"
    assert main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)]) == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    where = ["--input", str(src)] if command == "transform" else ["--samples", "16"]
    with pytest.raises(SystemExit) as err:
        main([command, *where, *flags, "--out", str(out)])
    assert message in str(err.value) and "\n" not in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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


def test_cli_import_leaves_the_check_registry_unloaded():
    """Only `clcst verify` loads the check registry, and a bare `import clcst`
    loads no submodule."""
    import os
    import subprocess
    import sys

    import clcst

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(clcst.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = "import sys, clcst.cli; print('clcst.verify' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
    # the package itself loads no submodule
    probe = "import sys, clcst; print(sorted(m for m in sys.modules if m.startswith('clcst.')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


TOKEN_COUNT_PROBE = """
import json, sys, tokenize
import clcst.cli
skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
counts = {}
for name, module in sorted(sys.modules.items()):
    if name == "clcst" or name.startswith("clcst."):
        with open(module.__file__, "rb") as fh:
            counts[name] = sum(t.type not in skipped for t in tokenize.tokenize(fh.readline))
print(json.dumps(counts))
"""


def test_command_path_modules_stay_below_the_parser_token_step():
    """Every clcst module that `import clcst.cli` loads, in a fresh process,
    has at most 7,500 parser tokens, comments, blank lines and the encoding
    left out.  A command compiles them from source when no bytecode is
    cached, and CPython's parser holds a module's tokens in an array that
    doubles at 8,192: stockwell.py at 8,335 tokens raised peak RSS on every
    benchmark workload by about 0.4 MB.  clcst.verify (8,224 tokens), which
    only `clcst verify` loads, is not on that path."""
    import os
    import subprocess
    import sys

    import clcst

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(clcst.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", TOKEN_COUNT_PROBE], env=env,
                            capture_output=True, text=True, check=True)
    counts = json.loads(result.stdout)
    assert {"clcst.cli", "clcst.stockwell", "clcst.transform"} <= set(counts)
    assert "clcst.verify" not in counts
    assert {name: count for name, count in counts.items() if count > 7500} == {}


NO_MASKED_ARRAYS_PROBE = """
import json, os, sys
from clcst.cli import main
work = sys.argv[1]
src, vol = os.path.join(work, "f.clcg"), os.path.join(work, "vol.clcg")
half_steps = [k / 2 for k in range(-16, 16) if k]
u_spec = json.dumps({"kind": "multiples", "per_axis": [half_steps, half_steps]})
main(["synthesize", "--kind", "gaussian_mixture", "--samples", "16", "--out", src])
main(["transform", "--input", src, "--sigma", "0.75", "--normalize", "--u-list", u_spec,
      "--theta", "0,0.5", "--out", vol])
for method in ("marginal", "resolution"):
    main(["reconstruct", "--volume", vol, "--method", method,
          "--out", os.path.join(work, method + ".clcg")])
print("numpy.ma" in sys.modules, "clcst.verify" in sys.modules)
"""


def test_cli_pipeline_never_imports_numpy_ma(tmp_path):
    """A fresh process that runs synthesize, transform on a u list that
    mixes lattice and off-lattice values, and both reconstructions never
    imports numpy.ma, which np.unique and np.median load lazily at a cost
    of about 10 ms, nor the check registry and its oracles, clcst.verify."""
    import os
    import subprocess
    import sys

    import clcst

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(clcst.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS_PROBE, str(tmp_path)],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "False False"
    assert (tmp_path / "resolution.clcg").exists()


@pytest.mark.parametrize("window", ["gaussian", "dog"])
def test_cli_resolution_takes_c_psi_from_its_own_pass(tmp_path, window):
    """On lattice and off-lattice u, `reconstruct --method resolution` gives
    the output of reconstruct_resolution, and admissibility stats equal to
    those of the standalone admissibility_profile."""
    from clcst.transform import admissibility_profile, reconstruct_resolution

    spec = GridSpec(2, 6.0, 16)
    src = tmp_path / "f.clcg"
    main(["synthesize", "--kind", "gaussian_mixture", "--samples", "16", "--out", str(src)])
    steps = [[1, 2], [-3, 5], [-8, 1], [0.37, -1.3], [-2.5, 0.8]]
    u_spec = json.dumps([[a * spec.dw, b * spec.dw] for a, b in steps])
    vol_path, rec = tmp_path / "vol.clcg", tmp_path / "rec.clcg"
    assert main([
        "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--window", window, "--u-list", u_spec, "--theta", "0,0.7", "--out", str(vol_path),
    ]) == 0
    assert main(["reconstruct", "--volume", str(vol_path), "--method", "resolution",
                 "--out", str(rec)]) == 0
    vol = read_volume(vol_path)
    _, stats = admissibility_profile(vol.window, vol.params, vol.spec,
                                     vol.u_list, vol.theta_list)
    expect = reconstruct_resolution(vol, vol.window, vol.params)[0].data
    got = read_grid(rec).data
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    report = json.loads((tmp_path / "rec.clcg.report.json").read_text())
    assert report["admissibility"] == pytest.approx(stats, rel=1e-13)


def test_cli_library_errors_exit_with_one_line(tmp_path):
    """A refusal raised in the library under ``main`` exits with one line
    naming the command, not a traceback: a malformed sidecar window, named
    with its volume's path, and a parameter matrix with AD - BC != 1."""
    src, vol_path = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    assert main([
        "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--u-list", json.dumps({"kind": "multiples", "per_axis": [[1, 2], [1, 2]]}),
        "--theta", "0", "--out", str(vol_path),
    ]) == 0
    sidecar = tmp_path / "vol.clcg.json"
    meta = json.loads(sidecar.read_text())
    meta["window"]["sigma"] = True
    sidecar.write_text(json.dumps(meta))
    rec = tmp_path / "rec.clcg"
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--volume", str(vol_path), "--method", "resolution",
              "--out", str(rec)])
    message = "clcst reconstruct: %s: window sigma True is not a finite number" % vol_path
    assert err.value.code == message
    assert not rec.exists()
    kernel = tmp_path / "k.clcg"
    with pytest.raises(SystemExit, match="^clcst kernel-dump: AD - BC = 0.0, expected 1$"):
        main(["kernel-dump", "--samples", "8", "--A", "1", "--B", "1", "--C", "1", "--D", "1",
              "--out", str(kernel)])
    assert not kernel.exists()


def test_cli_transform_of_a_missing_input_exits_with_one_line(tmp_path):
    missing = tmp_path / "missing.bin"
    with pytest.raises(SystemExit) as err:
        main(["transform", "--input", str(missing), "--out", str(tmp_path / "vol.clcg")])
    assert err.value.code == "clcst transform: [Errno 2] No such file or directory: %r" % str(missing)


def test_cli_reconstruct_without_a_sidecar_exits_with_one_line(tmp_path):
    src, vol_path = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    assert main(transform_argv(src, vol_path, json.dumps([[1.0, 1.0]]))) == 0
    sidecar = tmp_path / "vol.clcg.json"
    sidecar.unlink()
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--volume", str(vol_path), "--method", "resolution",
              "--out", str(tmp_path / "rec.clcg")])
    assert err.value.code == "clcst reconstruct: [Errno 2] No such file or directory: %r" % str(sidecar)


def zero_u(path, meta):
    """Set the first component of the volume file's first u to zero."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, header_size(2), 0.0)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("edit, message", [
    (zero_u, "zero component"),
    (lambda path, meta: meta["theta_list"].__setitem__(1, meta["theta_list"][0]),
     "repeats an angle"),
], ids=["zero-u", "repeated-theta"])
def test_cli_resolution_refuses_a_bad_sidecar_list(tmp_path, edit, message):
    """The u list of a volume file and the theta list of its sidecar are
    input: a zero u component or a repeated theta is refused, not
    synthesized with a zero or wrong weight."""
    src, vol_path = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian_mixture", "--samples", "16", "--out", str(src)])
    assert main([
        "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--u-list", json.dumps({"kind": "multiples", "per_axis": [[1, 2], [1, 2]]}),
        "--theta", "0,0.7", "--out", str(vol_path),
    ]) == 0
    sidecar = tmp_path / "vol.clcg.json"
    meta = json.loads(sidecar.read_text())
    edit(vol_path, meta)
    sidecar.write_text(json.dumps(meta))
    rec = tmp_path / "rec.clcg"
    with pytest.raises(SystemExit, match=message):
        main(["reconstruct", "--volume", str(vol_path), "--method", "resolution",
              "--out", str(rec)])
    assert not rec.exists()


@pytest.mark.parametrize("M, aliased", [((1, 2, 1, 3), False), ((1, 1, 0, 1), True)])
def test_cli_transform_reports_the_chirp_aliasing_margin(tmp_path, M, aliased):
    """The margin pi/dx - |A/B| L is always reported; at or below zero it is
    also a warning.  N = 16 on L = 6 gives pi/dx = 4.19 against |A/B| L = 3
    and 6."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian", "--samples", "16", "--out", str(src)])
    A, B, C, D = (str(v) for v in M)
    assert main([
        "transform", "--input", str(src), "--A", A, "--B", B, "--C", C, "--D", D,
        "--u-list", json.dumps({"kind": "multiples", "per_axis": [[1], [2]]}), "--out", str(out),
    ]) == 0
    report = json.loads((tmp_path / "vol.clcg.report.json").read_text())
    expect = np.pi / 0.75 - abs(M[0] / M[1]) * 6.0
    assert report["chirp_aliasing_margin"] == pytest.approx(expect, rel=1e-15)
    warned = [w for w in report["warnings"] if "Nyquist" in w]
    assert len(warned) == int(aliased)
