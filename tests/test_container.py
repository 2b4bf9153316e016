"""The version 4 volume container: the u list, weights and stored complex
pairs byte for byte, the pairs listed in the sidecar, and every malformed
file refused with FormatError."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcst.algebra import transform_algebra
from clcst.cli import main
from clcst.grid import GridSignal, GridSpec, pack
from clcst.io import FormatError, read_grid, read_volume, write_grid, write_volume
from clcst.lct import LCTParams
from clcst.transform import clcst, reconstruct_marginal, reconstruct_resolution
from clcst.volume import CLCSTVolume
from clcst.windows import GaussianWindow

M = LCTParams(1, 2, 1, 3)
THETAS = [0.0, 0.5, 1.0]


def header_size(n):
    return 4 + 2 * 3 + 4 * (n + 2) + 4  # magic, version n axes, (U, T_s) + b sizes, pairs


def lists_size(n, u_count):
    return 8 * u_count * (n + 1)  # the u list and its weights


def random_volume(n, pairs, columns, seed, u_count=2, u=None, u_weights=None):
    """A volume of random stored pairs on a small lattice, its u list random
    unless given: of 1 column, its window radial, or of T, with no window."""
    spec, ctx = GridSpec(n, 4.0, 4), transform_algebra(n)
    rng = np.random.default_rng(seed)
    shape = (u_count, columns, len(pairs)) + spec.shape
    stored = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if u is None:
        u = rng.uniform(0.5, 2.0, size=(u_count, n))
    return CLCSTVolume(spec, ctx, u, THETAS, stored=stored, params=M, u_weights=u_weights,
                       window=GaussianWindow(n, sigma=0.8) if columns == 1 else None,
                       path="three_step", pairs=pairs)


def test_sidecar_is_compact_and_an_indented_one_still_reads(tmp_path):
    """The sidecar of a volume of 2500 u rows is written as compact JSON.
    One written with an indent, as earlier versions wrote it, reads to the
    same volume, which rewrites to the same bytes."""
    vol = random_volume(2, [0, 1], 1, seed=3, u_count=2500)
    first, second = tmp_path / "a.clcg", tmp_path / "b.clcg"
    write_volume(first, vol)
    compact = (tmp_path / "a.clcg.json").read_bytes()
    meta = json.loads(compact)
    assert compact == json.dumps(meta, sort_keys=True).encode()
    (tmp_path / "a.clcg.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    back = read_volume(first)
    assert back.stored.tobytes() == vol.stored.tobytes()
    assert repr(back.window) == repr(vol.window)
    write_volume(second, back)
    assert second.read_bytes() == first.read_bytes()
    assert (tmp_path / "b.clcg.json").read_bytes() == compact


# any finite double, and the edges of the doubles: signed zeros, subnormals
# and the largest
LIST_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), shared=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_version_4_round_trip_is_bit_exact(tmp_path_factory, n, shared, seed, data):
    """Any live-pair subset, T_s = 1 or T, and any finite u and weights:
    write, read and rewrite give the same bytes, and the u list, weights,
    stored pairs and values read back unchanged, bit for bit."""
    half = 2 ** (n - 1)
    pairs = sorted(data.draw(st.sets(st.integers(0, half - 1), min_size=1)))
    u = np.array(data.draw(st.lists(LIST_VALUES, min_size=2 * n, max_size=2 * n))).reshape(2, n)
    u_weights = np.array(data.draw(st.lists(LIST_VALUES, min_size=2, max_size=2)))
    vol = random_volume(n, pairs, 1 if shared else len(THETAS), seed, u=u, u_weights=u_weights)
    first, second = (tmp_path_factory.mktemp("v4") / "v.clcg" for _ in range(2))
    write_volume(first, vol)
    back = read_volume(first)
    assert back.u_list.tobytes() == u.tobytes()
    assert back.u_weights.tobytes() == u_weights.tobytes()
    assert back.pairs.tolist() == pairs
    assert back.stored_theta_columns == vol.stored_theta_columns
    assert back.stored.tobytes() == vol.stored.tobytes()
    assert np.array_equal(back.values, vol.values)
    write_volume(second, back)
    assert second.read_bytes() == first.read_bytes()
    assert (second.parent / "v.clcg.json").read_bytes() == (first.parent / "v.clcg.json").read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(part=st.sampled_from(["header", "lists", "payload", "sidecar"]), cut=st.booleans(),
       data=st.data())
def test_damaged_volume_file_raises_only_format_error(tmp_path_factory, part, cut, data):
    """A volume file or sidecar truncated, or with one bit flipped, in its
    header, u list and weights, payload or sidecar either reads as a
    volume, whose payload then loads, or raises FormatError; nothing else."""
    path = tmp_path_factory.mktemp("damaged") / "v.clcg"
    write_volume(path, random_volume(2, [1], 1, seed=3, u_count=3))
    target = path.with_name("v.clcg.json") if part == "sidecar" else path
    raw = bytearray(target.read_bytes())
    lists = header_size(2) + lists_size(2, 3)
    start, stop = {"header": (0, header_size(2)), "lists": (header_size(2), lists),
                   "payload": (lists, len(raw)), "sidecar": (0, len(raw))}[part]
    at = data.draw(st.integers(start, stop - 1))
    if cut:
        del raw[at:]
    else:
        raw[at] ^= 1 << data.draw(st.integers(0, 7))
    target.write_bytes(bytes(raw))
    try:
        vol = read_volume(path)
        vol.values
    except FormatError:
        pass


def edit_pairs(pairs):
    return lambda meta: meta.update(pairs=pairs)


def edit_window(**values):
    return lambda meta: meta["window"].update(values)


def composite_window(coefficient):
    """The volume's window as the one term of a composite of that coefficient."""
    return lambda meta: meta.update(window={"kind": "composite", "amplitude": 1.0,
                                            "normalization": "raw",
                                            "terms": [[coefficient, meta["window"]]]})


SIDECAR_EDITS = {
    "params-two": (lambda meta: meta.update(params=[1, 2]), "params"),
    "params-text": (lambda meta: meta.update(params=["1", "2", "1", "3"]), "params"),
    "pairs-unsorted": (edit_pairs([1, 0]), "pairs"),
    "pairs-repeated": (edit_pairs([0, 0]), "pairs"),
    "pairs-out-of-range": (edit_pairs([0, 2]), "pairs"),
    "pairs-fractional": (edit_pairs([0, 1.0]), "pairs"),
    "pairs-fewer-than-header": (edit_pairs([0]), "pairs"),
    "pairs-missing": (lambda meta: meta.pop("pairs"), "pairs"),
    "theta_list-null": (lambda meta: meta["theta_list"].__setitem__(1, None), "theta_list"),
    "theta_list-nan": (lambda meta: meta["theta_list"].__setitem__(1, float("nan")), "theta_list"),
    "theta_list-empty": (lambda meta: meta.update(theta_list=[]), "theta_list"),
    "window-normalization-bogus": (edit_window(normalization="bogus"), "normalization"),
    "window-normalization-number": (edit_window(normalization=5), "normalization"),
    "window-sigma-bool": (edit_window(sigma=True), "sigma"),
    "window-amplitude-nan": (edit_window(amplitude=float("nan")), "amplitude"),
    "window-coefficient-bool": (composite_window(True), "coefficient"),
    "window-coefficient-inf": (composite_window(float("inf")), "coefficient"),
}


@pytest.mark.parametrize("case", list(SIDECAR_EDITS))
def test_volume_sidecar_values_are_checked(tmp_path, case):
    """Each sidecar value of a 3-u volume that does not describe its payload
    is refused with FormatError, not broadcast or left to fail later: 4
    parameters, finite thetas, the header's count of distinct sorted pairs
    in [0, 2^(n-1)), and a window whose amplitude, parameters and
    coefficients are finite numbers and whose normalization is raw or
    unit-integral."""
    edit, key = SIDECAR_EDITS[case]
    path = tmp_path / "v.clcg"
    write_volume(path, random_volume(2, [0, 1], 1, seed=5, u_count=3))
    sidecar = tmp_path / "v.clcg.json"
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=key):
        read_volume(path)


@pytest.mark.parametrize("name, index, value", [
    ("u_list", 3, float("nan")),
    ("u_weights", 1, float("nan")),
    ("u_weights", 2, float("-inf")),
], ids=["u_list-nan", "u_weights-nan", "u_weights-inf"])
def test_volume_list_values_are_checked(tmp_path, name, index, value):
    """A u component or weight of a 3-u volume file that is not finite is
    refused in one line naming the path and the list."""
    path = tmp_path / "v.clcg"
    write_volume(path, random_volume(2, [0, 1], 1, seed=5, u_count=3))
    raw = bytearray(path.read_bytes())
    at = header_size(2) + 8 * (index if name == "u_list" else 3 * 2 + index)  # weights after 3 x 2 u
    struct.pack_into("<d", raw, at, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        read_volume(path)
    message = str(err.value)
    assert message.startswith(str(path)) and name in message and "\n" not in message


def test_volume_without_one_weight_per_u_is_not_written(tmp_path):
    """A volume of 3 u rows and one weight is refused before its file is
    written, not written as a file whose reader would refuse its size."""
    vol = random_volume(2, [0], 1, seed=5, u_count=3)
    vol.u_weights = np.array([5.0])
    with pytest.raises(FormatError, match="u weights"):
        write_volume(tmp_path / "v.clcg", vol)
    assert list(tmp_path.iterdir()) == []


GRID_SIDECAR_EDITS = {
    "no-n": lambda raw: json.dumps({k: v for k, v in json.loads(raw).items() if k != "n"}),
    "truncated": lambda raw: raw[: len(raw) // 2],
    "metric-sign": lambda raw: json.dumps(dict(json.loads(raw), metric_sign=5)),
    "domain": lambda raw: json.dumps(dict(json.loads(raw), domain="bogus")),
    "half-width-nan": lambda raw: json.dumps(dict(json.loads(raw), half_width=float("nan"))),
}


@pytest.mark.parametrize("case", list(GRID_SIDECAR_EDITS))
def test_grid_sidecar_errors_are_format_errors(tmp_path, case):
    """A grid sidecar without n, cut short, with a metric sign that is not
    +-1, an unknown domain or a NaN half-width is refused with FormatError
    naming the path."""
    path = tmp_path / "g.clcg"
    spec, ctx = GridSpec(2, 4.0, 4), transform_algebra(2)
    write_grid(path, GridSignal(spec, ctx, np.ones((ctx.blade_count,) + spec.shape)))
    sidecar = tmp_path / "g.clcg.json"
    sidecar.write_text(GRID_SIDECAR_EDITS[case](sidecar.read_text()))
    with pytest.raises(FormatError) as err:
        read_grid(path)
    assert str(err.value).startswith("%s: malformed sidecar" % path)


def test_cli_transform_writes_the_live_pair_alone(tmp_path):
    """A scalar input has one live pair: the volume file is its header, its
    u list and weights, and 16 U T_s N^n payload bytes, and its sidecar
    lists pair 0."""
    src, out = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    main(["synthesize", "--kind", "gaussian_mixture", "--samples", "16", "--out", str(src)])
    u_spec = json.dumps({"kind": "multiples", "per_axis": [[-2, 1, 3], [1, 2]]})
    assert main(["transform", "--input", str(src), "--u-list", u_spec, "--out", str(out)]) == 0
    raw = out.read_bytes()
    u_count, columns, points = 6, 1, 16**2  # the default Gaussian window is radial
    assert struct.unpack_from("<HHH5I", raw, 4) == (4, 2, 4, u_count, columns, 16, 16, 1)
    assert len(raw) == header_size(2) + lists_size(2, u_count) + 16 * u_count * columns * points
    assert json.loads((tmp_path / "vol.clcg.json").read_text())["pairs"] == [0]
    report = json.loads((tmp_path / "vol.clcg.report.json").read_text())
    assert report["volume_bytes"] == len(raw) + (tmp_path / "vol.clcg.json").stat().st_size


def test_cli_reconstructions_of_a_volume_with_a_gap_in_its_pairs(tmp_path):
    """An n = 3 input whose pairs 1 and 3 are live: the volume file stores
    those two, and `reconstruct` by resolution and by marginal gives the
    grids of the in-memory volume that stores every pair, the others zero."""
    spec, ctx = GridSpec(3, 4.0, 10), transform_algebra(3)
    envelope = np.exp(-np.sum((spec.mesh() - 0.2) ** 2, axis=0))
    data = np.random.default_rng(13).standard_normal((ctx.blade_count,) + spec.shape) * envelope
    top = ctx.blade_count - 1
    data[[0, top, 2, top - 2]] = 0.0  # pairs 0 and 2
    src, vol_path = tmp_path / "f.clcg", tmp_path / "vol.clcg"
    write_grid(src, GridSignal(spec, ctx, data))
    ks = [k for k in range(-5, 5) if k != 0]  # every frequency bin off the axis planes
    assert main([
        "transform", "--input", str(src), "--A", "1", "--B", "2", "--C", "1", "--D", "3",
        "--sigma", "0.75", "--normalize", "--theta", "0",
        "--u-list", json.dumps({"kind": "multiples", "per_axis": [ks, ks, ks]}),
        "--out", str(vol_path),
    ]) == 0
    back = read_volume(vol_path)
    assert back.pairs.tolist() == [1, 3]
    live = clcst(read_grid(src), back.window, back.params, back.u_list, back.theta_list)
    every = np.zeros(live.stored_shape[:2] + (ctx.blade_count // 2,) + spec.shape, dtype=complex)
    every[:, :, live.pairs] = live.stored
    vol = CLCSTVolume(spec, ctx, back.u_list, back.theta_list, stored=every,
                      params=back.params, window=back.window)
    assert np.array_equal(pack(ctx, vol.values[..., 5, 0]), every[5, 0])
    expect = {"resolution": reconstruct_resolution(vol, vol.window, vol.params)[0],
              "marginal": reconstruct_marginal(vol, vol.params, 0.0)[0]}
    for method, want in expect.items():
        rec = tmp_path / (method + ".clcg")
        assert main(["reconstruct", "--volume", str(vol_path), "--method", method,
                     "--out", str(rec)]) == 0
        got = read_grid(rec).data
        assert np.max(np.abs(got - want.data)) <= 1e-13 * np.max(np.abs(want.data)), method
