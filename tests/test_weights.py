"""Weight snapshot format: round-trips and mismatch diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msar.blocks import (MsarSettings, NetworkSpec, StageSpec, build_network)
from msar.tensor import Tensor
from msar.weights import load_weights, save_weights

SPEC = NetworkSpec(name="toy", family="residual", input_size=8, classes=2,
                   stem_width=4, stages=(StageSpec(4, 1, 1),),
                   msar=MsarSettings(scales=(1, 2)))


def drift(network, seed):
    rng = np.random.default_rng(seed)
    for _, t, _ in network.parameters():
        t.data += rng.standard_normal(t.shape)
    for _, s in network.norm_states():
        s.mean += rng.standard_normal(s.mean.shape)
        s.var += rng.random(s.var.shape)


def test_roundtrip_is_bitwise(tmp_path):
    src = build_network(SPEC, seed=1)
    drift(src, 9)
    path = str(tmp_path / "w.bin")
    save_weights(path, src)

    dst = build_network(SPEC, seed=2)
    load_weights(path, dst)
    for (n1, t1, _), (n2, t2, _) in zip(src.parameters(), dst.parameters()):
        assert n1 == n2
        assert (t1.data == t2.data).all()
    for (_, s1), (_, s2) in zip(src.norm_states(), dst.norm_states()):
        assert (s1.mean == s2.mean).all() and (s1.var == s2.var).all()


def test_file_has_magic_and_manifest(tmp_path):
    net = build_network(SPEC, seed=1)
    path = tmp_path / "w.bin"
    save_weights(str(path), net)
    raw = path.read_bytes()
    assert raw.startswith(b"MSAR-WEIGHTS-1\n")
    assert b"stem.conv.weight 4,3,3,3\n" in raw
    assert b"head.fc.weight" in raw
    # running statistics ride along with the trainables
    assert b"stem.norm.running_mean 4\n" in raw


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOT-A-SNAPSHOT\n")
    net = build_network(SPEC, seed=0)
    with pytest.raises(ValueError, match="magic"):
        load_weights(str(path), net)


def test_unknown_parameter_diagnostic(tmp_path):
    donor_spec = NetworkSpec(name="deep", family="residual", input_size=8,
                             classes=2, stem_width=4,
                             stages=(StageSpec(4, 1, 1), StageSpec(8, 1, 2)))
    donor = build_network(donor_spec, seed=0)
    path = str(tmp_path / "w.bin")
    save_weights(path, donor)
    # the donor's second stage has no home in the smaller network
    with pytest.raises(ValueError, match="stage1.*does not exist"):
        load_weights(path, build_network(SPEC, seed=0))


def test_shape_mismatch_diagnostic(tmp_path):
    net = build_network(SPEC, seed=0)
    path = str(tmp_path / "w.bin")
    save_weights(path, net)
    bigger = NetworkSpec(name="toy", family="residual", input_size=8,
                         classes=3, stem_width=4, stages=(StageSpec(4, 1, 1),),
                         msar=MsarSettings(scales=(1, 2)))
    with pytest.raises(ValueError, match="head.fc.weight"):
        load_weights(path, build_network(bigger, seed=0))


def test_strict_reports_first_missing_entry(tmp_path):
    base_spec = NetworkSpec(name="toy", family="residual", input_size=8,
                            classes=2, stem_width=4,
                            stages=(StageSpec(4, 1, 1),))
    donor = build_network(base_spec, seed=3)
    path = str(tmp_path / "w.bin")
    save_weights(path, donor)
    target = build_network(SPEC, seed=4)  # has extra recalibration entries
    with pytest.raises(ValueError, match="recal"):
        load_weights(path, target)


def test_non_strict_seeds_shared_subset(tmp_path):
    base_spec = NetworkSpec(name="toy", family="residual", input_size=8,
                            classes=2, stem_width=4,
                            stages=(StageSpec(4, 1, 1),))
    donor = build_network(base_spec, seed=3)
    drift(donor, 11)
    path = str(tmp_path / "w.bin")
    save_weights(path, donor)

    target = build_network(SPEC, seed=4)
    load_weights(path, target, strict=False)
    shared = {n: t for n, t, _ in donor.parameters()}
    for n, t, _ in target.parameters():
        if n in shared:
            assert (t.data == shared[n].data).all()
        else:
            assert "recal" in n  # only recalibration entries stay fresh


def test_truncated_payload_diagnostic(tmp_path):
    net = build_network(SPEC, seed=1)
    path = tmp_path / "w.bin"
    save_weights(str(path), net)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        load_weights(str(path), build_network(SPEC, seed=2))


def test_float32_network_roundtrip(tmp_path):
    src = build_network(SPEC, seed=5, dtype=np.float32)
    path = str(tmp_path / "w.bin")
    save_weights(path, src)
    dst = build_network(SPEC, seed=6, dtype=np.float32)
    load_weights(path, dst)
    for (_, t1, _), (_, t2, _) in zip(src.parameters(), dst.parameters()):
        assert t2.data.dtype == np.float32
        assert (t1.data == t2.data).all()


def write_raw(path, entries):
    """A weight file with the given (name, array) entries, written by hand."""
    with open(path, "wb") as fh:
        fh.write(b"MSAR-WEIGHTS-1\n" + f"{len(entries)}\n".encode())
        for name, arr in entries:
            fh.write(f"{name} {','.join(str(d) for d in arr.shape)}\n".encode())
        for _, arr in entries:
            fh.write(arr.astype("<f8").tobytes())


def test_duplicate_manifest_entry_diagnostic(tmp_path):
    path = str(tmp_path / "w.bin")
    write_raw(path, [("head.fc.bias", np.zeros(2)), ("head.fc.bias", np.ones(2))])
    with pytest.raises(ValueError, match="duplicate manifest entry head.fc.bias"):
        load_weights(path, build_network(SPEC, seed=0), strict=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected(tmp_path, bad):
    path = str(tmp_path / "w.bin")
    write_raw(path, [("stem.norm.gamma", np.ones(4)), ("head.fc.bias", np.array([0.5, bad]))])
    net = build_network(SPEC, seed=0)
    with pytest.raises(ValueError, match="head.fc.bias holds non-finite"):
        load_weights(path, net, strict=False)


def snapshot(network):
    """Copies of every parameter and running statistic, by entry name."""
    out = {n: t.data.copy() for n, t, _ in network.parameters()}
    for n, s in network.norm_states():
        out[f"{n}.running_mean"] = s.mean.copy()
        out[f"{n}.running_var"] = s.var.copy()
    return out


def assert_unchanged(network, before):
    after = snapshot(network)
    assert after.keys() == before.keys()
    for name, arr in before.items():
        assert after[name].tobytes() == arr.tobytes(), name


def test_failed_load_leaves_network_untouched(tmp_path):
    # the first entry is valid and would overwrite stem.norm.gamma
    path = str(tmp_path / "w.bin")
    write_raw(path, [("stem.norm.gamma", np.full(4, 7.0)),
                     ("head.fc.bias", np.array([0.5, np.nan]))])
    net = build_network(SPEC, seed=0)
    before = snapshot(net)
    with pytest.raises(ValueError, match="head.fc.bias"):
        load_weights(path, net, strict=False)
    assert_unchanged(net, before)


def test_trailing_bytes_leave_network_untouched(tmp_path):
    src = build_network(SPEC, seed=1)
    drift(src, 12)
    path = tmp_path / "w.bin"
    save_weights(str(path), src)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    net = build_network(SPEC, seed=2)
    before = snapshot(net)
    with pytest.raises(ValueError, match="trailing"):
        load_weights(str(path), net)
    assert_unchanged(net, before)


def test_strict_missing_leaves_network_untouched(tmp_path):
    base_spec = NetworkSpec(name="toy", family="residual", input_size=8,
                            classes=2, stem_width=4,
                            stages=(StageSpec(4, 1, 1),))
    donor = build_network(base_spec, seed=3)
    drift(donor, 13)
    path = str(tmp_path / "w.bin")
    save_weights(path, donor)
    net = build_network(SPEC, seed=4)
    before = snapshot(net)
    with pytest.raises(ValueError, match="missing from the weight file"):
        load_weights(path, net)
    assert_unchanged(net, before)


def test_float32_overflow_rejected_by_name(tmp_path):
    # finite in the file's float64, infinite once cast to float32
    path = str(tmp_path / "w.bin")
    write_raw(path, [("head.fc.bias", np.array([0.5, 1e300]))])
    net = build_network(SPEC, seed=0, dtype=np.float32)
    before = snapshot(net)
    with pytest.raises(ValueError, match="head.fc.bias"):
        load_weights(path, net, strict=False)
    assert_unchanged(net, before)


@pytest.mark.parametrize("bad_line", [b"stem.norm.gamma 4,x\n", b"stem.norm.g\xffmma 4\n"],
                         ids=["dims", "non-utf8"])
def test_malformed_manifest_entry_named(tmp_path, bad_line):
    src = build_network(SPEC, seed=1)
    drift(src, 14)
    path = tmp_path / "w.bin"
    save_weights(str(path), src)
    # stem.norm.gamma is manifest entry 1, after stem.conv.weight
    path.write_bytes(path.read_bytes().replace(b"stem.norm.gamma 4\n", bad_line))
    net = build_network(SPEC, seed=2)
    before = snapshot(net)
    with pytest.raises(ValueError, match="w.bin: malformed manifest entry 1$"):
        load_weights(str(path), net)
    assert_unchanged(net, before)


# -- fuzzing: a damaged file loads or fails by name, leaving the network as is --

# file-level diagnostics; every other one names a manifest entry
_FILE_ERRORS = ("bad magic", "malformed entry count", "trailing payload bytes")


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """A path to write damaged files to, and the intact file's bytes."""
    src = build_network(SPEC, seed=1)
    drift(src, 15)
    path = tmp_path_factory.mktemp("fuzz") / "w.bin"
    save_weights(str(path), src)
    return path, path.read_bytes()


def _load_or_name_the_damage(path, blob, strict):
    path.write_bytes(blob)
    net = build_network(SPEC, seed=2)
    before = snapshot(net)
    try:
        load_weights(str(path), net, strict=strict)
    except ValueError as exc:
        msg = str(exc)
        assert msg.startswith(f"{path}: ")
        assert any(word in msg for word in ("entry", "parameter") + _FILE_ERRORS), msg
        assert_unchanged(net, before)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), strict=st.booleans())
def test_fuzzed_bytes_load_or_fail_by_name(fuzz_file, data, strict):
    path, good = fuzz_file
    at = data.draw(st.integers(0, len(good)))
    edit = data.draw(st.sampled_from(["cut", "flip", "insert"]))
    if edit == "cut":
        blob = good[:at]
    elif edit == "flip":
        blob = good[:at] + bytes([data.draw(st.integers(0, 255))]) + good[at + 1:]
    else:
        blob = good[:at] + data.draw(st.binary(min_size=1, max_size=16)) + good[at:]
    _load_or_name_the_damage(path, blob, strict)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), strict=st.booleans())
def test_fuzzed_manifest_lines_load_or_fail_by_name(fuzz_file, data, strict):
    path, good = fuzz_file
    lines = good.split(b"\n")
    # lines[0] is the magic, lines[1] the entry count, then one per entry
    i = data.draw(st.integers(1, int(lines[1]) + 1))
    names = [ln.split(b" ")[0] for ln in lines[2:int(lines[1]) + 2]]
    name = st.one_of(st.just(lines[i].split(b" ")[0]), st.sampled_from(names))
    dim = st.one_of(st.sampled_from([-1, 0, 1, 2, 3, 4, 2 ** 63, 2 ** 64]),
                    st.integers(-2, 2 ** 70))
    dims = st.lists(dim, max_size=4).map(
        lambda ds: ",".join(map(str, ds)).encode())
    lines[i] = data.draw(st.one_of(
        st.builds(lambda n, d: n + b" " + d, name, dims),
        st.binary(max_size=24),
        st.integers(-5, 10 ** 30).map(lambda n: str(n).encode())))
    _load_or_name_the_damage(path, b"\n".join(lines), strict)


def test_dims_past_int64_rejected_by_name(tmp_path):
    src = build_network(SPEC, seed=1)
    path = tmp_path / "w.bin"
    save_weights(str(path), src)
    path.write_bytes(path.read_bytes().replace(b"stem.norm.gamma 4\n",
                                               b"stem.norm.gamma 18446744073709551616\n"))
    net = build_network(SPEC, seed=2)
    before = snapshot(net)
    with pytest.raises(ValueError, match="payload truncated at entry stem.norm.gamma$"):
        load_weights(str(path), net)
    assert_unchanged(net, before)
