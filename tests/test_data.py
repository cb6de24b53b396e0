"""Binary record loading, normalization, and augmentation."""

import numpy as np
import pytest

from msar.data import (IMAGE_BYTES, augment, channel_stats, crop_and_flip,
                       load_records, normalize, write_synthetic)


def make_file(path, labels, fmt="cifar10", seed=0):
    """Handwritten records: label byte(s) then 3072 image bytes."""
    rng = np.random.default_rng(seed)
    chunks = []
    for lab in labels:
        if fmt == "cifar100":
            chunks.append(bytes([7, lab]))  # coarse byte then fine label
        else:
            chunks.append(bytes([lab]))
        chunks.append(rng.integers(0, 256, IMAGE_BYTES, dtype=np.uint8).tobytes())
    path.write_bytes(b"".join(chunks))
    return path


def test_load_roundtrip_values(tmp_path):
    p = make_file(tmp_path / "a.bin", [3, 1, 9])
    images, labels = load_records(str(p), "cifar10")
    assert images.shape == (3, 3, 32, 32)
    assert images.dtype == np.uint8
    assert labels.tolist() == [3, 1, 9]
    raw = np.frombuffer(p.read_bytes(), dtype=np.uint8)
    assert (images[0].reshape(-1) == raw[1:1 + IMAGE_BYTES]).all()


def test_load_cifar100_uses_fine_label(tmp_path):
    p = make_file(tmp_path / "b.bin", [42, 0], fmt="cifar100")
    images, labels = load_records(str(p), "cifar100")
    assert labels.tolist() == [42, 0]
    assert images.shape[0] == 2


def test_truncated_file_diagnostic(tmp_path):
    p = make_file(tmp_path / "c.bin", [1, 2])
    data = p.read_bytes()[:-100]
    p.write_bytes(data)
    with pytest.raises(ValueError, match=str(len(data) - len(data) % (IMAGE_BYTES + 1))):
        load_records(str(p), "cifar10")


def test_empty_and_missing_files(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    with pytest.raises(ValueError):
        load_records(str(p), "cifar10")
    with pytest.raises(FileNotFoundError, match="not found"):
        load_records(str(tmp_path / "nope.bin"), "cifar10")


def test_label_out_of_range_names_record(tmp_path):
    p = make_file(tmp_path / "d.bin", [0, 77, 1])
    with pytest.raises(ValueError, match="record 1"):
        load_records(str(p), "cifar10")


def test_class_filter_relabels_in_sequence_order(tmp_path):
    p = make_file(tmp_path / "e.bin", [5, 2, 7, 2, 5, 9])
    images, labels = load_records(str(p), "cifar10", classes=(7, 2))
    # class 7 becomes index 0, class 2 becomes index 1
    assert labels.tolist() == [1, 0, 1]
    assert images.shape[0] == 3


def test_duplicate_class_rejected_by_id(tmp_path):
    # (1, 1) would relabel every kept record to 1, so label 0 never occurs
    p = make_file(tmp_path / "g.bin", [0, 1, 1])
    with pytest.raises(ValueError, match="class 1 is selected more than once"):
        load_records(str(p), "cifar10", classes=(1, 1))


def test_class_outside_format_rejected(tmp_path):
    p = make_file(tmp_path / "h.bin", [0, 1, 0])
    with pytest.raises(ValueError, match=r"h\.bin: class 12 outside \[0, 10\)"):
        load_records(str(p), "cifar10", classes=(0, 12))
    with pytest.raises(ValueError, match="class -1 outside"):
        load_records(str(p), "cifar10", classes=(-1,))


def test_class_without_records_rejected(tmp_path):
    # 5 is a valid cifar10 label, but this file holds none
    p = make_file(tmp_path / "i.bin", [0, 1, 0])
    with pytest.raises(ValueError, match=r"i\.bin: no records of class 5"):
        load_records(str(p), "cifar10", classes=(1, 5))


def test_limit_applies_after_filter(tmp_path):
    p = make_file(tmp_path / "f.bin", [0, 1, 0, 1, 0, 1])
    _, labels = load_records(str(p), "cifar10", classes=(1,), limit=2)
    assert labels.tolist() == [0, 0]
    _, labels = load_records(str(p), "cifar10", limit=4)
    assert labels.tolist() == [0, 1, 0, 1]


def test_channel_stats_and_normalize():
    rng = np.random.default_rng(51)
    images = rng.integers(0, 256, (10, 3, 32, 32), dtype=np.uint8)
    mean, std = channel_stats(images)
    x = normalize(images, mean, std, np.float64)
    assert np.allclose(x.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
    assert np.allclose(x.std(axis=(0, 2, 3)), 1.0, atol=1e-6)


def test_constant_channel_does_not_divide_by_zero():
    images = np.full((4, 3, 32, 32), 128, dtype=np.uint8)
    mean, std = channel_stats(images)
    x = normalize(images, mean, std, np.float64)
    assert np.isfinite(x).all()
    assert np.allclose(x, 0.0)


def test_centered_crop_without_flip_is_identity():
    rng = np.random.default_rng(52)
    img = rng.standard_normal((3, 32, 32))
    out = crop_and_flip(img, 4, 4, False)
    assert (out == img).all()


def test_flip_is_an_involution():
    rng = np.random.default_rng(53)
    img = rng.standard_normal((3, 32, 32))
    once = crop_and_flip(img, 4, 4, True)
    twice = crop_and_flip(once, 4, 4, True)
    assert (twice == img).all()
    assert not (once == img).all()


def test_corner_crop_reads_zero_padding():
    img = np.ones((3, 32, 32))
    out = crop_and_flip(img, 0, 0, False)
    # shifting into the pad zone exposes zeros on the leading edges
    assert (out[:, :4, :] == 0).all()
    assert (out[:, :, :4] == 0).all()
    assert (out[:, 4:, 4:] == 1).all()


def test_augment_replays_under_fixed_seed():
    rng = np.random.default_rng(54)
    img = rng.standard_normal((3, 32, 32))
    a = augment(img, np.random.default_rng(99))
    b = augment(img, np.random.default_rng(99))
    assert (a == b).all()
    assert a.shape == (3, 32, 32)


def test_synthetic_writer_roundtrip(tmp_path):
    p = tmp_path / "syn.bin"
    write_synthetic(str(p), per_class=5, classes=(0, 1), seed=3)
    images, labels = load_records(str(p), "cifar10")
    assert images.shape == (10, 3, 32, 32)
    assert sorted(labels.tolist()) == [0] * 5 + [1] * 5
    # deterministic for a fixed seed
    p2 = tmp_path / "syn2.bin"
    write_synthetic(str(p2), per_class=5, classes=(0, 1), seed=3)
    assert p.read_bytes() == p2.read_bytes()


def test_synthetic_cifar100_format(tmp_path):
    p = tmp_path / "syn100.bin"
    write_synthetic(str(p), per_class=2, classes=(3, 60), seed=1, fmt="cifar100")
    images, labels = load_records(str(p), "cifar100", classes=(3, 60))
    assert labels.tolist() == [0, 1, 0, 1]
