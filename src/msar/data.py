"""Binary image-classification datasets and augmentation.

Files hold consecutive fixed-size records: one label byte (or a coarse
and a fine label byte for the 100-class variant) followed by 3072 bytes
of 32x32 RGB planes, row-major.  Loading validates record alignment and
label ranges, and can restrict to a class subset or a record budget for
desk-scale experiments.

Augmentation follows the small-image recipe: zero-pad the normalized
image by four pixels, crop back to 32x32 at a random offset, flip
horizontally with probability one half.  The rng draw order is fixed
(row offset, column offset, flip) so seeded runs replay exactly.
"""

from __future__ import annotations

import os

import numpy as np

IMAGE_SHAPE = (3, 32, 32)
IMAGE_BYTES = 3072
PAD = 4

FORMATS = {
    "cifar10": (1, 10),    # label bytes per record, class count
    "cifar100": (2, 100),  # coarse then fine label; the fine label is used
}


def _distinct_classes(classes) -> None:
    twice = [c for i, c in enumerate(classes) if c in classes[:i]]
    if twice:
        raise ValueError(f"class {twice[0]} is selected more than once")


def load_records(path: str, fmt: str = "cifar10", classes=None, limit: int = 0):
    """Read a record file into (images uint8 (N,3,32,32), labels int64 (N,)).

    classes: optional sequence of distinct label values to keep, each
    within the format's range and held by at least one record; kept
    records are relabeled to their index in the sequence.  limit: keep at
    most this many records after filtering (0 = all).
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}; expected one of {sorted(FORMATS)}")
    label_bytes, num_classes = FORMATS[fmt]
    record = label_bytes + IMAGE_BYTES
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise ValueError(f"{path}: empty dataset file")
    if raw.size % record:
        raise ValueError(
            f"{path}: truncated record at byte {raw.size - raw.size % record} "
            f"(file holds {raw.size} bytes, record size {record})")
    rows = raw.reshape(-1, record)
    labels = rows[:, label_bytes - 1].astype(np.int64)  # fine label for 2-byte formats
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        raise ValueError(
            f"{path}: record {bad[0]} has label {labels[bad[0]]} outside [0, {num_classes})")
    images = rows[:, label_bytes:].reshape(-1, *IMAGE_SHAPE)
    if classes is not None:
        classes = list(classes)
        _distinct_classes(classes)
        held = np.bincount(labels, minlength=num_classes)
        for c in classes:
            if not 0 <= c < num_classes:
                raise ValueError(f"{path}: class {c} outside [0, {num_classes})")
            if not held[c]:
                raise ValueError(f"{path}: no records of class {c}")
        remap = {c: i for i, c in enumerate(classes)}
        keep = np.isin(labels, classes)
        images, labels = images[keep], labels[keep]
        labels = np.array([remap[int(v)] for v in labels], dtype=np.int64)
    if limit:
        images, labels = images[:limit], labels[:limit]
    return images, labels


def channel_stats(images: np.ndarray):
    """Per-channel mean and standard deviation of [0,1]-scaled images."""
    scaled = images.astype(np.float64) / 255.0
    mean = scaled.mean(axis=(0, 2, 3))
    std = scaled.std(axis=(0, 2, 3))
    std = np.where(std == 0, 1.0, std)
    return mean, std


def normalize(images: np.ndarray, mean: np.ndarray, std: np.ndarray,
              dtype=np.float64) -> np.ndarray:
    scaled = images.astype(np.float64) / 255.0
    out = (scaled - mean[:, None, None]) / std[:, None, None]
    return out.astype(dtype, copy=False)


def crop_and_flip(img: np.ndarray, dy: int, dx: int, flip: bool) -> np.ndarray:
    """Zero-pad by four, crop 32x32 at (dy, dx), optionally mirror columns."""
    c, h, w = img.shape
    padded = np.zeros((c, h + 2 * PAD, w + 2 * PAD), dtype=img.dtype)
    padded[:, PAD:PAD + h, PAD:PAD + w] = img
    out = padded[:, dy:dy + h, dx:dx + w]
    return out[:, :, ::-1].copy() if flip else out.copy()


def augment(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random crop-and-flip of one normalized (3, 32, 32) image."""
    if img.shape != IMAGE_SHAPE:
        raise ValueError(f"augment expects {IMAGE_SHAPE} input, got {img.shape}")
    dy = int(rng.integers(0, 2 * PAD + 1))
    dx = int(rng.integers(0, 2 * PAD + 1))
    flip = rng.random() < 0.5
    return crop_and_flip(img, dy, dx, flip)


def write_synthetic(path: str, per_class: int, classes=(0, 1), seed: int = 0,
                    fmt: str = "cifar10") -> None:
    """Write a linearly separable stand-in dataset in the binary layout.

    Each class has a fixed smooth template (a function of the class id
    only, so separately written files describe the same task); records
    are the template plus mild seed-controlled pixel noise, and small
    networks can fit the file quickly.  Records are interleaved across
    classes.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    label_bytes, num_classes = FORMATS[fmt]
    if max(classes) >= num_classes:
        raise ValueError(f"class {max(classes)} outside [0, {num_classes})")
    rng = np.random.default_rng(seed)
    templates = {}
    for c in classes:
        coarse = np.random.default_rng(c).uniform(40.0, 215.0, size=(3, 4, 4))
        templates[c] = np.kron(coarse, np.ones((8, 8)))  # smooth 32x32 field
    out = bytearray()
    for i in range(per_class):
        for c in classes:
            noise = rng.normal(0.0, 12.0, size=IMAGE_SHAPE)
            img = np.clip(templates[c] + noise, 0, 255).astype(np.uint8)
            if label_bytes == 2:
                out.append(0)  # coarse label, unused by the loader
            out.append(c)
            out.extend(img.tobytes())
    with open(path, "wb") as fh:
        fh.write(bytes(out))
