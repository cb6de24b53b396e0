"""Weight file format: versioned manifest plus little-endian 64-bit raw data.

Layout:

    MSAR-WEIGHTS-1\n
    <entry count>\n
    <name> <dim,dim,...>\n     (one line per entry, manifest order)
    <raw little-endian float64 payload, concatenated in manifest order>

Entries cover every trainable parameter and every running
normalization statistic, so a load fully restores eval-mode behavior.
Loading matches entries by name and reports the first mismatch it
finds (a malformed manifest line, an unknown, duplicated or wrongly
shaped entry, or a NaN or infinite value, before or after the cast to
the network's dtype); strict mode also requires the file to cover the whole network.  Every
entry is validated before any is copied, so a load that fails leaves
the network exactly as it was.
"""

from __future__ import annotations

import math

import numpy as np

MAGIC = b"MSAR-WEIGHTS-1\n"


def _entries(network):
    out = [(name, t.data) for name, t, _ in network.parameters()]
    for name, state in network.norm_states():
        out.append((f"{name}.running_mean", state.mean))
        out.append((f"{name}.running_var", state.var))
    return out


def save_weights(path: str, network) -> None:
    entries = _entries(network)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{len(entries)}\n".encode())
        for name, arr in entries:
            dims = ",".join(str(d) for d in arr.shape)
            fh.write(f"{name} {dims}\n".encode())
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_weights(path: str, network, strict: bool = True) -> None:
    """Restore parameters and running statistics from a weight file.

    strict requires the file and the network to hold exactly the same
    entry names; with strict off, network entries absent from the file
    keep their current values (used to seed a recalibrated network from
    its plain twin's weights).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path}: not a weight file (bad magic)")
    body = blob[len(MAGIC):]
    try:
        count_line, body = body.split(b"\n", 1)
        count = int(count_line)
    except ValueError:
        raise ValueError(f"{path}: malformed entry count") from None
    manifest = {}
    for i in range(count):
        try:
            line, body = body.split(b"\n", 1)
        except ValueError:
            raise ValueError(f"{path}: manifest truncated at entry {i}") from None
        try:
            name, _, dims = line.decode().partition(" ")
            shape = tuple(int(d) for d in dims.split(",")) if dims else ()
        except ValueError:  # UnicodeDecodeError is one too
            raise ValueError(f"{path}: malformed manifest entry {i}") from None
        if name in manifest:
            raise ValueError(f"{path}: duplicate manifest entry {name}")
        manifest[name] = shape

    targets = dict(_entries(network))
    staged = []
    offset = 0
    for name, shape in manifest.items():
        size = math.prod(shape)  # a Python int: the file's dims may overflow int64
        nbytes = size * 8
        if offset + nbytes > len(body):
            raise ValueError(f"{path}: payload truncated at entry {name}")
        if name not in targets:
            raise ValueError(f"{path}: parameter {name} does not exist in the network")
        dst = targets.pop(name)
        if dst.shape != shape:
            raise ValueError(
                f"{path}: parameter {name} has shape {shape} but the network "
                f"expects {dst.shape}")
        arr = np.frombuffer(body, dtype="<f8", count=size, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: parameter {name} holds non-finite values")
        with np.errstate(over="ignore"):
            cast = arr.astype(dst.dtype, copy=False)
        if not np.isfinite(cast).all():
            raise ValueError(f"{path}: parameter {name} overflows the network's {dst.dtype}")
        staged.append((dst, cast))
        offset += nbytes
    if offset != len(body):
        raise ValueError(f"{path}: {len(body) - offset} trailing payload bytes")
    if strict and targets:
        missing = next(iter(targets))
        raise ValueError(f"{path}: parameter {missing} missing from the weight file")
    for dst, cast in staged:
        dst[...] = cast
