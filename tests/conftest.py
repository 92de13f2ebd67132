import struct
import zlib

import numpy as np

from irstd.checkpoint import fnv1a64


def max_rel_err(a, b):
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-12)


def fd_at_indices(f, x, indices, eps):
    """Central differences at selected flat indices only; returns the same
    flat indices' derivatives. Keeps whole-network oracle checks affordable."""
    x = np.array(x, copy=True)
    flat = x.reshape(-1)
    out = np.empty(len(indices), np.float64)
    for n, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        out[n] = (fp - fm) / (2.0 * eps)
    return out


def spread_indices(size, count):
    return list(range(0, size, max(1, size // count)))[:count]


def seal(body: bytes) -> bytes:
    """``body`` plus the trailer its version word asks for: a 64-bit FNV-1a
    for version 1, otherwise the CRC-32 zero-extended to 64 bits."""
    version = int.from_bytes(body[4:8], "little")
    check = fnv1a64(body) if version == 1 else zlib.crc32(body)
    return body + struct.pack("<Q", check)


def write_tem_checkpoint(path, bc, levels, n_values, version=1):
    """A hand-made extractor checkpoint: header (bc, levels), n_values zero
    floats and a valid trailer for ``version`` (1: FNV-1a, 2: CRC-32),
    whatever the header claims."""
    body = b"TBCW" + struct.pack("<IBII", version, 0, bc, levels) + bytes(4 * n_values)
    path.write_bytes(seal(body))
