import struct

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


def write_tem_checkpoint(path, bc, levels, n_values):
    """A hand-made extractor checkpoint: header (bc, levels), n_values zero
    floats and a valid FNV-1a trailer, whatever the header claims."""
    body = b"TBCW" + struct.pack("<IBII", 1, 0, bc, levels) + bytes(4 * n_values)
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
