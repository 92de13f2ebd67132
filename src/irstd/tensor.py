"""Dense float32 arrays, a frozen deterministic RNG, and a finite-difference oracle.

Arrays are plain numpy ndarrays. Stored values are float32; reductions that
feed numerical claims (means, standard deviations) accumulate in float64.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable

import numpy as np

DTYPE = np.float32

_U64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(v: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit hash."""
    v &= _U64
    v = ((v ^ (v >> 30)) * _MIX_A) & _U64
    v = ((v ^ (v >> 27)) * _MIX_B) & _U64
    return v ^ (v >> 31)


class Rng:
    """SplitMix64 stream: a counter advanced by a fixed odd gamma, hashed by
    :func:`mix64`. Pure integer arithmetic, so identical seeds produce
    identical streams on every platform. The algorithm is frozen; regression
    vectors live in the test suite.
    """

    def __init__(self, seed: int):
        self._counter = seed & _U64

    def next_u64(self) -> int:
        self._counter = (self._counter + _GAMMA) & _U64
        return mix64(self._counter)

    def _block(self, n: int) -> np.ndarray:
        """n consecutive outputs, vectorised. Same sequence as next_u64."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._counter) + np.uint64(_GAMMA) * idx
        self._counter = int(z[-1]) if n else self._counter
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        return z ^ (z >> np.uint64(31))

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0,
                      dtype=DTYPE) -> np.ndarray:
        shape = tuple(np.atleast_1d(shape).astype(int)) if not isinstance(shape, tuple) else shape
        n = 1
        for s in shape:
            n *= int(s)
        u = (self._block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (lo + (hi - lo) * u).astype(dtype).reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive. Unbiased
        (rejection sampling on the top multiple of the span)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (2**64 // span) * span
        while True:
            z = self.next_u64()
            if z < limit:
                return lo + z % span

    def shuffle(self, seq: list) -> None:
        """Fisher-Yates, in place."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        self.shuffle(idx)
        return idx

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    @staticmethod
    def derive(seed: int, index: int) -> "Rng":
        """Child stream keyed by (seed, index). Children are decorrelated from
        the parent and from each other, so work split across indices produces
        the same results serially and in parallel."""
        return Rng(mix64(mix64(seed) + _GAMMA * (index + 1)))


def stats(t) -> tuple[float, float]:
    """Mean and population standard deviation (divide by N), accumulated in
    float64."""
    t = np.asarray(t)
    if t.size == 0:
        raise ValueError("stats of an empty tensor")
    x = t.astype(np.float64, copy=False)
    m = float(x.mean())
    return m, float(np.sqrt(np.mean((x - m) ** 2)))


def finite_diff_grad(f: Callable[[np.ndarray], float], x, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function: the reference oracle
    for every analytic backward pass in this package.

    ``f`` must be pure; it is called on a perturbed copy of ``x``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.array(x, copy=True)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value at element {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


MAGIC_TENSOR = b"TBCT"


def save_tensor(path, arr) -> None:
    """Binary tensor dump: magic "TBCT", u32 version=1, u32 rank, u32 extents,
    then little-endian float32 values row-major."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = MAGIC_TENSOR + struct.pack("<II", 1, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def load_tensor(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC_TENSOR:
        raise ValueError(f"{path}: not a tensor dump (bad magic)")
    version, rank = struct.unpack_from("<II", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    shape = struct.unpack_from(f"<{rank}I", data, 12)
    off = 12 + 4 * rank
    n = 1
    for s in shape:
        n *= s
    values = np.frombuffer(data, dtype="<f4", count=n, offset=off)
    if values.size != n:
        raise ValueError(f"{path}: truncated payload")
    return values.reshape(shape).astype(DTYPE)
