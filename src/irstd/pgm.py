"""Binary PGM (P5) reader/writer, 8-bit or 16-bit big-endian samples, mapped
linearly to [0, 1]. Writes are byte-deterministic; a write/read/write round
trip reproduces the file exactly."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tensor import DTYPE


def write_pgm(path, image: np.ndarray, maxval: int = 65535) -> None:
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range [1, 65535]")
    q = np.rint(np.clip(image, 0.0, 1.0).astype(np.float64) * maxval)
    data = q.astype(">u2" if maxval > 255 else "u1").tobytes()
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + data)


def _tokens(data: bytes):
    """PGM header tokens: whitespace separated, # starts a comment line."""
    i = 0
    while True:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated PGM header")
        yield data[start:i], i


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    toks = _tokens(data)
    magic, _ = next(toks)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, end = next(toks)
        # digits only: int() would also take a sign, spaces or underscores,
        # and it refuses a string of over 4300 digits
        if not (tok.isdigit() and len(tok) <= 18 and int(tok) >= 1):
            raise ValueError(f"{path}: {name} {tok[:20].decode('latin-1')!r} is not a "
                             "positive decimal integer (at most 18 digits)")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval > 65535:
        raise ValueError(f"{path}: bad maxval {maxval}")
    off = end + 1  # single whitespace byte after maxval
    dtype = ">u2" if maxval > 255 else "u1"
    sample = 2 if maxval > 255 else 1
    if len(data) - off < h * w * sample:
        raise ValueError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=dtype, count=h * w, offset=off)
    return (raw.astype(np.float64) / maxval).astype(DTYPE).reshape(h, w)
