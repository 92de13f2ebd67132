"""Weight checkpoint format shared by the extractor and the classifier.

Layout: magic "TBCW", u32 version, u8 kind (0 = extractor, 1 = classifier),
then for kind 0 a u32 BC and u32 L, for kind 1 a u32 class count; then every
layer's weights in construction order as little-endian float32, and finally a
u64 checksum of all preceding bytes. Version 2, which every save writes, puts
the CRC-32 (zlib) of those bytes in the low half of the u64; version 1 files,
whose trailer is a 64-bit FNV-1a, are still read.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .scm import CHANNELS, ScmNet
from .tem import NetConfig, TemNet, budget

MAGIC = b"TBCW"
VERSION = 2
KIND_TEM = 0
KIND_SCM = 1
_HEADER_BYTES = {KIND_TEM: 17, KIND_SCM: 13}  # magic, version, kind, config words

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def _checksum(version: int, body) -> int:
    """The trailer value of a file of this version: FNV-1a 64 for version 1
    (a per-byte Python loop), CRC-32 for version 2."""
    return fnv1a64(body) if version == 1 else zlib.crc32(body)


def weight_hash(net) -> bytes:
    """The raw little-endian float32 bytes of every weight array, in
    construction order. Two nets compare equal exactly when their weights
    are byte-identical, which is how the classifier is proved frozen; no
    digest is taken, so no collision can hide a change."""
    return b"".join(
        np.ascontiguousarray(a, dtype="<f4").tobytes() for a in net.parameters())


def save_weights(path, net: TemNet | ScmNet) -> None:
    if isinstance(net, TemNet):
        head = MAGIC + struct.pack("<IB", VERSION, KIND_TEM)
        head += struct.pack("<II", net.cfg.bc, net.cfg.levels)
    elif isinstance(net, ScmNet):
        head = MAGIC + struct.pack("<IB", VERSION, KIND_SCM)
        head += struct.pack("<I", net.c_classes)
    else:
        raise TypeError(f"cannot checkpoint {type(net).__name__}")
    # head, each weight array's bytes and the trailer go out one at a time,
    # the CRC fed as they go, so the payload is never copied whole
    with open(path, "wb") as f:
        f.write(head)
        crc = zlib.crc32(head)
        for a in net.parameters():
            chunk = memoryview(np.ascontiguousarray(a, dtype="<f4")).cast("B")
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<Q", crc))


def _fill(net, values: np.ndarray, path) -> None:
    off = 0
    for arr in net.parameters():
        chunk = values[off:off + arr.size]
        if chunk.size != arr.size:
            raise ValueError(f"{path}: payload too short")
        arr[...] = chunk.reshape(arr.shape)
        off += arr.size
    if off != values.size:
        raise ValueError(f"{path}: {values.size - off} unexplained trailing values")


def load_weights(path) -> TemNet | ScmNet:
    data = Path(path).read_bytes()
    if len(data) < 17 or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a weight checkpoint")
    version, kind = struct.unpack_from("<IB", data, 4)
    if version not in (1, VERSION):
        raise ValueError(f"{path}: unsupported version {version}")
    # a view, not a copy, of everything before the trailer
    body, (stored,) = memoryview(data)[:-8], struct.unpack_from("<Q", data, len(data) - 8)
    if _checksum(version, body) != stored:
        raise ValueError(f"{path}: checksum mismatch (corrupt file)")
    off = _HEADER_BYTES.get(kind)
    if off is None:
        raise ValueError(f"{path}: unknown checkpoint kind {kind}")
    if len(body) < off:
        raise ValueError(f"{path}: header cut short ({len(body)} of {off} bytes)")
    # nets are built zeroed (no rng): _fill overwrites every weight
    if kind == KIND_TEM:
        bc, levels = struct.unpack_from("<II", body, 9)
        payload = len(body) - off
        # the header sizes the net, so check it against the payload first;
        # 12(4^L - 1) >= 4^L, so no depth past the payload's bit length
        # fits, and stopping there keeps 2^L and 4^L small
        if levels > payload.bit_length():
            raise ValueError(f"{path}: {levels} levels cannot fit a {payload}-byte payload")
        cfg = NetConfig(bc, levels, 2**levels, 2**levels)
        need = budget(cfg).params
        if 4 * need != payload:
            raise ValueError(f"{path}: header (bc={bc}, levels={levels}) needs {need} "
                             f"float32 values, payload holds {payload / 4:g}")
        net = TemNet(cfg, None)
    elif kind == KIND_SCM:
        (c_classes,) = struct.unpack_from("<I", body, 9)
        if c_classes < 2:
            raise ValueError(f"{path}: {c_classes} classes; a classifier needs at least 2")
        # The linear layer's width is implied by the payload length.
        n_vals = (len(body) - off) // 4
        conv_params = 0
        chans = (1,) + CHANNELS
        for i in range(4):
            conv_params += 9 * chans[i] * chans[i + 1] + chans[i + 1]
        fc_in = (n_vals - conv_params - c_classes) // c_classes
        if fc_in < 1 or 4 * (conv_params + (fc_in + 1) * c_classes) != len(body) - off:
            raise ValueError(f"{path}: payload size does not fit any classifier shape")
        net = ScmNet(c_classes, fc_in, None)
    values = np.frombuffer(body, dtype="<f4", offset=off)
    _fill(net, values, path)
    return net
