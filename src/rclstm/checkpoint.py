"""Deterministic binary container and model checkpointing.

Layout (documented for external tools):

    bytes 0..8   magic ``RCLSTM01``
    bytes 8..12  big-endian uint32 length L of the JSON header
    bytes 12..12+L  header: {"version", "kind", "meta", "arrays": [
                     {"name", "dtype", "shape"} ...]} with sorted keys
    remainder    each array's raw little-endian C-order bytes, in header order

The format carries no timestamps, so identical content always serializes to
identical bytes and save -> load -> save is the identity.
"""

import json
import struct

import numpy as np

from .cell import ConnectivityMask, LstmLayerParams
from .errors import CheckpointError
from .network import StackedRclstm

MAGIC = b"RCLSTM01"
VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8"), "|u1": np.dtype("|u1")}


def _canonical(arr):
    arr = np.asarray(arr)
    if arr.dtype == bool:
        arr = arr.astype("|u1")
    elif np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype("<i8")
    else:
        arr = arr.astype("<f8")
    return np.ascontiguousarray(arr)


def write_container(kind, meta, arrays):
    """Serialize metadata plus named arrays to bytes."""
    canon = {name: _canonical(arr) for name, arr in arrays.items()}
    entries = [{"name": name, "dtype": canon[name].dtype.str,
                "shape": list(canon[name].shape)}
               for name in sorted(canon)]
    header = {"version": VERSION, "kind": kind, "meta": meta, "arrays": entries}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack(">I", len(blob)), blob]
    parts.extend(canon[e["name"]].tobytes() for e in entries)
    return b"".join(parts)


def read_container(data, expect_kind=None):
    """Parse container bytes back into (meta, arrays dict)."""
    if len(data) < 12 or data[:8] != MAGIC:
        raise CheckpointError("not a container stream (bad magic)")
    (hlen,) = struct.unpack(">I", data[8:12])
    if len(data) < 12 + hlen:
        raise CheckpointError("truncated stream: header incomplete")
    try:
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"corrupt header: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointError("corrupt header: not a JSON object")
    if header.get("version") != VERSION:
        raise CheckpointError(f"unsupported container version {header.get('version')}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise CheckpointError(
            f"container holds {header.get('kind')!r}, expected {expect_kind!r}")
    arrays = {}
    offset = 12 + hlen
    try:
        meta, entries = header["meta"], header["arrays"]
        for entry in entries:
            name, dtype, shape = entry["name"], _DTYPES.get(entry["dtype"]), entry["shape"]
            if dtype is None:
                raise CheckpointError(f"unknown dtype {entry['dtype']!r}")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = count * dtype.itemsize
            if offset + nbytes > len(data):
                raise CheckpointError(f"truncated stream: array {name} incomplete")
            arr = np.frombuffer(data[offset : offset + nbytes], dtype=dtype).copy()
            arrays[name] = arr.reshape(shape)
            offset += nbytes
    except KeyError as err:
        raise CheckpointError(f"container header lacks key {err}") from None
    if offset != len(data):
        raise CheckpointError("trailing bytes after final array")
    return meta, arrays


def save_checkpoint(model):
    """Serialize a model (weights, masks, seeds, task metadata) to bytes."""
    meta = {
        "task": model.task,
        "out_dim": int(model.out_dim),
        "layers": [
            {
                "input_dim": layer.input_dim,
                "hidden_dim": layer.hidden_dim,
                "kernel_threshold": layer.kernel_threshold,
                "mask_seed": layer.mask.seed,
                "mask_mode": layer.mask.mode,
                "mask_density": layer.mask.density,
                "mask_target_density": layer.mask.target_density,
            }
            for layer in model.layers
        ],
    }
    arrays = {"head.w": model.head_w, "head.b": model.head_b}
    for k, layer in enumerate(model.layers):
        arrays[f"layer{k}.w"] = layer.w
        arrays[f"layer{k}.b"] = layer.b
        arrays[f"layer{k}.mask"] = layer.mask.bits
    return write_container("model", meta, arrays)


def load_checkpoint(data):
    """Rebuild a model from ``save_checkpoint`` bytes, bit for bit."""
    meta, arrays = read_container(data, expect_kind="model")
    try:
        layers = []
        for k, spec in enumerate(meta["layers"]):
            bits = arrays[f"layer{k}.mask"].astype(bool)
            mask = ConnectivityMask(bits.shape[0], bits.shape[1], bits,
                                    spec["mask_density"], spec["mask_seed"],
                                    spec["mask_mode"], spec["mask_target_density"])
            layers.append(LstmLayerParams(spec["input_dim"], spec["hidden_dim"],
                                          arrays[f"layer{k}.w"], arrays[f"layer{k}.b"],
                                          mask, spec["kernel_threshold"]))
        return StackedRclstm(layers, arrays["head.w"], arrays["head.b"], meta["task"])
    except KeyError as err:
        raise CheckpointError(f"checkpoint lacks {err}") from None


def save_checkpoint_file(model, path):
    data = save_checkpoint(model)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def load_checkpoint_file(path):
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read())
