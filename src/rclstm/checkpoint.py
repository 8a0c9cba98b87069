"""Deterministic binary container and model checkpointing.

Container layout (documented for external tools):

    bytes 0..8   magic ``RCLSTM01``
    bytes 8..12  big-endian uint32 length L of the JSON header
    bytes 12..12+L  header: {"version", "kind", "meta", "arrays": [
                     {"name", "dtype", "shape"} ...]} with sorted keys
    remainder    each array's raw little-endian C-order bytes, in header order

A model checkpoint (kind ``model``) holds, per layer k, the arrays

    layer{k}.values  <f8, the live weights of the 4H x (D+H) gate matrix
                     in row-major order of the mask's nonzeros
                     (``np.flatnonzero``), one per set mask bit
    layer{k}.bits    |u1, ``np.packbits`` of the row-major mask: ceil(4H *
                     (D+H) / 8) bytes, the first entry in the most
                     significant bit, the last byte padded with zero bits
    layer{k}.b       <f8, the 4H biases

plus ``head.w`` and ``head.b``; ``meta`` gives the task, the output width
and each layer's dims.  Files written before this layout (v1) held a dense
``layer{k}.w``, zero where masked, and an unpacked ``layer{k}.mask`` of 0/1
bytes in place of ``values`` and ``bits``; they still load, and are
re-saved in the layout above (v2).  The container itself is unchanged, so
its header version stays 1 and the layer arrays' names tell the layouts
apart.

The format carries no timestamps, so identical content always serializes to
identical bytes and save -> load -> save is the identity.
"""

import json
import math
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
    if arr.dtype == bool or arr.dtype == np.uint8:
        arr = arr.astype("|u1", copy=False)
    elif np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype("<i8", copy=False)
    else:
        arr = arr.astype("<f8", copy=False)
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
    # the arrays' own buffers, so the join is the only copy of the data
    parts.extend(canon[e["name"]].reshape(-1).data for e in entries)
    return b"".join(parts)


def _array_entry(entry):
    """(name, dtype, shape) of one header entry; CheckpointError unless the
    entry is an object with a string name, a known dtype and a shape of
    non-negative integers."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"array entry {entry!r} is not an object")
    name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
    if not isinstance(name, str) or not isinstance(dtype, str):
        raise CheckpointError(f"array entry {entry!r}: name and dtype must be strings")
    if dtype not in _DTYPES:
        raise CheckpointError(f"unknown dtype {dtype!r}")
    if not (isinstance(shape, list) and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
        raise CheckpointError(f"array {name}: shape {shape!r} is not a list of "
                              "non-negative integers")
    return name, _DTYPES[dtype], shape


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
        if not isinstance(entries, list):
            raise CheckpointError("container header 'arrays' is not a list")
        for entry in entries:
            name, dtype, shape = _array_entry(entry)
            nbytes = math.prod(shape) * dtype.itemsize
            if offset + nbytes > len(data):
                raise CheckpointError(f"truncated stream: array {name} incomplete")
            arr = np.frombuffer(data[offset : offset + nbytes], dtype=dtype).copy()
            try:
                arrays[name] = arr.reshape(shape)
            except ValueError as err:  # more than 64 dims, or a dim past intp
                raise CheckpointError(f"array {name}: shape {shape!r}: {err}") from None
            offset += nbytes
    except KeyError as err:
        raise CheckpointError(f"container header lacks key {err}") from None
    if offset != len(data):
        raise CheckpointError("trailing bytes after final array")
    return meta, arrays


def save_checkpoint(model):
    """Serialize a model (live weights, packed mask bits, dims, task) to
    bytes.

    A layer's mask density and kernel route are not stored: both follow
    from its mask bits.
    """
    meta = {
        "task": model.task,
        "out_dim": int(model.out_dim),
        "layers": [{"input_dim": layer.input_dim, "hidden_dim": layer.hidden_dim}
                   for layer in model.layers],
    }
    arrays = {"head.w": model.head_w, "head.b": model.head_b}
    for k, layer in enumerate(model.layers):
        arrays[f"layer{k}.values"] = layer.values
        arrays[f"layer{k}.bits"] = np.packbits(layer.mask.bits)
        arrays[f"layer{k}.b"] = layer.b
    return write_container("model", meta, arrays)


def _check_shape(name, arr, shape):
    if arr.shape != shape:
        raise CheckpointError(f"{name} has shape {arr.shape}, expected {shape}")


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _layer_weights(k, arrays, shape):
    """Layer k's (live weights, mask bits) for a gate matrix of ``shape``,
    from either layout; CheckpointError unless they agree with ``shape``
    and each other."""
    if f"layer{k}.w" in arrays:  # v1: a dense matrix, zero where masked
        w, bits = arrays[f"layer{k}.w"], arrays[f"layer{k}.mask"].astype(bool)
        _check_shape(f"layer{k}.w", w, shape)
        _check_shape(f"layer{k}.mask", bits, shape)
        if np.logical_and(w, ~bits).any():
            raise CheckpointError(f"layer{k}.w has non-zero weights where its "
                                  "mask is off")
        return w[bits], bits
    packed, values = arrays[f"layer{k}.bits"], arrays[f"layer{k}.values"]
    n = math.prod(shape)
    if packed.dtype != np.uint8:
        raise CheckpointError(f"layer{k}.bits has dtype {packed.dtype.str}, expected |u1")
    _check_shape(f"layer{k}.bits", packed, ((n + 7) // 8,))
    flat = np.unpackbits(packed)
    if flat[n:].any():
        raise CheckpointError(f"layer{k}.bits has padding bits set")
    bits = flat[:n].astype(bool).reshape(shape)
    if values.dtype != np.float64:
        raise CheckpointError(f"layer{k}.values has dtype {values.dtype.str}, expected <f8")
    _check_shape(f"layer{k}.values", values, (int(np.count_nonzero(bits)),))
    return values, bits


def load_checkpoint(data):
    """Rebuild a model from ``save_checkpoint`` bytes, bit for bit.

    Raises CheckpointError unless the stream holds a model that can serve:
    a known task, layer dims that chain, arrays of the shapes and dtypes
    those dims give, one live weight per mask bit, finite weights, biases
    and head entries, and, in a v1 file, zero weights wherever a mask is
    off.  Layer keys this version does not read
    (files from earlier versions stored mask seeds, densities and kernel
    thresholds) are ignored.
    """
    meta, arrays = read_container(data, expect_kind="model")
    try:
        task = meta["task"]
        if task not in ("regression", "classification"):
            raise CheckpointError(f"unknown task {task!r}")
        if not meta["layers"]:
            raise CheckpointError("checkpoint holds no layers")
        layers = []
        for k, spec in enumerate(meta["layers"]):
            d, hidden = spec["input_dim"], spec["hidden_dim"]
            if not (_is_count(d) and _is_count(hidden)):
                raise CheckpointError(f"layer {k} dims {d!r} x {hidden!r} are not "
                                      "positive integers")
            if layers and d != layers[-1].hidden_dim:
                raise CheckpointError(f"layer {k} input_dim {d} != layer {k - 1} "
                                      f"hidden_dim {layers[-1].hidden_dim}")
            values, bits = _layer_weights(k, arrays, (4 * hidden, d + hidden))
            b = arrays[f"layer{k}.b"]
            _check_shape(f"layer{k}.b", b, (4 * hidden,))
            layers.append(LstmLayerParams(d, hidden, values, b, ConnectivityMask(bits)))
        out_dim = meta["out_dim"]
        if not _is_count(out_dim) or (task == "regression" and out_dim != 1):
            raise CheckpointError(f"{task} model with out_dim {out_dim!r}")
        head_w, head_b = arrays["head.w"], arrays["head.b"]
        _check_shape("head.w", head_w, (out_dim, layers[-1].hidden_dim))
        _check_shape("head.b", head_b, (out_dim,))
        params = {"head.w": head_w, "head.b": head_b}
        for k, layer in enumerate(layers):
            params.update({f"layer{k}.values": layer.values, f"layer{k}.b": layer.b})
        for name, arr in params.items():
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{name} holds non-finite entries")
        return StackedRclstm(layers, head_w, head_b, task)
    except KeyError as err:
        raise CheckpointError(f"checkpoint lacks {err}") from None
    except TypeError as err:  # meta or a layer entry is not a JSON object
        raise CheckpointError(f"malformed checkpoint metadata: {err}") from None


def save_checkpoint_file(model, path):
    data = save_checkpoint(model)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def load_checkpoint_file(path):
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read())
