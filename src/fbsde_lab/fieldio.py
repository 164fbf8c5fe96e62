"""Serialization of value fields and CSV export of tables.

Binary layout: a plain-text header of ``key: value`` lines terminated by a
blank line, followed by the raw little-endian float64 array, row-major.
The header lists every grid axis node by node (JSON floats round-trip
exactly) and the provenance, so a dump is self-describing.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from .value_pde import Grid, ValueField

_MAGIC = "fbsde-lab value field v1"


def _nodes_text(nodes: np.ndarray) -> str:
    return json.dumps([float(x) for x in nodes])


def dump_field(field: ValueField, path) -> None:
    """Write the field as text header + flat binary payload; the payload is
    written from the array's own buffer, without a bytes copy."""
    g = field.grid
    header = [
        f"format: {_MAGIC}",
        f"t_nodes: {_nodes_text(g.t_nodes)}",
        f"e_nodes: {_nodes_text(g.e_nodes)}",
        f"p_dims: {g.dim}",
    ]
    for k, p in enumerate(g.p_nodes):
        header.append(f"p_nodes_{k}: {_nodes_text(p)}")
    header.append(f"shape: {json.dumps(list(field.values.shape))}")
    header.append(f"provenance: {json.dumps(field.provenance, default=str)}")
    blob = "\n".join(header) + "\n\n"
    with open(path, "wb") as fh:
        fh.write(blob.encode("utf-8"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").data)


def _read_header(fh, path) -> dict:
    """The ``key: value`` lines after the format line, up to the blank line
    that ends the header."""
    magic = f"format: {_MAGIC}\n".encode()
    first = fh.readline(len(magic))
    if first != magic:
        raise ValueError(f"{path}: format line {first!r}, expected {_MAGIC!r}")
    kv, last = {}, "format"
    while True:
        line = fh.readline()
        if line == b"\n":
            return kv
        if not line.endswith(b"\n"):
            raise ValueError(f"{path}: the header does not end: no blank line "
                             f"after its {last!r} line")
        try:
            key, sep, val = line[:-1].decode("utf-8").partition(": ")
        except UnicodeDecodeError:
            sep = ""
        if not sep:
            raise ValueError(f"{path}: the line after the header's {last!r} line "
                             "is not 'key: value' text; a blank line must end "
                             "the header")
        kv[key], last = val, key


def load_field(path) -> ValueField:
    """Read a field written by ``dump_field``.

    The header is read line by line and checked, and the payload size is
    checked against the file size, before anything is allocated; the payload
    is then read straight into the field's array.  A malformed file is
    refused with a ValueError that names it and the header key at fault.
    """
    with open(path, "rb") as fh:
        kv = _read_header(fh, path)

        def header(key):
            if key not in kv:
                raise ValueError(f"{path}: header has no {key!r} line")
            try:
                return json.loads(kv[key])
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: the {key!r} line is not JSON: {exc}") from None

        def nodes(key):
            value = header(key)
            try:
                return np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"{path}: {key!r} must be a list of numbers, "
                                 f"not {kv[key][:60]}") from None

        def counts(key, value):
            if not all(type(n) is int and n >= 0 for n in value):
                raise ValueError(f"{path}: {key!r} must hold non-negative "
                                 f"integers, not {kv[key]}")

        p_dims, shape = header("p_dims"), header("shape")
        counts("p_dims", [p_dims])
        if not isinstance(shape, list):
            raise ValueError(f"{path}: 'shape' must be a list, not {kv['shape']}")
        counts("shape", shape)
        shape = tuple(shape)
        axes = [nodes("t_nodes"), nodes("e_nodes")]
        axes += [nodes(f"p_nodes_{k}") for k in range(p_dims)]
        try:
            grid = Grid(t_nodes=axes[0], e_nodes=axes[1], p_nodes=tuple(axes[2:]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        provenance = header("provenance")
        if not isinstance(provenance, dict):
            raise ValueError(f"{path}: 'provenance' must be a JSON object, "
                             f"not {kv['provenance'][:60]}")
        want = (len(grid.t_nodes),) + grid.space_shape()
        if shape != want:
            raise ValueError(f"{path}: 'shape' {list(shape)} does not match the "
                             f"header's axes, {list(want)}")
        need = 8 * math.prod(shape)
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != need:
            raise ValueError(f"{path}: payload holds {have} bytes, 'shape' "
                             f"{list(shape)} needs {need}")
        values = np.empty(shape, dtype="<f8")
        if fh.readinto(values.data.cast("B")) != need:
            raise ValueError(f"{path}: payload ended before {need} bytes")
    return ValueField(grid=grid, values=values, provenance=provenance)


def write_csv(path, header: list[str], rows) -> None:
    """Comma-separated, '.' decimal, header row; atomic via temp rename.  Each
    cell is written as ``str`` of itself, which for a float or a numpy float64
    is the shortest text that reads back to the same value."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    tmp.replace(path)
