"""Serialization of value fields and CSV export of tables.

Binary layout: a plain-text header of ``key: value`` lines terminated by a
blank line, followed by the raw little-endian float64 array, row-major.
The header lists every grid axis node by node (JSON floats round-trip
exactly) and the provenance, so a dump is self-describing.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .value_pde import Grid, ValueField

_MAGIC = "fbsde-lab value field v1"


def _nodes_text(nodes: np.ndarray) -> str:
    return json.dumps([float(x) for x in nodes])


def dump_field(field: ValueField, path) -> None:
    """Write the field as text header + flat binary payload."""
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
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path) -> ValueField:
    raw = Path(path).read_bytes()
    sep = raw.index(b"\n\n")
    head, payload = raw[:sep].decode("utf-8"), raw[sep + 2:]
    kv = {}
    for line in head.splitlines():
        key, _, val = line.partition(": ")
        kv[key] = val
    if kv.get("format") != _MAGIC:
        raise ValueError(f"{path}: format {kv.get('format')!r}, expected {_MAGIC!r}")

    def header(key):
        if key not in kv:
            raise ValueError(f"{path}: header has no {key!r} line")
        return json.loads(kv[key])

    p_nodes = tuple(np.asarray(header(f"p_nodes_{k}"), dtype=float)
                    for k in range(int(header("p_dims"))))
    shape = tuple(header("shape"))
    if len(payload) != 8 * int(np.prod(shape)):
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, shape "
                         f"{list(shape)} needs {8 * int(np.prod(shape))}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    grid = Grid(t_nodes=np.asarray(header("t_nodes"), dtype=float),
                e_nodes=np.asarray(header("e_nodes"), dtype=float), p_nodes=p_nodes)
    return ValueField(grid=grid, values=values, provenance=header("provenance"))


def write_csv(path, header: list[str], rows) -> None:
    """Comma-separated, '.' decimal, header row; atomic via temp rename."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    tmp.replace(path)


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    return x

