"""Layout file I/O: the ``.lay`` binary format and TSV export.

odgi stores layouts in a small binary file (``odgi layout -o graph.lay``)
holding the X and Y coordinates of every node's two visualisation endpoints;
``odgi draw`` and the quality-evaluation scripts read it back. This module
implements a compatible-in-spirit container so layouts survive round-trips
between the engines, the metrics and the renderer, plus a TSV export mirroring
``odgi layout --tsv`` for inspection in external tools.

Format (little-endian):
    magic ``b"RPLY"`` | uint32 version | uint64 n_nodes |
    float64 X[2·n_nodes] | float64 Y[2·n_nodes]
"""
from __future__ import annotations

import io
import os
import struct
from typing import TextIO, Union

import numpy as np

from ..core.layout import Layout

__all__ = ["write_lay", "read_lay", "write_tsv", "read_tsv", "LayFormatError"]

_MAGIC = b"RPLY"
_VERSION = 1


class LayFormatError(ValueError):
    """Raised when a layout file is malformed."""


def write_lay(layout: Layout, destination: Union[str, os.PathLike, io.BufferedIOBase]) -> None:
    """Write a layout to a ``.lay`` binary file or binary handle."""
    coords = np.asarray(layout.coords, dtype=np.float64)
    n_nodes = coords.shape[0] // 2
    header = _MAGIC + struct.pack("<IQ", _VERSION, n_nodes)
    x = np.ascontiguousarray(coords[:, 0])
    y = np.ascontiguousarray(coords[:, 1])
    payload = header + x.tobytes() + y.tobytes()
    if hasattr(destination, "write"):
        destination.write(payload)  # type: ignore[union-attr]
        return
    with open(destination, "wb") as handle:
        handle.write(payload)


def read_lay(source: Union[str, os.PathLike, io.BufferedIOBase]) -> Layout:
    """Read a layout from a ``.lay`` binary file or binary handle."""
    if hasattr(source, "read"):
        data = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "rb") as handle:
            data = handle.read()
    if len(data) < len(_MAGIC) + 12:
        raise LayFormatError("file too small to be a layout file")
    if data[: len(_MAGIC)] != _MAGIC:
        raise LayFormatError("bad magic; not a repro layout file")
    version, n_nodes = struct.unpack_from("<IQ", data, len(_MAGIC))
    if version != _VERSION:
        raise LayFormatError(f"unsupported layout file version {version}")
    n_points = 2 * n_nodes
    expected = len(_MAGIC) + 12 + 2 * n_points * 8
    if len(data) != expected:
        raise LayFormatError(
            f"layout file size mismatch: expected {expected} bytes, got {len(data)}"
        )
    offset = len(_MAGIC) + 12
    x = np.frombuffer(data, dtype="<f8", count=n_points, offset=offset)
    y = np.frombuffer(data, dtype="<f8", count=n_points, offset=offset + n_points * 8)
    coords = np.stack([x, y], axis=1)
    return Layout(coords.copy())


def write_tsv(layout: Layout, destination: Union[str, os.PathLike, TextIO]) -> None:
    """Write a human-readable TSV (node_id, start_x, start_y, end_x, end_y)."""
    coords = layout.coords
    columns = (coords[0::2, 0].tolist(), coords[0::2, 1].tolist(),
               coords[1::2, 0].tolist(), coords[1::2, 1].tolist())
    lines = ["#node_id\tstart_x\tstart_y\tend_x\tend_y"]
    lines.extend(f"{node}\t{sx:.6f}\t{sy:.6f}\t{ex:.6f}\t{ey:.6f}"
                 for node, (sx, sy, ex, ey) in enumerate(zip(*columns)))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)  # type: ignore[union-attr]
        return
    with open(destination, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_tsv(source: Union[str, os.PathLike, TextIO]) -> Layout:
    """Read a layout from the TSV form written by :func:`write_tsv`.

    Rows are placed by their ``node_id`` column, so files whose rows were
    reordered (sorted, filtered then re-merged, …) round-trip correctly. The
    ids must form the contiguous range ``0..n_nodes-1`` exactly once each;
    duplicates or gaps raise :class:`LayFormatError`.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    ids = []
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise LayFormatError(f"bad TSV row: {line!r}")
        try:
            ids.append(int(parts[0]))
        except ValueError:
            raise LayFormatError(f"bad node_id in TSV row: {line!r}") from None
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise LayFormatError(f"bad coordinate in TSV row: {line!r}") from None
    if not rows:
        raise LayFormatError("TSV layout contains no rows")
    node_ids = np.asarray(ids, dtype=np.int64)
    n = node_ids.size
    if np.unique(node_ids).size != n:
        raise LayFormatError("TSV layout contains duplicate node ids")
    if node_ids.min() != 0 or node_ids.max() != n - 1:
        raise LayFormatError(
            f"TSV layout node ids must cover 0..{n - 1} contiguously "
            f"(got range {node_ids.min()}..{node_ids.max()})"
        )
    arr = np.asarray(rows, dtype=np.float64)
    coords = np.empty((2 * n, 2), dtype=np.float64)
    coords[2 * node_ids, 0] = arr[:, 0]
    coords[2 * node_ids, 1] = arr[:, 1]
    coords[2 * node_ids + 1, 0] = arr[:, 2]
    coords[2 * node_ids + 1, 1] = arr[:, 3]
    return Layout(coords)
