"""Wavefront-style mesh export and the checks that read a mesh back."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grid import ImmersionField

# values per formatted block: whole-file format strings would set the
# run's peak memory, per-line formatting its wall time
_BLOCK = 1 << 15


def _write_blocks(fh, line: str, rows: np.ndarray) -> None:
    """Write each row of `rows` through the %-format `line`, in blocks."""
    step = _BLOCK // rows.shape[1]
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def export_mesh(u: ImmersionField, path) -> None:
    """Text mesh: one vertex per node, grid quads split into triangles.

    Periodic charts duplicate the seam: the wrapped row/column is emitted
    again at its true position (which coincides with the first row/column
    for maps without a linear part), so faces close the torus; a welding
    pass on import recovers the watertight connectivity.
    """
    vals = u.positions()
    if u.chart.periodic:
        extra_x = vals[:1] if u.linear is None else vals[:1] + u.linear[:, 0] * u.chart.extent[0]
        vals = np.concatenate([vals, extra_x], axis=0)
        extra_y = vals[:, :1] if u.linear is None else vals[:, :1] + u.linear[:, 1] * u.chart.extent[1]
        vals = np.concatenate([vals, extra_y], axis=1)
    mx, my = vals.shape[:2]
    ids = np.arange(1, mx * my + 1).reshape(mx, my)
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    with open(path, "w") as fh:
        _write_blocks(fh, "v %.9g %.9g %.9g\n", vals.reshape(-1, 3))
        _write_blocks(fh, "f %d %d %d\n", faces)


def import_mesh(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back vertices (n, 3) and triangle indices (m, 3), zero-based."""
    verts, faces = [], []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return np.asarray(verts), np.asarray(faces, dtype=int)


def weld_vertices(verts: np.ndarray, faces: np.ndarray, tol: float = 1e-9):
    """Merge vertices with coincident positions; returns remapped faces."""
    order = np.lexsort(verts.T)
    remap = np.empty(len(verts), dtype=int)
    rep = order[0]
    remap[rep] = rep
    for prev, cur in zip(order[:-1], order[1:]):
        if np.all(np.abs(verts[cur] - verts[rep]) <= tol):
            remap[cur] = rep
        else:
            rep = cur
            remap[cur] = rep
    return remap[faces]


def edge_face_counts(faces: np.ndarray) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts
