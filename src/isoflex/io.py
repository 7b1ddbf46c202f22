"""Field serialization (columnar binary container, CSV) and mesh export."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import CLAMPED, PERIODIC, GridChart, ImmersionField, MetricField, ScalarField

_MAGIC = b"CIF1"
_KINDS = {ScalarField: 0, MetricField: 1, ImmersionField: 2}
_HEADER = struct.Struct("<4sBBBBIIIdd")  # magic, kind, boundary, stencil, pad, ncomp, nx, ny, lx, ly


def write_field(f, path) -> None:
    """Columnar binary container: header, then row-major float64 body."""
    kind = _KINDS[type(f)]
    nx, ny = f.chart.resolution
    vals = f.values if f.values.ndim == 3 else f.values[..., None]
    ncomp = vals.shape[-1]
    # the stencil byte records the derivative order of immersions (always 4)
    stencil = 4 if kind == 2 else 0
    linear = getattr(f, "linear", None)
    header = _HEADER.pack(_MAGIC, kind, 1 if f.chart.periodic else 0, stencil,
                          1 if linear is not None else 0,
                          ncomp, nx, ny, *f.chart.extent)
    with open(path, "wb") as fh:
        fh.write(header)
        if linear is not None:
            fh.write(np.ascontiguousarray(linear, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        magic, kind, boundary, _, has_linear, ncomp, nx, ny, lx, ly = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field container")
        linear = None
        if has_linear:
            linear = np.frombuffer(fh.read(48), dtype="<f8").reshape(3, 2)
        body = np.frombuffer(fh.read(), dtype="<f8")
    chart = GridChart((lx, ly), (nx, ny), PERIODIC if boundary else CLAMPED)
    vals = body.reshape(nx, ny, ncomp)
    if kind == 0:
        return ScalarField(chart, vals[..., 0])
    if kind == 1:
        return MetricField(chart, vals)
    return ImmersionField(chart, vals, linear)


def write_csv(f, path) -> None:
    """x, y, components as plain CSV for inspection."""
    x, y = f.chart.mesh()
    vals = f.values if f.values.ndim == 3 else f.values[..., None]
    ncomp = vals.shape[-1]
    cols = [x.ravel(), y.ravel()] + [vals[..., c].ravel() for c in range(ncomp)]
    header = "x,y," + ",".join(f"c{c}" for c in range(ncomp))
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# Wavefront-style mesh export

def _fmt(v: float) -> str:
    return f"{v:.9g}"


def export_mesh(u: ImmersionField, path) -> None:
    """Text mesh: one vertex per node, grid quads split into triangles.

    Periodic charts duplicate the seam: the wrapped row/column is emitted
    again at its true position (which coincides with the first row/column
    for maps without a linear part), so faces close the torus; a welding
    pass on import recovers the watertight connectivity.
    """
    nx, ny = u.chart.resolution
    vals = u.positions()
    if u.chart.periodic:
        extra_x = vals[:1] if u.linear is None else vals[:1] + u.linear[:, 0] * u.chart.extent[0]
        vals = np.concatenate([vals, extra_x], axis=0)
        extra_y = vals[:, :1] if u.linear is None else vals[:, :1] + u.linear[:, 1] * u.chart.extent[1]
        vals = np.concatenate([vals, extra_y], axis=1)
    mx, my = vals.shape[:2]
    lines = []
    for i in range(mx):
        for j in range(my):
            p = vals[i, j]
            lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")

    def vid(i, j):
        return i * my + j + 1

    for i in range(mx - 1):
        for j in range(my - 1):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    Path(path).write_text("\n".join(lines) + "\n")


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
