"""Wavefront-style mesh export and the checks that read a mesh back."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from .grid import ImmersionField

# values per formatted block: whole-file format strings would set the
# run's peak memory, per-line formatting its wall time
_BLOCK = 1 << 15
# bytes per read when a face section is copied from another mesh file
_COPY_BYTES = 1 << 19


def _write_blocks(fh, vals: np.ndarray) -> None:
    """The "v" lines of the positions vals, formatted in blocks."""
    rows = vals.reshape(-1, 3)
    step = _BLOCK // 3
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        fh.write(("v %.9g %.9g %.9g\n" * len(block)) % tuple(block.ravel().tolist()))


def _write_vertices(fh, vals: np.ndarray) -> None:
    """The "v" lines of the (mx, my, 3) positions vals, row by row.

    A flat map, whose x depends only on the row, y only on the column and
    whose z is constant, bit for bit (-0.0 and 0.0 print apart), is written
    from its mx + my + 1 distinct numbers; any other map in blocks.
    """
    bits = np.ascontiguousarray(vals).view(np.uint64)
    if not ((bits[..., 0] == bits[:, :1, 0]).all() and (bits[..., 1] == bits[:1, :, 1]).all()
            and (bits[..., 2] == bits[0, 0, 2]).all()):
        _write_blocks(fh, vals)
        return
    z = vals[0, 0, 2].item()
    tails = [" %.9g %.9g\n" % (y, z) for y in vals[0, :, 1].tolist()]
    for x in vals[:, 0, 0].tolist():
        head = "v %.9g" % x
        fh.write(head + head.join(tails))


def _write_faces(fh, mx: int, my: int) -> None:
    """The "f" lines of an mx x my vertex grid, two triangles per quad, one
    row of quads at a time from the id strings of its two vertex rows."""
    line = "f %s %s %s\nf %s %s %s\n" * (my - 1)
    ids = [""] * (6 * (my - 1))
    top = [str(k) for k in range(1, my + 1)]
    for i in range(1, mx):
        low = [str(k) for k in range(i * my + 1, (i + 1) * my + 1)]
        # quad j has corners (a, b, c, d) = (top j, low j, low j+1, top j+1)
        ids[0::6] = ids[3::6] = top[:-1]
        ids[1::6] = low[:-1]
        ids[2::6] = ids[4::6] = low[1:]
        ids[5::6] = top[1:]
        fh.write(line % tuple(ids))
        top = low


def _face_offset(source, mx: int, my: int) -> int:
    """Byte offset of the face lines of `source`, a mesh of mx x my
    vertices; a file whose face lines do not open and close as that mesh's
    do is refused."""
    n = mx * my
    first, last = f"f 1 {my + 1} {my + 2}\n".encode(), f"f {n - my - 1} {n} {n - my}\n".encode()
    with open(source, "rb") as src:
        src.seek(max(src.seek(0, 2) - len(last), 0))
        ends = src.read() == last
        src.seek(0)
        text = b"\n"  # stands at offset -1
        while (at := text.find(b"\nf ")) < 0 and (block := src.read(_COPY_BYTES)):
            text = text[-2:] + block
        if at >= 0:
            at += src.tell() - len(text) + 1
            src.seek(at)
        if not (ends and at > 0 and src.read(len(first)) == first):
            raise ValueError(f"{source} holds no faces of a mesh of {mx} x {my} vertices")
    return at


def export_mesh(u: ImmersionField, path, faces_from=None) -> None:
    """Text mesh: one vertex per node, grid quads split into triangles.

    Periodic charts duplicate the seam: the wrapped row/column is emitted
    again at its true position (which coincides with the first row/column
    for maps without a linear part), so faces close the torus; a welding
    pass on import recovers the watertight connectivity.  The faces depend
    on the chart's resolution only: faces_from, a mesh this function wrote
    on the same chart, lends its face lines instead of formatting them
    again.
    """
    vals = u.positions()
    if u.chart.periodic:
        extra_x = vals[:1] if u.linear is None else vals[:1] + u.linear[:, 0] * u.chart.extent[0]
        vals = np.concatenate([vals, extra_x], axis=0)
        extra_y = vals[:, :1] if u.linear is None else vals[:, :1] + u.linear[:, 1] * u.chart.extent[1]
        vals = np.concatenate([vals, extra_y], axis=1)
    mx, my = vals.shape[:2]
    at = None if faces_from is None else _face_offset(faces_from, mx, my)
    with open(path, "w") as fh:
        _write_vertices(fh, vals)
        if at is None:
            _write_faces(fh, mx, my)
            return
        with open(faces_from, "rb") as src:
            src.seek(at)
            fh.flush()
            shutil.copyfileobj(src, fh.buffer, _COPY_BYTES)


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
