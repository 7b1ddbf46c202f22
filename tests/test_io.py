import numpy as np
import pytest

import isoflex.io

from isoflex.grid import CLAMPED, PERIODIC, GridChart, ImmersionField
from isoflex.io import _BLOCK, edge_face_counts, export_mesh, import_mesh, weld_vertices


def _reference_export(u, path):
    """Reference writer: one formatted line per vertex and per face."""
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
            lines.append(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")

    def vid(i, j):
        return i * my + j + 1

    for i in range(mx - 1):
        for j in range(my - 1):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    path.write_text("\n".join(lines) + "\n")


def _minimal_chart_2x2_like():
    # smallest legal chart is 8x8; the 2x2 mesh example is covered by
    # slicing the exported mesh of a tiny flat patch instead
    return GridChart((1.0, 1.0), (8, 8))


def _wavy(c):
    return ImmersionField.from_function(
        c, lambda x, y: (np.cos(2 * np.pi * x) + 0.1 * np.sin(6 * np.pi * y),
                         np.sin(2 * np.pi * x) / 3.0, np.exp(np.cos(2 * np.pi * y))))


class TestMesh:
    @pytest.mark.parametrize("case", ["periodic_linear", "periodic", "clamped"])
    def test_bytes_match_per_line_writer(self, tmp_path, case):
        if case == "periodic_linear":
            # 129^2 vertices and 2 * 128^2 faces: several blocks, whose
            # boundaries split grid rows
            c = GridChart((1.0, 0.75), (128, 128), PERIODIC)
            u = ImmersionField(c, _wavy(c).values, np.array([[0.9, 0.1], [0.0, 1.1], [0.3, -0.2]]))
            per_block = _BLOCK // 3
            assert 129 * 129 > per_block and per_block % 129
            assert 2 * 128 * 128 > per_block and per_block % 256
        elif case == "periodic":
            u = _wavy(GridChart((1.0, 1.0), (24, 40), PERIODIC))
        else:
            u = _wavy(GridChart((2.0, 1.0), (40, 24), CLAMPED))
            vals = u.values.copy()
            vals[0, 0] = (-0.0, 5e-324, 1e17)
            vals[3, 5] = (123456789.5, -1e-300, 1.0 / 3.0)
            u = ImmersionField(u.chart, vals)
        got, ref = tmp_path / "got.obj", tmp_path / "ref.obj"
        export_mesh(u, got)
        _reference_export(u, ref)
        assert got.read_bytes() == ref.read_bytes()
        if case == "clamped":
            assert got.read_text().startswith("v -0 4.94065646e-324 1e+17\n")

    @pytest.mark.parametrize("case", ["periodic_flat", "clamped_flat", "planted_minus_zero",
                                      "moved_node"])
    def test_flat_vertices_from_axes(self, tmp_path, monkeypatch, case):
        # a flat map's vertex lines are joined from its axes; a map whose
        # x, y or z breaks the pattern by a single bit falls back to blocks
        if case == "periodic_flat":
            # zero periodic part and a linear part; 129 + 1 rows and columns
            u = ImmersionField.flat(GridChart((1.0, 0.75), (128, 64), PERIODIC), scale=1.15)
        else:
            u = ImmersionField.flat(GridChart((2.0, 1.0), (40, 24), CLAMPED), scale=0.3)
        if case == "planted_minus_zero":
            vals = u.values.copy()
            vals[3, 5, 2] = -0.0  # == 0.0, but printed "-0"
            u = ImmersionField(u.chart, vals)
        elif case == "moved_node":
            vals = u.values.copy()
            vals[3, 5, 0] = np.nextafter(vals[3, 5, 0], 1.0)
            u = ImmersionField(u.chart, vals)
        blocks = []
        write_blocks = isoflex.io._write_blocks
        monkeypatch.setattr(isoflex.io, "_write_blocks",
                            lambda fh, vals: (blocks.append(vals), write_blocks(fh, vals)))
        got, ref = tmp_path / "got.obj", tmp_path / "ref.obj"
        export_mesh(u, got)
        _reference_export(u, ref)
        assert got.read_bytes() == ref.read_bytes()
        assert len(blocks) == (0 if case.endswith("flat") else 1)
        if case == "planted_minus_zero":
            assert got.read_bytes().count(b" -0\n") == 1

    def test_faces_copied_from_a_mesh_of_the_chart(self, tmp_path, monkeypatch):
        # reads that split the face lines, and their first one, anywhere
        c = GridChart((1.0, 0.75), (24, 40), PERIODIC)
        u = _wavy(c)
        first, got, ref = tmp_path / "first.obj", tmp_path / "got.obj", tmp_path / "ref.obj"
        export_mesh(ImmersionField.flat(c), first)
        _reference_export(u, ref)
        for size in (7, 1000, 1 << 19):
            monkeypatch.setattr(isoflex.io, "_COPY_BYTES", size)
            export_mesh(u, got, faces_from=first)
            assert got.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("shape", [(25, 40), (30, 41)])
    def test_faces_of_another_chart_refused(self, tmp_path, shape):
        # a mesh of 25 x 41 vertices lends no faces to one of 25 x 40 (the
        # first face line differs) or of 30 x 41 (the last)
        first = tmp_path / "first.obj"
        export_mesh(_wavy(GridChart((1.0, 1.0), (24, 40), PERIODIC)), first)
        with pytest.raises(ValueError, match="holds no faces of a mesh of"):
            export_mesh(_wavy(GridChart((1.0, 1.0), shape, CLAMPED)), tmp_path / "u.obj",
                        faces_from=first)
        assert not (tmp_path / "u.obj").exists()

    def test_flat_patch_counts(self, tmp_path):
        c = _minimal_chart_2x2_like()
        u = ImmersionField.flat(c)
        p = tmp_path / "u.obj"
        export_mesh(u, p)
        verts, faces = import_mesh(p)
        assert len(verts) == 64
        assert len(faces) == 2 * 7 * 7

    def test_reimport_positions(self, tmp_path):
        c = GridChart((1.0, 1.0), (10, 10), PERIODIC)
        u = ImmersionField.from_function(
            c, lambda x, y: (np.cos(2 * np.pi * x), np.sin(2 * np.pi * x), y))
        p = tmp_path / "u.obj"
        export_mesh(u, p)
        verts, _ = import_mesh(p)
        # periodic export appends the duplicated seam row/column
        grid = verts.reshape(11, 11, 3)
        assert np.max(np.abs(grid[:10, :10] - u.values)) < 1e-9
        assert np.max(np.abs(grid[10, :10] - u.values[0])) < 1e-9
        assert np.max(np.abs(grid[:10, 10] - u.values[:, 0])) < 1e-9

    def test_torus_watertight_after_welding(self, tmp_path):
        n = 12
        c = GridChart((1.0, 1.0), (n, n), PERIODIC)
        # embedded torus: every edge must be shared by exactly two faces
        def torus(x, y):
            R, r = 1.0, 0.3
            a, b = 2 * np.pi * x, 2 * np.pi * y
            return ((R + r * np.cos(b)) * np.cos(a),
                    (R + r * np.cos(b)) * np.sin(a),
                    r * np.sin(b))

        u = ImmersionField.from_function(c, torus)
        p = tmp_path / "t.obj"
        export_mesh(u, p)
        verts, faces = import_mesh(p)
        welded = weld_vertices(verts, faces)
        counts = edge_face_counts(welded)
        assert set(counts.values()) == {2}

    def test_clamped_boundary_edges_single_faced(self, tmp_path):
        c = _minimal_chart_2x2_like()
        u = ImmersionField.flat(c)
        p = tmp_path / "u.obj"
        export_mesh(u, p)
        verts, faces = import_mesh(p)
        counts = edge_face_counts(weld_vertices(verts, faces))
        # a disc has boundary: some edges belong to one face only
        assert set(counts.values()) == {1, 2}
