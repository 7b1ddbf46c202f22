"""Output checks of the benchmark, computed apart from the program.

Derivatives here are the benchmark's own: 4th-order central differences
written with slices (periodic wrap or interior only) and FFT derivatives
on the torus.  Nothing is compared against a stored copy of earlier
output; every bound comes from a property the construction must have.
"""

from __future__ import annotations

import numpy as np

# agreement of the recomputed torus defect with summary.json: the meshes
# carry 9 significant digits, the measured difference is 1.7e-7
DEFECT_TOL = 5e-6
# relative agreement of the FFT-recomputed stage defect with defect_sup
REL_TOL = 1e-3


def central_d1(f, axis, h, periodic):
    """4th-order central first difference along axis 0 or 1.

    Periodic arrays wrap; otherwise the result covers the interior only and
    is two nodes shorter at each end of that axis.
    """
    f = np.moveaxis(np.asarray(f, dtype=float), axis, 0)
    if periodic:
        f = np.concatenate([f[-2:], f, f[:2]], axis=0)
    d = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    return np.moveaxis(d, 0, axis)


def fft_d1(f, axis, length):
    """Spectral first derivative of a periodic array along axis 0 or 1."""
    f = np.moveaxis(np.asarray(f, dtype=float), axis, 0)
    n = f.shape[0]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    if n % 2 == 0:
        k[-1] = 0.0  # the Nyquist mode has no real odd derivative
    spec = np.fft.rfft(f, axis=0) * (1j * k).reshape(-1, *[1] * (f.ndim - 1))
    return np.moveaxis(np.fft.irfft(spec, n=n, axis=0), 0, axis)


def pullback(jx, jy):
    """(g11, g12, g22) of the euclidean metric pulled back by columns jx, jy."""
    return np.stack([np.sum(jx * jx, axis=-1), np.sum(jx * jy, axis=-1),
                     np.sum(jy * jy, axis=-1)], axis=-1)


def min_eig(m):
    """Smallest eigenvalue of symmetric 2x2 matrices stored as (a, b, c)."""
    a, b, c = m[..., 0], m[..., 1], m[..., 2]
    return 0.5 * (a + c) - np.sqrt((0.5 * (a - c)) ** 2 + b * b)


def read_mesh_grid(path, nx, ny):
    """Vertex positions of an isoflex mesh export as an (nx, ny, 3) grid."""
    count = nx * ny
    with open(path) as fh:
        words = []
        for _ in range(count):
            line = fh.readline()
            if not line.startswith("v "):
                raise ValueError(f"{path}: expected {count} vertex lines")
            words.append(line[2:])
    return np.array(" ".join(words).split(), dtype=float).reshape(nx, ny, 3)


def torus_from_mesh(verts, extent):
    """Split a seam-duplicated torus mesh into (periodic part, linear part).

    The mesh repeats the first row and column at their true positions one
    period on, so the linear part is the mean jump across each seam.
    """
    lx, ly = extent
    lin = np.stack([np.mean(verts[-1, :-1] - verts[0, :-1], axis=0) / lx,
                    np.mean(verts[:-1, -1] - verts[:-1, 0], axis=0) / ly], axis=-1)
    pos = verts[:-1, :-1]
    nx, ny = pos.shape[:2]
    x = np.arange(nx) * (lx / nx)
    y = np.arange(ny) * (ly / ny)
    periodic = pos - x[:, None, None] * lin[:, 0] - y[None, :, None] * lin[:, 1]
    return periodic, lin


def torus_pullback_fd(verts, extent):
    """Pullback of a torus mesh with 4th-order periodic differences."""
    periodic, lin = torus_from_mesh(verts, extent)
    nx, ny = periodic.shape[:2]
    jx = central_d1(periodic, 0, extent[0] / nx, True) + lin[:, 0]
    jy = central_d1(periodic, 1, extent[1] / ny, True) + lin[:, 1]
    return pullback(jx, jy)


def check_torus_run(final_verts, initial_verts, g, summary, extent, a_base):
    """Checks on an ``isoflex run`` of a flat-torus scenario.

    g is the constant target metric as (a11, a12, a22); the strong band is
    that of the delta* the run's bootstrap chose.  Returns (problems,
    recomputed relative defect); an empty list passes.
    """
    g = np.asarray(g, dtype=float)
    short = g - torus_pullback_fd(final_verts, extent)
    problems = []
    lo = float(min_eig(short).min())
    if not lo > 0.0:
        problems.append(f"g - u#e not positive definite: min eigenvalue {lo:.3e}")
    rel = float(np.max(np.abs(short))) / float(np.max(np.abs(g)))
    delta_star = float(summary["bootstrap"]["delta_star"])
    if rel > 1.5 * delta_star:
        problems.append(f"relative defect {rel:.6g} above (3/2) delta* = "
                        f"{1.5 * delta_star:.6g}")
    reported = summary["final"]["defect_relative"]
    if abs(rel - reported) > DEFECT_TOL:
        problems.append(f"relative defect {reported:.9g} in summary.json, "
                        f"{rel:.9g} recomputed (tolerance {DEFECT_TOL:g})")
    total = summary["final"]["displacement_total"]
    if total > a_base ** -0.5:
        problems.append(f"displacement_total {total:.6g} above A^(-1/2) = "
                        f"{a_base ** -0.5:.6g}")
    moved = float(np.max(np.linalg.norm(final_verts - initial_verts, axis=-1)))
    if moved > total + 1e-6:
        problems.append(f"meshes moved {moved:.6g}, more than the reported "
                        f"displacement_total {total:.6g}")
    return problems, rel


def metric_addition_defect(v_values, v_linear, u_linear, rho, g, h, extent):
    """sup |pullback(v) - pullback(u) - rho^2 (g + h)| with FFT derivatives.

    u and v are torus immersions given by their periodic samples and 3x2
    linear parts; u is affine (its periodic part is zero).
    """
    v_values = np.asarray(v_values, dtype=float)
    jx = fft_d1(v_values, 0, extent[0]) + v_linear[:, 0]
    jy = fft_d1(v_values, 1, extent[1]) + v_linear[:, 1]
    lin = np.asarray(u_linear, dtype=float)
    pb_u = np.array([lin[:, 0] @ lin[:, 0], lin[:, 0] @ lin[:, 1], lin[:, 1] @ lin[:, 1]])
    rho2 = (np.asarray(rho, dtype=float) ** 2)[..., None]
    return float(np.max(np.abs(pullback(jx, jy) - pb_u - rho2 * (g + h))))


def check_metric_addition(recomputed, reported, lams, kappa, slope_tol=0.3):
    """Recomputed defects must match the reported ones and decay like
    lam^(1 - kappa) within slope_tol.  Returns (problems, fitted slope)."""
    problems = []
    for lam, mine, theirs in zip(lams, recomputed, reported):
        if abs(mine - theirs) > REL_TOL * mine:
            problems.append(f"lam={lam:g}: defect_sup {theirs:.9g} reported, "
                            f"{mine:.9g} recomputed")
    slope = float(np.polyfit(np.log(lams), np.log(reported), 1)[0])
    if abs(slope - (1.0 - kappa)) > slope_tol:
        problems.append(f"defect slope {slope:.3f} outside {1.0 - kappa:g} "
                        f"+- {slope_tol:g}")
    return problems, slope


def check_clamped_skeleton(u_new, u_old, vertex_nodes, g, spacing, delta_star):
    """Checks on an inductive pass over a clamped chart.

    Vertex nodes must not move, g - u#e must stay positive semidefinite in
    the interior (nodes two or more cells from the frame, where the central
    stencil fits), and the interior relative defect must stay within the
    strong band (3/2) delta*.  Returns (problems, relative defect).
    """
    problems = []
    moves = [float(np.max(np.abs(u_new[i, j] - u_old[i, j]))) for i, j in vertex_nodes]
    if max(moves) >= 1e-12:
        problems.append(f"a skeleton vertex moved by {max(moves):.3e}")
    hx, hy = spacing
    jx = central_d1(u_new, 0, hx, False)[:, 2:-2]
    jy = central_d1(u_new, 1, hy, False)[2:-2]
    g_in = np.asarray(g, dtype=float)[2:-2, 2:-2]
    short = g_in - pullback(jx, jy)
    lo = float(min_eig(short).min())
    if lo < 0.0:
        problems.append(f"g - u#e not positive semidefinite: min eigenvalue {lo:.3e}")
    rel = float(np.max(np.abs(short))) / float(np.max(np.abs(g_in)))
    if rel > 1.5 * delta_star:
        problems.append(f"relative defect {rel:.6g} above (3/2) delta* = "
                        f"{1.5 * delta_star:.6g}")
    return problems, rel
