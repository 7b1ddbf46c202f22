"""Discretized scalar / tensor / immersion fields on rectangular charts.

Fields live on uniform tensor-product grids, either clamped (a rectangle,
nodes include the frame) or periodic (a flat torus, last node wraps to the
first).  All arithmetic is float64: the iteration spans several orders of
magnitude in frequency and 32-bit accumulates visible error.

Derivatives use centered 4th-order stencils in the interior and one-sided
2nd-order stencils within two cells of a clamped frame.  They are evaluated
over slabs of rows of about SLAB_BYTES each, so that a slab's input, output
and temporaries stay in cache; the pullback metric, sup norms, certificate
bounds (slab_derivatives) and the Hoelder probe's largest differences are
reduced slab by slab and never build a whole derivative field.  Every node
gets the same floating-point operations as a whole-array evaluation would
give it.  All operations are pure: inputs are never mutated, outputs are
freshly allocated, and a pullback handed on is shared, never written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PERIODIC = "periodic"
CLAMPED = "clamped"

MIN_RESOLUTION = 8

# smallest singular value at or below which pullback_metric calls a node degenerate
DEGENERATE_TOL = 1e-10

# bytes of field rows per slab of the derivative kernel (at least one row).
# A slab, its stencil output and one temporary take about 1.5 MB, inside a
# 2 MB per-core L2 cache; of 64 KiB to 1 MiB on such a Xeon, 256-512 KiB ran
# the stencils and the Gram product fastest at 512^2 and 1024^2.
SLAB_BYTES = 1 << 19


class ChartError(ValueError):
    """Invalid chart geometry or mismatched charts."""


class UnderResolvedError(ValueError):
    """An operation was asked to act below the resolvable grid scale."""


@dataclass(frozen=True)
class GridChart:
    """A rectangular sample grid over a planar chart or flat torus.

    extent      physical side lengths (length units)
    resolution  samples per axis
    boundary    "clamped" (rectangle, frame nodes included) or "periodic"
                (torus; node n would coincide with node 0 and is not stored)
    """

    extent: tuple[float, float] = (1.0, 1.0)
    resolution: tuple[int, int] = (128, 128)
    boundary: str = CLAMPED

    def __post_init__(self):
        if self.boundary not in (PERIODIC, CLAMPED):
            raise ChartError(f"unknown boundary mode {self.boundary!r}")
        if any(r < MIN_RESOLUTION for r in self.resolution):
            raise ChartError(
                f"resolution {self.resolution} below minimum {MIN_RESOLUTION} per axis")
        if any(e <= 0.0 for e in self.extent):
            raise ChartError(f"extent {self.extent} must be positive")

    @property
    def spacing(self) -> tuple[float, float]:
        nx, ny = self.resolution
        lx, ly = self.extent
        if self.boundary == PERIODIC:
            return lx / nx, ly / ny
        return lx / (nx - 1), ly / (ny - 1)

    @property
    def periodic(self) -> bool:
        return self.boundary == PERIODIC

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        hx, hy = self.spacing
        nx, ny = self.resolution
        return np.arange(nx) * hx, np.arange(ny) * hy

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        ax, ay = self.axes()
        return np.meshgrid(ax, ay, indexing="ij")

    def same_grid(self, other: "GridChart") -> bool:
        return (self.resolution == other.resolution
                and self.boundary == other.boundary
                and np.allclose(self.extent, other.extent))


def _require_same_chart(a, b):
    if not a.chart.same_grid(b.chart):
        raise ChartError("fields live on different charts")


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class ScalarField:
    chart: GridChart
    values: np.ndarray  # (nx, ny)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.chart.resolution:
            raise ChartError(f"scalar values {v.shape} do not match chart {self.chart.resolution}")
        _check_finite(v, "scalar field")

    @classmethod
    def constant(cls, chart, c):
        return cls(chart, np.full(chart.resolution, float(c)))

    @classmethod
    def from_function(cls, chart, fn):
        x, y = chart.mesh()
        return cls(chart, np.asarray(fn(x, y), dtype=float))

    def gradient(self) -> np.ndarray:
        """Stencil gradient, shape (nx, ny, 2)."""
        hx, hy = self.chart.spacing
        p = self.chart.periodic
        return np.stack([_diff1(self.values, 0, hx, p), _diff1(self.values, 1, hy, p)], axis=-1)


def _eigenvalues(v):
    a, b, c = v[..., 0], v[..., 1], v[..., 2]
    mean = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b ** 2)
    return mean - rad, mean + rad


@dataclass(frozen=True)
class MetricField:
    """Symmetric 2x2 tensor samples; symmetry is exact by storage.

    values[..., 0] = a11, values[..., 1] = a12 = a21, values[..., 2] = a22.
    """

    chart: GridChart
    values: np.ndarray  # (nx, ny, 3)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (*self.chart.resolution, 3):
            raise ChartError(f"metric values {v.shape} do not match chart {self.chart.resolution}")
        _check_finite(v, "metric field")

    @classmethod
    def constant(cls, chart, matrix):
        m = np.asarray(matrix, dtype=float)
        comp = np.array([m[0, 0], m[0, 1], m[1, 1]])
        return cls(chart, np.broadcast_to(comp, (*chart.resolution, 3)).copy())

    @classmethod
    def from_components(cls, chart, a11, a12, a22):
        return cls(chart, np.stack(np.broadcast_arrays(a11, a12, a22), axis=-1).astype(float))

    def eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form symmetric 2x2 eigenvalues, (min, max) per node."""
        return _eigenvalues(self.values)

    def det(self) -> np.ndarray:
        a, b, c = self.values[..., 0], self.values[..., 1], self.values[..., 2]
        return a * c - b * b

    def spd_band(self) -> tuple[float, float]:
        """(min eigenvalue, max eigenvalue) over all nodes, slab by slab."""
        lo, hi = np.inf, -np.inf
        for s in _slabs(self.values):
            slab_lo, slab_hi = _eigenvalues(self.values[s])
            lo, hi = min(lo, float(slab_lo.min())), max(hi, float(slab_hi.max()))
        return lo, hi


@dataclass(frozen=True)
class ImmersionField:
    """Map samples into R^3.

    On periodic charts a map like the flat chart map is not periodic in its
    values; its linear part (a 3x2 matrix) is carried separately so that
    stencils, mollification and seam wrapping act on the periodic samples
    only.  positions() returns the actual points linear . x + values.
    """

    chart: GridChart
    values: np.ndarray  # (nx, ny, 3), the (periodic) sample part
    linear: np.ndarray | None = None  # (3, 2) or None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (*self.chart.resolution, 3):
            raise ChartError(f"immersion values {v.shape} do not match chart {self.chart.resolution}")
        if self.linear is not None:
            lin = np.asarray(self.linear, dtype=float)
            if lin.shape != (3, 2):
                raise ChartError(f"linear part must be 3x2, got {lin.shape}")
            if np.all(lin == 0.0):
                lin = None
            object.__setattr__(self, "linear", lin)
        _check_finite(v, "immersion field")

    @classmethod
    def from_function(cls, chart, fn):
        x, y = chart.mesh()
        comps = fn(x, y)
        return cls(chart, np.stack(comps, axis=-1))

    @classmethod
    def flat(cls, chart, scale=1.0):
        """(s*x, s*y, 0): the scaled planar chart map."""
        if chart.periodic:
            lin = np.array([[scale, 0.0], [0.0, scale], [0.0, 0.0]])
            return cls(chart, np.zeros((*chart.resolution, 3)), lin)
        x, y = chart.mesh()
        z = np.zeros_like(x)
        return cls(chart, np.stack([scale * x, scale * y, z], axis=-1))

    def positions(self) -> np.ndarray:
        """Actual map values, including any linear part."""
        if self.linear is None:
            return self.values
        x, y = self.chart.mesh()
        return self.values + np.einsum("ki,i...->...k", self.linear, np.stack([x, y]))

    def displaced(self, offset: np.ndarray) -> "ImmersionField":
        """New immersion moved by a (periodic) displacement field."""
        return ImmersionField(self.chart, self.values + offset, self.linear)

    def jacobian(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node Jacobian columns (d_x u, d_y u), each of shape (nx, ny, 3)."""
        hx, hy = self.chart.spacing
        p = self.chart.periodic
        jx = _diff1(self.values, 0, hx, p)
        jy = _diff1(self.values, 1, hy, p)
        if self.linear is not None:
            jx += self.linear[:, 0]
            jy += self.linear[:, 1]
        return jx, jy

    def min_singular_value(self) -> np.ndarray:
        """Smallest singular value of the Jacobian per node."""
        lo = _gram(*self.jacobian())[2]
        return np.sqrt(np.maximum(lo, 0.0))


def _gram(x, y):
    """Gram matrix of the Jacobian columns x, y and its closed-form spectrum.

    Returns (g, det, lo, hi): g[..., 0:3] holds (g11, g12, g22), the entries
    d_i u . d_j u summed over k = 0, 1, 2 in that order; then the determinant
    and the two eigenvalues, sqrt(max(lo, 0)) being the Jacobian's smallest
    singular value.  The engine passes one slab of rows at a time.
    """
    g11 = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] + x[..., 2] * x[..., 2]
    g12 = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]
    g22 = y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1] + y[..., 2] * y[..., 2]
    tr = g11 + g22
    det = g11 * g22 - g12 * g12
    rad = np.sqrt(np.maximum((0.5 * tr) ** 2 - det, 0.0))
    return np.stack([g11, g12, g22], axis=-1), det, 0.5 * tr - rad, 0.5 * tr + rad


# ---------------------------------------------------------------------------
# finite-difference stencils
#
# Every derivative is evaluated over slabs of rows (axis 0) of about
# SLAB_BYTES, so that a slab's input, output and the stencil's temporaries
# stay in cache instead of streaming whole fields through memory once per
# term.  Along axis 0 a slab reads its rows plus two halo rows on each side.
# Along axis 1 a slab is flattened to (rows * ny, ...), so that a shift of one
# along the flat axis 0 is a shift of one column and the centered stencil
# reads contiguous memory; it mixes neighbouring rows at the two edge columns
# on each side, which the edge formulas then overwrite.  The centered
# stencils run over the interior rows (columns) of either chart; the two
# edge rows on each side come from the one-sided formulas of a clamped
# frame, or on a periodic axis from the centered stencil over an 8-row
# wrapped copy.  Each stencil is evaluated in the term order of its formula,
# so every node gets the same floats as the formula itself, whatever the
# slab size.

def _slabs(values):
    """Slices of axis 0 that cut values into slabs of about SLAB_BYTES."""
    n = values.shape[0]
    step = max(1, SLAB_BYTES // values[0].nbytes)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _centered1(w, out, h):
    """out = (-w[4:] + 8 w[3:-1] - 8 w[1:-3] + w[:-4]) / (12 h)."""
    tmp = np.multiply(w[3:-1], 8)
    np.negative(w[4:], out=out)
    out += tmp
    np.multiply(w[1:-3], 8, out=tmp)
    out -= tmp
    out += w[:-4]
    out /= 12 * h


def _centered2(w, out, h2):
    """out = (-w[4:] + 16 w[3:-1] - 30 w[2:-2] + 16 w[1:-3] - w[:-4]) / (12 h2)."""
    tmp = np.multiply(w[3:-1], 16)
    np.negative(w[4:], out=out)
    out += tmp
    np.multiply(w[2:-2], 30, out=tmp)
    out -= tmp
    np.multiply(w[1:-3], 16, out=tmp)
    out += tmp
    out -= w[:-4]
    out /= 12 * h2


def _edge_rows(f, h, order, periodic):
    """Rows 0, 1, n-2, n-1 of the derivative of f along axis 0."""
    if periodic:
        edge = np.empty_like(f[:4])
        centered = _centered1 if order == 1 else _centered2
        centered(np.concatenate([f[-4:], f[:4]]), edge, h if order == 1 else h * h)
        return edge[2], edge[3], edge[0], edge[1]
    if order == 1:
        # one-sided / short centered rows near the frame, 2nd order
        return ((-3 * f[0] + 4 * f[1] - f[2]) / (2 * h), (f[2] - f[0]) / (2 * h),
                (f[-1] - f[-3]) / (2 * h), (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h))
    h2 = h * h
    return ((2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2, (f[2] - 2 * f[1] + f[0]) / h2,
            (f[-1] - 2 * f[-2] + f[-3]) / h2, (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2)


def _rows(f, out, a, b, h, order, periodic):
    """Rows a..b-1 of the derivative of f along axis 0, written to out."""
    n = f.shape[0]
    lo, hi = max(a, 2), min(b, n - 2)
    if lo < hi:
        centered, hh = (_centered1, h) if order == 1 else (_centered2, h * h)
        centered(f[lo - 2:hi + 2], out[lo - a:hi - a], hh)
    if a < 2 or b > n - 2:
        for i, row in zip((0, 1, n - 2, n - 1), _edge_rows(f, h, order, periodic)):
            if a <= i < b:
                out[i - a] = row


def _slab(values, s, axis, h, order, periodic, out):
    """Derivative along axis of the rows s of values, written to out (C-contiguous)."""
    if axis == 0:
        _rows(values, out, s.start, s.stop, h, order, periodic)
        return
    f = values[s]
    k, n = f.shape[:2]
    flat = f.reshape(k * n, *f.shape[2:])  # a copy only of a non-contiguous slab
    centered, hh = (_centered1, h) if order == 1 else (_centered2, h * h)
    centered(flat, np.reshape(out, flat.shape, copy=False)[2:-2], hh)
    for j, col in zip((0, 1, n - 2, n - 1), _edge_rows(f.swapaxes(0, 1), h, order, periodic)):
        out[:, j] = col


def _diff(values, axis, h, order, periodic):
    out = np.empty(values.shape)  # C-contiguous whatever the layout of values
    for s in _slabs(values):
        _slab(values, s, axis, h, order, periodic, out[s])
    return out


def _diff1(values, axis, h, periodic):
    """First derivative along axis 0 or 1 of a (nx, ny, ...) array."""
    return _diff(values, axis, h, 1, periodic)


def slab_derivatives(values, chart, names, slabs):
    """Yield (s, [D values[s] for D in names]) for each slab of rows s in
    slabs (largest first); names are taken from "x", "y", "xx", "xy", "yy"
    and the yielded arrays are reused by the next slab."""
    hx, hy = chart.spacing
    p = chart.periodic
    rows = slabs[0].stop - slabs[0].start
    dx = np.empty((rows,) + values.shape[1:]) if "xy" in names else None
    bufs = [np.empty((rows,) + values.shape[1:]) for _ in names]
    for s in slabs:
        k = s.stop - s.start
        for name, d in zip(names, bufs):
            if name == "xy":  # d_y of the slab's d_x
                _slab(values, s, 0, hx, 1, p, dx[:k])
                _slab(dx[:k], slice(0, k), 1, hy, 1, p, d[:k])
            else:
                axis = 0 if name[0] == "x" else 1
                _slab(values, s, axis, (hx, hy)[axis], len(name), p, d[:k])
        yield s, [d[:k] for d in bufs]


def derivative_sup(values, chart, names, collar=0):
    """max |D values| over the derivatives D in names, slab by slab.

    names are taken from "x", "y", "xx", "xy", "yy"; no whole derivative
    field is built.  collar > 0 leaves out the nodes within collar rows or
    columns of the frame, and the slabs that hold only such rows.
    """
    nx, ny = values.shape[:2]
    slabs = [s for s in _slabs(values) if max(s.start, collar) < min(s.stop, nx - collar)]
    best = 0.0
    for s, derivs in slab_derivatives(values, chart, names, slabs):
        rows = slice(max(s.start, collar) - s.start, min(s.stop, nx - collar) - s.start)
        for d in derivs:
            best = max(best, float(np.max(np.abs(d[rows, collar:ny - collar]))))
    return best


# ---------------------------------------------------------------------------
# pullback metric

def jacobian_slabs(u: ImmersionField, slabs):
    """Yield (s, d_x u[s], d_y u[s]) per slab of rows s, the floats of
    u.jacobian(), in two buffers that the next slab reuses."""
    for s, (x, y) in slab_derivatives(u.values, u.chart, ("x", "y"), slabs):
        if u.linear is not None:
            x += u.linear[:, 0]
            y += u.linear[:, 1]
        yield s, x, y


def pullback_metric(u: ImmersionField) -> MetricField:
    """Pullback of the euclidean metric: components d_i u . d_j u.

    Symmetric and PSD up to stencil truncation error.  Nodes whose Jacobian
    has smallest singular value <= DEGENERATE_TOL are recorded in the
    result's meta["degenerate_nodes"] (the first 64) and
    meta["degenerate_count"]; they are not fatal.  Fused slab by slab, each
    node getting the floats of _gram(*u.jacobian()).
    """
    g, bad = np.empty_like(u.values), []
    for s, x, y in jacobian_slabs(u, _slabs(u.values)):
        g[s], _, lo, _ = _gram(x, y)
        degenerate = np.sqrt(np.maximum(lo, 0.0)) <= DEGENERATE_TOL
        if degenerate.any():
            bad.append(np.argwhere(degenerate) + (s.start, 0))
    out = MetricField(u.chart, g)
    if bad:
        bad = np.concatenate(bad)
        out.meta["degenerate_nodes"] = [tuple(ix) for ix in bad[:64]]
        out.meta["degenerate_count"] = int(bad.shape[0])
    return out


# ---------------------------------------------------------------------------
# mollification

def _bump_kernel(chart: GridChart, ell: float):
    """Quartic bump (1 - (r/ell)^2)^2 sampled on the grid, unit discrete mass."""
    hx, hy = chart.spacing
    rx, ry = int(np.floor(ell / hx)), int(np.floor(ell / hy))
    dx = np.arange(-rx, rx + 1) * hx
    dy = np.arange(-ry, ry + 1) * hy
    r2 = (dx[:, None] ** 2 + dy[None, :] ** 2) / ell ** 2
    w = np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)
    return w / w.sum()


def _clamped_conv(shape, w, valid=False):
    """Linear convolution with w of arrays of the given shape, by real FFTs
    padded to a fast length; w is transformed once, here.  The result is
    the centred window of the input's shape, or of the nodes the kernel
    covers whole when valid is set."""
    import scipy.fft  # loaded on clamped charts only

    full = [n + k - 1 for n, k in zip(shape, w.shape)]
    fshape = [scipy.fft.next_fast_len(n, True) for n in full]
    w_hat = scipy.fft.rfftn(w, fshape, axes=(0, 1))
    keep = [n - k + 1 if valid else n for n, k in zip(shape, w.shape)]
    window = tuple(slice((m - n) // 2, (m - n) // 2 + n) for m, n in zip(full, keep))

    def conv(a):
        # data times kernel, in that order: a complex product is not
        # bitwise commutative
        return scipy.fft.irfftn(scipy.fft.rfftn(a, fshape, axes=(0, 1)) * w_hat,
                                fshape, axes=(0, 1))[window]

    return conv


def mollify(f, ell: float, clamped_mode: str = "renormalize"):
    """Componentwise convolution with the quartic bump of radius ell.

    Periodic charts wrap; clamped charts either renormalize the clipped
    kernel mass near the frame (default; preserves constants exactly) or
    extend fields by first-order extrapolation across the frame
    (clamped_mode="extrapolate"; also preserves affine fields, used where an
    immersion's pullback must survive smoothing).
    """
    chart = f.chart
    hx, hy = chart.spacing
    if ell < 2 * max(hx, hy):
        raise UnderResolvedError(
            f"mollification length {ell:.4g} under-resolved: need >= 2*spacing={2 * max(hx, hy):.4g}")
    if clamped_mode not in ("renormalize", "extrapolate"):
        raise ValueError(f"unknown clamped_mode {clamped_mode!r}")
    w = _bump_kernel(chart, ell)
    vals = f.values
    comps = vals[..., None] if vals.ndim == 2 else vals
    out = np.empty_like(comps)
    if chart.periodic:
        nx, ny = chart.resolution
        kern = np.zeros((nx, ny))
        rx, ry = (w.shape[0] - 1) // 2, (w.shape[1] - 1) // 2
        ix = (np.arange(-rx, rx + 1)) % nx
        iy = (np.arange(-ry, ry + 1)) % ny
        np.add.at(kern, (ix[:, None], iy[None, :]), w)
        kern_hat = np.fft.rfft2(kern)
        for c in range(comps.shape[-1]):
            out[..., c] = np.fft.irfft2(np.fft.rfft2(comps[..., c]) * kern_hat, s=(nx, ny))
    elif clamped_mode == "renormalize":
        conv = _clamped_conv(chart.resolution, w)
        mass = conv(np.ones(chart.resolution))
        for c in range(comps.shape[-1]):
            out[..., c] = conv(comps[..., c]) / mass
    else:
        rx, ry = (w.shape[0] - 1) // 2, (w.shape[1] - 1) // 2
        nx, ny = chart.resolution
        conv = _clamped_conv((nx + 2 * rx, ny + 2 * ry), w, valid=True)
        for c in range(comps.shape[-1]):
            padded = np.pad(comps[..., c], ((rx, rx), (ry, ry)),
                            mode="reflect", reflect_type="odd")
            out[..., c] = conv(padded)
    out = out if vals.ndim == 3 else out[..., 0]
    if isinstance(f, ScalarField):
        return ScalarField(chart, out)
    if isinstance(f, MetricField):
        return MetricField(chart, out)
    # a linear part survives mollification exactly (symmetric unit-mass kernel)
    return ImmersionField(chart, out, f.linear)


# ---------------------------------------------------------------------------
# Hoelder seminorms and norm reports

def _pair_max(a, dx, dy, periodic):
    """max |a(x + d) - a(x)| over all components and node pairs at offset d,
    slab by slab; periodic partners wrap as two slices along each axis."""
    nx, ny = a.shape[:2]
    if periodic:
        dy %= ny
        rows = ((0, nx - dx, dx), (nx - dx, nx, dx - nx))
        cols = ((0, ny - dy, dy), (ny - dy, ny, dy - ny)) if dy else ((0, ny, 0),)
    else:
        rows = ((0, nx - dx, dx),)
        cols = ((0, ny - dy, dy),) if dy >= 0 else ((-dy, ny, dy),)
    step = max(1, SLAB_BYTES // a[0].nbytes)
    best = 0.0
    for r0, r1, sr in rows:
        for i in range(r0, r1, step):
            j = min(i + step, r1)
            for c0, c1, sc in cols:
                partner = a[i + sr:j + sr, c0 + sc:c1 + sc]
                best = max(best, float(np.max(np.abs(partner - a[i:j, c0:c1]))))
    return best


def _offsets(chart: GridChart, exhaustive: bool):
    nx, ny = chart.resolution
    if chart.periodic:
        mx, my = nx // 2, ny // 2
    else:
        mx, my = nx - 1, ny - 1
    if exhaustive:
        for dx in range(0, mx + 1):
            for dy in range(-my if dx > 0 else 1, my + 1):
                if dx == 0 and dy <= 0:
                    continue
                yield dx, dy
    else:
        d = 1
        while d <= max(mx, my):
            for dx, dy in ((d, 0), (0, d), (d, d), (d, -d)):
                if dx <= mx and abs(dy) <= my:
                    yield dx, dy
            d *= 2


def holder_seminorm(f, theta: float, deriv_order: int = 0) -> float:
    """Max Hoelder quotient |f(x)-f(y)| / |x-y|^theta over sampled node pairs.

    Pairs are sampled at dyadic separations (axis and diagonal offsets
    spacing * 2^j); grids with at most 128 nodes per axis are searched over
    all offsets instead.  The result is a lower bound for the continuum
    seminorm; dyadic sampling changes it by a bounded factor only.

    deriv_order=1 applies the quotient to the stencil first derivatives.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError("Hoelder exponent must lie in (0, 1]")
    if deriv_order not in (0, 1):
        raise ValueError("deriv_order must be 0 or 1")
    chart = f.chart
    hx, hy = chart.spacing
    vals = _component_view(f)
    if deriv_order == 1:
        p = chart.periodic
        vals = np.concatenate([_diff1(vals, 0, hx, p), _diff1(vals, 1, hy, p)], axis=-1)
    # a max commutes with the division by the positive sep^theta, so one
    # division per offset gives the per-component quotients' max exactly
    best = 0.0
    for dx, dy in _offsets(chart, max(chart.resolution) <= 128):
        q = _pair_max(vals, dx, dy, chart.periodic) / np.hypot(dx * hx, dy * hy) ** theta
        best = max(best, q)
    return best


@dataclass(frozen=True)
class NormReport:
    sup_norm: float
    c1_norm: float
    c2_norm: float

    def __post_init__(self):
        if min(self.sup_norm, self.c1_norm, self.c2_norm) < 0:
            raise ValueError("norms must be nonnegative")
        if self.c1_norm < self.sup_norm - 1e-12:
            raise ValueError("C1 norm cannot undercut the sup norm")


def _component_view(f):
    v = f.values
    return v[..., None] if v.ndim == 2 else v


def sup_norm(f) -> float:
    v = _component_view(f)
    if v.shape[-1] == 1:
        return float(np.max(np.abs(v)))
    return float(np.max(np.linalg.norm(v, axis=-1)))


def c1_seminorm(f) -> float:
    return derivative_sup(_component_view(f), f.chart, ("x", "y"))


def c2_seminorm(f) -> float:
    return derivative_sup(_component_view(f), f.chart, ("xx", "xy", "yy"))


def norm_report(f) -> NormReport:
    """Sup / C1 / C2 estimates.

    Norms follow the summed convention |f|_m = sum of seminorms [f]_j.
    """
    sup = sup_norm(f)
    s1 = c1_seminorm(f)
    s2 = c2_seminorm(f)
    return NormReport(sup, sup + s1, sup + s1 + s2)


# ---------------------------------------------------------------------------
# shortness

@dataclass(frozen=True)
class ShortnessReport:
    classification: str  # "strictly_short" | "short" | "not_short"
    min_eigenvalue: float
    strong_short: bool | None = None
    strong_margin: float | None = None

    @classmethod
    def classify(cls, min_eig: float, margin: float | None,
                 tol: float = 1e-12) -> "ShortnessReport":
        """The report for min eig(g - u#e) and the strong-band margin
        min eig(g/2 -+ h), None where no factorization was checked."""
        kind = ("strictly_short" if min_eig > tol else "short" if min_eig >= -tol
                else "not_short")
        return cls(kind, min_eig, None if margin is None else bool(margin >= -tol), margin)


def check_short(u: ImmersionField, g: MetricField, rho: ScalarField | None = None,
                h: MetricField | None = None, tol: float = 1e-12, *,
                pb: MetricField) -> ShortnessReport:
    """Classify g - u#e by its pointwise smallest eigenvalue; pb is u#e.

    With a (rho, h) factorization supplied, additionally reports whether
    -g/2 <= h <= g/2 holds at every node (the strong-short bound).
    """
    _require_same_chart(u, g)
    _require_same_chart(pb, g)
    m = MetricField(g.chart, g.values - pb.values).spd_band()[0]
    margin = None
    if rho is not None and h is not None:
        _require_same_chart(g, h)
        upper = MetricField(g.chart, 0.5 * g.values - h.values)
        lower = MetricField(g.chart, 0.5 * g.values + h.values)
        margin = min(upper.spd_band()[0], lower.spd_band()[0])
    return ShortnessReport.classify(m, margin, tol)
