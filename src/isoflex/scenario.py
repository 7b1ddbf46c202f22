"""Scenario files: INI-style key/value sections describing a run.

A scenario fixes the chart, the target metric, the initial map, the target
Hoelder exponent and schedule overrides, and an optional triangulation
skeleton.  Parsing validates everything at once and reports every problem
in a single error.
"""

from __future__ import annotations

import ast
import configparser
import operator
from dataclasses import dataclass, field

import numpy as np

from .grid import CLAMPED, PERIODIC, GridChart, ImmersionField, MetricField
from .induction import SkeletonSet


class ScenarioError(ValueError):
    """Carries every problem found in a scenario file."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("scenario invalid:\n  - " + "\n  - ".join(self.problems))


_KNOWN = {
    "scenario": {"name", "seed"},
    "chart": {"extent", "resolution", "boundary"},
    "metric": {"kind", "matrix", "factor"},
    "map": {"kind", "scale"},
    "schedule": {"theta", "alpha", "a", "depth", "delta_star"},
    "skeleton": {"kind", "vertices", "edges"},
}

_SAFE_FUNCS = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "exp", "sqrt", "abs", "minimum", "maximum")}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _eval_factor(expr: str, x, y):
    """Evaluate a conformal-factor expression in x, y.

    The grammar is whitelisted: numbers, x, y, pi, + - * / **, unary minus
    and calls of the numpy functions in _SAFE_FUNCS; anything else (names,
    attributes, subscripts, keywords) raises ValueError.
    """
    names = {"x": x, "y": y, "pi": np.pi}

    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _SAFE_FUNCS and not node.keywords):
            return _SAFE_FUNCS[node.func.id](*[ev(arg) for arg in node.args])
        raise ValueError(f"{ast.unparse(node)!r} is not allowed in a factor expression")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"syntax error: {exc.msg}") from None
    return ev(tree.body)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    extent: tuple[float, float]
    resolution: tuple[int, int]
    boundary: str
    metric_kind: str
    metric_matrix: tuple[float, float, float]
    metric_factor: str | None
    map_scale: float
    theta: float
    alpha: float
    a_base: float
    depth: int
    delta_star: float | None
    vertices: tuple = ()
    edges: tuple = ()
    resolved: dict = field(default_factory=dict)

    def chart(self) -> GridChart:
        return GridChart(self.extent, self.resolution, self.boundary)

    def metric(self) -> MetricField:
        chart = self.chart()
        if self.metric_kind == "constant":
            a11, a12, a22 = self.metric_matrix
            return MetricField.constant(chart, np.array([[a11, a12], [a12, a22]]))
        x, y = chart.mesh()
        factor = _eval_factor(self.metric_factor, x, y)
        factor = np.broadcast_to(np.asarray(factor, dtype=float), x.shape)
        return MetricField.from_components(chart, factor ** 2,
                                           np.zeros_like(x), factor ** 2)

    def initial_map(self) -> ImmersionField:
        return ImmersionField.flat(self.chart(), scale=self.map_scale)

    def skeleta(self) -> list[SkeletonSet]:
        if not self.vertices:
            return [SkeletonSet.empty(), SkeletonSet.empty(),
                    SkeletonSet(dimension_level=2, whole=True)]
        segs = tuple((self.vertices[i], self.vertices[j]) for i, j in self.edges)
        return [SkeletonSet(0, points=self.vertices),
                SkeletonSet(1, points=self.vertices, segments=segs),
                SkeletonSet(dimension_level=2, whole=True)]


def _floats(text):
    """The numbers of a whitespace- or comma-separated list, at least one."""
    values = [float(t) for t in text.replace(",", " ").split()]
    if not values:
        raise ValueError("no numbers")
    return values


def depth_problem(depth: int, delta_star: float | None) -> str | None:
    """Why a pass depth is refused, or None: a pass of depth d reads the
    amplitude levels delta_1 4^(-q) up to q = d, with delta_1 = delta* (at
    most 1/8 where the bootstrap picks it), and none may underflow to 0."""
    if depth < 1:
        return "depth must be at least 1"
    delta1 = 0.125 if delta_star is None else delta_star
    deepest = 1
    while delta1 * 0.25 ** (deepest + 1) > 0.0:
        deepest += 1
    if depth > deepest:
        return (f"depth must be at most {deepest}: deeper amplitude levels "
                f"delta_1 4^(-q) underflow to 0 at delta_1 = {delta1:g}")
    return None


def parse_scenario(path) -> Scenario:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    problems: list[str] = []
    if not read:
        raise ScenarioError([f"cannot read scenario file {path}"])

    for section in cp.sections():
        if section not in _KNOWN:
            problems.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _KNOWN[section]:
                problems.append(f"unknown key {key!r} in [{section}]")

    def get(section, key, default=None):
        return cp.get(section, key, fallback=default)

    def number(section, key, default, kind=float):
        """kind(value) of a key, for every number of a scenario; a value
        that does not parse, or holds a nan or an inf, is a problem and
        the default stands in for it."""
        text = get(section, key)
        if text is None:
            return default
        try:
            value = kind(text)
        except ValueError:
            problems.append(f"cannot parse {key} {text!r} in [{section}]")
            return default
        if kind is not int and not np.all(np.isfinite(value)):
            problems.append(f"{key} {text!r} in [{section}] is not finite")
            return default
        return value

    name = get("scenario", "name", "unnamed")
    seed = number("scenario", "seed", 0, int)

    def pair(key, default, whole=False):  # one number stands for both axes
        values = number("chart", key, [default], _floats)
        if len(values) > 2 or whole and any(v != int(v) for v in values):
            problems.append(f"{key} takes one or two {'whole ' * whole}numbers, got {values}")
        return tuple((values * 2)[:2])

    chart_problems = len(problems)
    extent = pair("extent", 1.0)
    if min(extent) <= 0:
        problems.append(f"extent {extent} must be positive")
    resolution = tuple(int(v) for v in pair("resolution", 128, whole=True))
    if min(resolution) < 8:
        problems.append(f"resolution {resolution} below the 8-node minimum")

    boundary = get("chart", "boundary", CLAMPED)
    if boundary not in (CLAMPED, PERIODIC):
        problems.append(f"boundary must be clamped or periodic, got {boundary!r}")
    chart = GridChart(extent, resolution, boundary) if len(problems) == chart_problems else None

    metric_kind = get("metric", "kind", "constant")
    matrix = (1.0, 0.0, 1.0)
    factor = None
    if metric_kind == "constant":
        vals = number("metric", "matrix", list(matrix), _floats)
        if len(vals) != 3:
            problems.append("metric matrix needs three entries: a11 a12 a22")
        else:
            matrix = tuple(vals)
            if matrix[0] * matrix[2] - matrix[1] ** 2 <= 0 or matrix[0] <= 0:
                problems.append(f"metric matrix {matrix} is not positive definite")
    elif metric_kind == "conformal":
        factor = get("metric", "factor")
        if not factor:
            problems.append("conformal metric needs a factor expression")
        else:
            # at each chart node as Scenario.metric evaluates it (or the origin)
            x, y = chart.mesh() if chart else (np.zeros((1, 1)), np.zeros((1, 1)))
            try:
                with np.errstate(all="ignore"):
                    f = np.broadcast_to(_eval_factor(factor, x, y), x.shape)
                bad = ~(np.isfinite(f) & (f > 0))
                if bad.any():
                    i = np.unravel_index(np.argmax(bad), bad.shape)
                    problems.append(f"conformal factor must be finite and positive: it is "
                                    f"not at {np.count_nonzero(bad)} of {bad.size} nodes, the "
                                    f"first at x = {x[i]:.6g}, y = {y[i]:.6g}, where it is {f[i]:.6g}")
            except Exception as exc:
                problems.append(f"conformal factor does not evaluate: {exc}")
    else:
        problems.append(f"unknown metric kind {metric_kind!r}")

    map_kind = get("map", "kind", "flat")
    if map_kind != "flat":
        problems.append(f"unknown map kind {map_kind!r}; the initial map is flat")
    map_scale = number("map", "scale", 1.0)

    theta = number("schedule", "theta", 0.15)
    if not 0.0 < theta < 0.2:
        problems.append(
            f"theta = {theta} rejected: admissible exponents are 0 < theta < 1/5")
    alpha = number("schedule", "alpha", 0.1)
    if not 0.0 < alpha < 1.0:
        problems.append(f"alpha = {alpha} outside (0, 1)")
    a_base = number("schedule", "a", 4.0)
    if a_base < 1.0:
        problems.append(f"amplitude base A = {a_base} must be >= 1")
    depth = number("schedule", "depth", 4, int)
    delta_star = number("schedule", "delta_star", None)
    if delta_star is not None and not 0.0 < delta_star <= 0.125:
        problems.append(f"delta_star = {delta_star} outside (0, 1/8]")
        delta_star = None  # reported; the depth is judged at the default 1/8
    if problem := depth_problem(depth, delta_star):
        problems.append(problem)

    vertices, edges = (), ()
    skel_kind = get("skeleton", "kind", "none")
    if skel_kind == "triangulation":
        try:
            vertices = tuple(tuple(_floats(v)) for v in
                             get("skeleton", "vertices", "").split(";") if v.strip())
            edges = tuple(tuple(int(i) for i in e.replace("-", " ").split()) for e in
                          get("skeleton", "edges", "").split(";") if e.strip())
            if not vertices:
                problems.append("a triangulation skeleton needs at least one vertex")
            for e in edges:
                if len(e) != 2 or not all(0 <= i < len(vertices) for i in e):
                    problems.append(f"edge {e} references missing vertices")
                elif sum((b - a) * (b - a) for a, b in zip(vertices[e[0]], vertices[e[1]])) == 0:
                    problems.append(f"edge {e} has zero length")
            for v in vertices:
                if len(v) != 2:
                    problems.append(f"vertex {v} needs two coordinates")
                elif not (0 < v[0] < extent[0] and 0 < v[1] < extent[1]):
                    problems.append(f"vertex {v} outside the open chart")
        except ValueError:
            problems.append("cannot parse skeleton vertices/edges")
        if boundary == PERIODIC:
            problems.append("triangulation skeleta expect a clamped chart")
    elif skel_kind != "none":
        problems.append(f"unknown skeleton kind {skel_kind!r}")

    if boundary == PERIODIC and map_scale <= 0:
        problems.append("flat map scale must be positive")

    if problems:
        raise ScenarioError(problems)

    resolved = {
        "name": name, "seed": seed, "extent": extent, "resolution": resolution,
        "boundary": boundary, "metric_kind": metric_kind, "theta": theta,
        "alpha": alpha, "A": a_base, "depth": depth, "delta_star": delta_star,
        "skeleton": skel_kind,
    }
    return Scenario(name, seed, extent, resolution, boundary, metric_kind,
                    tuple(matrix), factor, map_scale, theta, alpha,
                    a_base, depth, delta_star, vertices, edges,
                    resolved)
