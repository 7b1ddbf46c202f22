"""Numerical construction of C^{1,theta} isometric immersions.

The package builds immersions of 2-D metrics into R^3 by staged
high-frequency corrugation: a metric defect is decomposed into primitive
rank-one pieces (by conformal coordinates from a Beltrami solve), each
piece is added by a corrugation step, and an adapted induction drives the
defect down along a parameter ladder while tracking the quantitative
estimates at every stage.
"""

from .grid import (
    CLAMPED,
    PERIODIC,
    GridChart,
    ImmersionField,
    MetricField,
    NormReport,
    ScalarField,
    ShortnessReport,
    check_short,
    holder_seminorm,
    mollify,
    norm_report,
    pullback_metric,
)

__version__ = "0.1.0"
