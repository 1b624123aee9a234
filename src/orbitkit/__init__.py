"""Exact orbit counting, dynamical zeta series, and boundary scans for the
circle-doubling map and its 3-adic isometric extension."""

__version__ = "0.1.0"

from .arith import Dyadic, ExactnessError, divisors, mobius, ord_p, padic_abs
from .asymptotics import (
    MertenPoint,
    RatioPoint,
    delta_gap,
    merten_series,
    ratio_series,
)
from .counting import (
    CIRCLE_DOUBLING,
    THREE_ADIC_EXTENSION,
    MapSpec,
    OrbitTable,
    build_table,
    custom_orbits,
    fix_count,
    fix_terms,
    iterate,
    iterate_square_identity,
    orbit_count_iterate,
    padic_factor,
)
from .series import log_one_minus
from .zeta import (
    BoundaryPoint,
    ScanRow,
    modulus_product,
    orbit_product_series,
    radial_scan,
    series_modulus,
    xi1_closed_form,
    xi1_direct,
    xi_from_closed_parts,
    xi_series,
    zeta_series,
)

__all__ = [
    "__version__",
    "Dyadic",
    "ExactnessError",
    "divisors",
    "mobius",
    "ord_p",
    "padic_abs",
    "MapSpec",
    "OrbitTable",
    "CIRCLE_DOUBLING",
    "THREE_ADIC_EXTENSION",
    "build_table",
    "custom_orbits",
    "fix_count",
    "fix_terms",
    "iterate",
    "iterate_square_identity",
    "orbit_count_iterate",
    "padic_factor",
    "RatioPoint",
    "MertenPoint",
    "ratio_series",
    "delta_gap",
    "merten_series",
    "log_one_minus",
    "BoundaryPoint",
    "ScanRow",
    "modulus_product",
    "orbit_product_series",
    "radial_scan",
    "series_modulus",
    "xi_series",
    "xi1_closed_form",
    "xi1_direct",
    "xi_from_closed_parts",
    "zeta_series",
]
