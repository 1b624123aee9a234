"""Exact orbit counting, dynamical zeta series, and boundary scans for the
circle-doubling map and its 3-adic isometric extension."""

__version__ = "0.1.0"

from . import arith, asymptotics, counting, series, zeta
from .arith import *
from .asymptotics import *
from .counting import *
from .series import *
from .zeta import *

__all__ = ["__version__", *arith.__all__, *asymptotics.__all__, *counting.__all__,
           *series.__all__, *zeta.__all__]
