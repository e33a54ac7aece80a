"""Lossless audio-to-image mapping via space-filling curves.

The package builds exact bijections between linear sample indices and
2^k x 2^k grids for eight curve families, encodes audio clips into
images along them, and ships the analysis tools used to verify their
structural properties: jump censuses, locality growth profiles, and
shift equivariance of strided convolution.
"""

from . import curves, equivariance, imaging, locality, signal
from .curves import *
from .equivariance import *
from .imaging import *
from .locality import *
from .signal import *

__version__ = "0.1.0"

__all__ = [*curves.__all__, *locality.__all__, *signal.__all__, *imaging.__all__,
           *equivariance.__all__, "__version__"]
