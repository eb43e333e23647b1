"""Numerical certification of the nearly Kahler structure on the complex
flag six-manifold (compact and split-signature forms), the classification
of its totally geodesic almost complex surfaces, and the six explicit
example immersions."""

import os

# nkflag's products are too small to gain from a second OpenBLAS thread, which only
# busy-waits and adds CPU time.  Set before numpy loads; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"

from .lie_structure import PSEUDO, RIEMANNIAN, SIGNATURES
from .report import CheckReport

__all__ = ["RIEMANNIAN", "PSEUDO", "SIGNATURES", "CheckReport", "__version__"]
