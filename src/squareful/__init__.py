"""Symbolic square root map on optimal squareful words.

The square root of a squareful word deletes half of each minimal square in
its unique factorization into minimal squares.  This package builds the
substitutive subshift of optimal squareful words on which that map acts,
iterates the map exactly, and reproduces the reference dynamics experiments
(steps-to-fixed tables, fixed points, preimage structure, periodic points,
word equation solutions).
"""

from .omega import OmegaParams, OmegaSystem, tau
from .squares import SquareAlphabet, build_alphabet, factor_minimal_squares, in_pi, sqrt_finite
from .streams import InfiniteWord, SLProduct, expand, shift, sqrt_stream
from .sturmian import RotationSystem, reversed_standard_word, standard_word

__all__ = [
    "InfiniteWord",
    "OmegaParams",
    "OmegaSystem",
    "RotationSystem",
    "SLProduct",
    "SquareAlphabet",
    "build_alphabet",
    "expand",
    "factor_minimal_squares",
    "in_pi",
    "reversed_standard_word",
    "shift",
    "sqrt_finite",
    "sqrt_stream",
    "standard_word",
    "tau",
]

__version__ = "0.1.0"
