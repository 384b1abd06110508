import itertools

import pytest

from squareful import streams
from squareful.omega import D_LOOKAHEAD, PLAIN, SWAPPED, TYPE_B, TYPE_D, OmegaParams, OmegaSystem


def _builds(params):
    try:
        OmegaSystem(params)
    except ValueError:  # |S| <= |S6|
        return False
    return True


# The one parameter grid of the suite: the 108 systems with a <= 3, b <= 2,
# c <= 2, 3 <= k <= 6 and either seed that build.  A test imports it with
# ``from conftest import GRID, grid_systems``, as ``parametrize`` cannot
# take a fixture.
GRID = [params for params in itertools.starmap(OmegaParams, itertools.product(
    range(1, 4), range(3), (1, 2), range(3, 7), (PLAIN, SWAPPED))) if _builds(params)]


def grid_systems():
    """A fresh system for each parameter choice of :data:`GRID`, so that no
    memo is shared between tests."""
    return (OmegaSystem(params) for params in GRID)


def indexed_word(f, descriptor):
    """The word ``f(0) f(1) f(2) ...``, a source over the chunks ``f(i)``,
    which calls ``f`` once per index up to the furthest letter read."""
    return streams.InfiniteWord(map(f, itertools.count()), descriptor)


def tokenizer_rotation_walk(sys):
    """Successor and phase of every rotation ``T^j(S^omega)`` by the
    tokenizer, the oracle for :attr:`squareful.omega.OmegaSystem.rotations`.

    For ``j >= 1`` the rotation is the remainder ``("S", j)`` over S blocks,
    so its square root is one :meth:`OmegaSystem.sqrt_step`: the rotation of
    a type D image, or the shift of a type B or C root, which must be a
    suffix of S.  ``S^omega`` is type A and fixed.  The phase follows the
    successors to ``S^omega`` or ``L^omega``."""
    n = sys.block_len
    successors = [0]
    for j in range(1, n):
        kind, out = sys.sqrt_step("S", j, "SSSS")
        if kind != TYPE_D and out[0] != "S":
            raise AssertionError(f"the square root of T^{j}(S^w) is not a rotation of S^w")
        successors.append(out if kind == TYPE_D else out[1])
    fixed, phases = {0, sys.conjugate_index(sys.l_word)}, []
    for j in range(n):
        steps = 0
        while j not in fixed:
            assert steps < n, "the rotations cycle without reaching S^w or L^w"
            j, steps = successors[j], steps + 1
        phases.append(steps)
    return tuple(successors), tuple(phases)


FORWARD_CAP = 40


def forward_count(sys, shift, first, fetch):
    """Square root steps from a shifted product to ``S^omega`` or
    ``L^omega`` by a forward walk over its block names, the oracle for
    :meth:`squareful.dynamics.OrbitEngine.steps_to_fixed`; None past
    :data:`FORWARD_CAP` steps.

    ``fetch(i)`` names the i-th block (i >= 1) of the unshifted product;
    ``first`` names block 0, of which the start word keeps the last ``|S| -
    shift`` letters.  Each step is one :meth:`OmegaSystem.sqrt_step` on the
    remainder and the next four names of the current word, whose block
    ``t`` is block ``t * stride + base`` of the start; a type D image ends
    the walk with its rotation's phase.  It sees periodicity only there, so
    when a type B or C image is already ``S^omega`` or ``L^omega`` (the tail
    is eventually constant) it counts one more."""
    stride, base = 1, 0
    for steps in range(1, FORWARD_CAP + 2):
        names = "".join(fetch(t * stride + base) for t in range(1, D_LOOKAHEAD + 1))
        kind, out = sys.sqrt_step(first, shift, names)
        if kind == TYPE_D:
            return steps + sys.rotations[1][out]
        first, shift = out
        if kind == TYPE_B:
            base -= stride
        stride *= 2
    return None


@pytest.fixture
def rotation_walk():
    return tokenizer_rotation_walk


@pytest.fixture
def forward():
    return forward_count
