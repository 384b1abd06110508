import pytest

from squareful.omega import TYPE_D


def tokenizer_rotation_walk(sys):
    """Successor and phase of every rotation ``T^j(S^omega)`` by the
    tokenizer, the oracle for :func:`squareful.dynamics.intercept_phases`.

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
    return successors, phases


@pytest.fixture
def rotation_walk():
    return tokenizer_rotation_walk
