"""Standard words and rational rotation codings.

A :class:`RotationSystem` is exact: its slope and intercepts are
:class:`fractions.Fraction` values supplied by the caller, and circle points
live in ``[0, 1)``.  The module itself imports no ``fractions``; the
subshift's own intercept arithmetic runs on integer cells (see
:attr:`squareful.omega.OmegaSystem.rotations`).  Irrational-slope words are
never produced by rotation; they come combinatorially from the standard word
recurrence or from substitutions (see :mod:`squareful.omega`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


def standard_word(d: tuple[int, ...] | list[int], k: int) -> str:
    """Standard word ``s_k`` from ``s_k = s_{k-1}^{d_k} s_{k-2}``, ``s_-1 = 1``, ``s_0 = 0``.

    ``d`` is the directive sequence ``(d_1, d_2, ...)``; the associated slope is
    ``[0; d_1 + 1, d_2, d_3, ...]``.
    """
    if k < -1:
        raise ValueError("standard words are defined for k >= -1")
    if k >= 0 and len(d) < k:
        raise ValueError(f"need {k} directive entries, got {len(d)}")
    prev, cur = "1", "0"
    for i in range(1, k + 1):
        prev, cur = cur, cur * d[i - 1] + prev
    return cur if k >= 0 else prev


def reversed_standard_word(d: tuple[int, ...] | list[int], k: int) -> str:
    return standard_word(d, k)[::-1]


class RotationSystem:
    """Rational circle rotation with the two-interval coding
    ``I0 = [0, 1 - slope)``, ``I1 = [1 - slope, 1)``.

    The slope must have at least three partial quotients; with fewer the
    codings do not contain the six minimal squares and the square root map
    theorem does not apply.
    """

    __slots__ = ("slope", "_quotients")

    def __init__(self, slope: Fraction):
        if not 0 < slope < 1:
            raise ValueError("slope must lie in (0, 1)")
        quotients, num, den = [], slope.numerator, slope.denominator
        while den:  # Euclid: the last quotient of a slope in (0, 1) is >= 2
            quotients.append(num // den)
            num, den = den, num % den
        if len(quotients) < 4:  # [0; a1, a2, a3] has 4 entries
            raise ValueError(
                f"slope {slope} has continued fraction {quotients}; "
                "need at least three partial quotients past a0"
            )
        self.slope, self._quotients = slope, quotients

    @property
    def q(self) -> int:
        return self.slope.denominator

    def params(self) -> tuple[int, int]:
        """The square-alphabet parameters carried by this slope."""
        a1, a2 = self._quotients[1], self._quotients[2]
        return a1 - 1, a2 - 1

    def letter(self, rho: Fraction) -> str:
        return "0" if rho % 1 < 1 - self.slope else "1"

    def coding(self, rho: Fraction, n: int) -> str:
        """First ``n`` letters of the rotation word of intercept ``rho``."""
        rho = rho % 1
        out = []
        for _ in range(n):
            out.append(self.letter(rho))
            rho = (rho + self.slope) % 1
        return "".join(out)

    def sqrt_intercept(self, rho: Fraction) -> Fraction:
        """Intercept of the square root of the rotation word of intercept ``rho``.

        Maps ``rho`` halfway toward the point ``1 - slope`` within its coding
        interval.
        """
        return (rho % 1 + 1 - self.slope) / 2
