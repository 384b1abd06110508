"""Exact continued fractions, standard words and rational rotation codings.

Everything here is exact: slopes and intercepts are :class:`fractions.Fraction`
values and circle points live in ``[0, 1)``.  Irrational-slope words are never
produced by rotation; they come combinatorially from the standard word
recurrence or from substitutions (see :mod:`squareful.omega`).
"""

from __future__ import annotations

from fractions import Fraction


class ContinuedFraction:
    """A finite continued fraction ``[a0; a1, a2, ...]``.

    Canonical form: the last quotient of a finite expansion is at least 2
    (an input ending in 1 is folded into the previous quotient), so every
    rational has a unique representation.
    """

    __slots__ = ("quotients",)

    def __init__(self, quotients: tuple[int, ...]):
        q = quotients
        if len(q) == 0:
            raise ValueError("need at least one partial quotient")
        if any(a < 1 for a in q[1:]):
            raise ValueError("partial quotients a_k must be >= 1 for k >= 1")
        if len(q) > 1 and q[-1] == 1:
            q = q[:-2] + (q[-2] + 1,)
        self.quotients = q

    @classmethod
    def of_fraction(cls, x: Fraction) -> "ContinuedFraction":
        quots = []
        num, den = x.numerator, x.denominator
        while den:
            a, r = divmod(num, den)
            quots.append(a)
            num, den = den, r
        return cls(tuple(quots))

    def value(self) -> Fraction:
        val = Fraction(self.quotients[-1])
        for a in reversed(self.quotients[:-1]):
            val = a + 1 / val
        return val


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


class Arc:
    """A half-open circle arc ``[lo, hi)``, possibly wrapping through 0.

    A wrapped arc is reported in two pieces.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo, self.hi = lo, hi

    @property
    def wraps(self) -> bool:
        return self.hi < self.lo or (self.hi == self.lo)

    @property
    def length(self) -> Fraction:
        return (self.hi - self.lo) % 1

    def pieces(self) -> list[tuple[Fraction, Fraction]]:
        if not self.wraps:
            return [(self.lo, self.hi)]
        return [(self.lo, Fraction(1)), (Fraction(0), self.hi)]

    def contains(self, rho: Fraction) -> bool:
        rho = rho % 1
        if not self.wraps:
            return self.lo <= rho < self.hi
        return rho >= self.lo or rho < self.hi


class RotationSystem:
    """Rational circle rotation with the two-interval coding
    ``I0 = [0, 1 - slope)``, ``I1 = [1 - slope, 1)``.

    The slope must have at least three partial quotients; with fewer the
    codings do not contain the six minimal squares and the square root map
    theorem does not apply.
    """

    __slots__ = ("slope", "_cf")

    def __init__(self, slope: Fraction):
        if not 0 < slope < 1:
            raise ValueError("slope must lie in (0, 1)")
        cf = ContinuedFraction.of_fraction(slope)
        if len(cf.quotients) < 4:  # [0; a1, a2, a3] has 4 entries
            raise ValueError(
                f"slope {slope} has continued fraction {list(cf.quotients)}; "
                "need at least three partial quotients past a0"
            )
        self.slope, self._cf = slope, cf

    @property
    def q(self) -> int:
        return self.slope.denominator

    def params(self) -> tuple[int, int]:
        """The square-alphabet parameters carried by this slope."""
        a1, a2 = self._cf.quotients[1], self._cf.quotients[2]
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

    def level_arcs(self, n: int) -> list[Arc]:
        """The arcs cut by the points ``{-j*slope}`` for ``0 <= j <= n``, in circle order."""
        pts = sorted({(-j * self.slope) % 1 for j in range(n + 1)})
        return [Arc(lo, pts[(i + 1) % len(pts)]) for i, lo in enumerate(pts)]

    def factor_interval(self, w: str) -> Arc | None:
        """The arc of intercepts whose coding begins with ``w``, or None.

        Requires ``len(w) <= q`` so that the arc is a genuine subinterval.
        """
        if not 0 < len(w) <= self.q:
            raise ValueError(f"factor length must be in 1..{self.q}")
        for arc in self.level_arcs(len(w)):
            rho = arc.lo
            for letter in w:  # most arcs are refused after a few letters
                if self.letter(rho) != letter:
                    break
                rho += self.slope
            else:
                return arc
        return None

    def sqrt_intercept(self, rho: Fraction) -> Fraction:
        """Intercept of the square root of the rotation word of intercept ``rho``.

        Maps ``rho`` halfway toward the point ``1 - slope`` within its coding
        interval.
        """
        return (rho % 1 + 1 - self.slope) / 2
