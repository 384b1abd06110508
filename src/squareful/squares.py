"""The six minimal squares of optimal squareful words and the square tokenizer.

For parameters ``a >= 1`` and ``b >= 0`` the six minimal square roots are

    S1 = 0           S4 = 1 0^a
    S2 = 0 1 0^(a-1) S5 = 1 0^(a+1) (1 0^a)^b
    S3 = 0 1 0^a     S6 = 1 0^(a+1) (1 0^a)^(b+1)

Their squares are mutually prefix-free, which makes the left-to-right greedy
factorization of a word into minimal squares the unique one; that uniqueness
is what the square root map rests on.
"""

from __future__ import annotations

import re
from functools import lru_cache


class TokenizationError(ValueError):
    """A word has no minimal-square factorization; carries the failing offset."""

    def __init__(self, word_repr: str, position: int):
        self.position = position
        super().__init__(f"no minimal square at offset {position} of {word_repr}")


class SquareAlphabet:
    """The six minimal roots and their squares for parameters ``(a, b)``;
    built once per ``(a, b)`` by :func:`build_alphabet`."""

    __slots__ = ("a", "b", "roots", "squares")

    def __init__(self, a: int, b: int, roots: tuple[str, ...], squares: tuple[str, ...]):
        self.a, self.b, self.roots, self.squares = a, b, roots, squares

    @property
    def max_square_len(self) -> int:
        return len(self.squares[-1])

    def root_of(self, square: str) -> str:
        return square[: len(square) // 2]


@lru_cache(maxsize=None)
def build_alphabet(a: int, b: int) -> SquareAlphabet:
    """Construct the six roots for parameters ``(a, b)`` and sanity-check them."""
    if a < 1:
        raise ValueError(f"parameter a must be >= 1, got {a}")
    if b < 0:
        raise ValueError(f"parameter b must be >= 0, got {b}")
    roots = (
        "0",
        "01" + "0" * (a - 1),
        "01" + "0" * a,
        "1" + "0" * a,
        "1" + "0" * (a + 1) + ("1" + "0" * a) * b,
        "1" + "0" * (a + 1) + ("1" + "0" * a) * (b + 1),
    )
    squares = tuple(r + r for r in roots)
    # prefix-freeness of the squares gives the tokenizer its determinism
    for i, s in enumerate(squares):
        for j, t in enumerate(squares):
            if i != j and t.startswith(s):
                raise AssertionError(f"squares not prefix-free: {s} prefixes {t}")
    # minimality: no proper prefix of a square is itself a square
    for s in squares:
        for l in range(2, len(s), 2):
            if s[: l // 2] == s[l // 2 : l]:
                raise AssertionError(f"{s} has square prefix {s[:l]}, not minimal")
    return SquareAlphabet(a, b, roots, squares)


@lru_cache(maxsize=None)
def square_matcher(alph: SquareAlphabet):
    # alternation is unambiguous because the squares are prefix-free
    return re.compile("|".join(alph.squares)).match


def factor_minimal_squares(alph: SquareAlphabet, w: str) -> tuple[list[str], int | None]:
    """Greedy factorization of ``w`` into minimal squares.

    Returns ``(roots, failure)`` where ``failure`` is None when ``w`` was
    consumed exactly, and otherwise the first offset with no minimal-square
    prefix (possibly the start of a leftover tail).
    """
    match = square_matcher(alph)
    roots: list[str] = []
    pos = 0
    n = len(w)
    while pos < n:
        m = match(w, pos)
        if m is None:
            return roots, pos
        roots.append(alph.root_of(m.group()))
        pos = m.end()
    return roots, None


def in_pi(alph: SquareAlphabet, w: str) -> bool:
    """Membership in the language of products of the six minimal squares.

    Factor-hood in an optimal squareful word is guaranteed by the callers
    that generate ``w``; this checks factorizability only.
    """
    if not w:
        return False
    _, failure = factor_minimal_squares(alph, w)
    return failure is None


def sqrt_finite(alph: SquareAlphabet, w: str) -> str:
    """Square root of a finite product of minimal squares."""
    roots, failure = factor_minimal_squares(alph, w)
    if failure is not None:
        raise TokenizationError(_clip(w), failure)
    return "".join(roots)


def _clip(w: str, limit: int = 40) -> str:
    return repr(w if len(w) <= limit else w[:limit] + f"...[{len(w)} letters]")
