"""Primitives for finite binary words.

Words are plain Python strings over a two-letter alphabet, either ``{'0','1'}``
or ``{'S','L'}`` (block-level words).  Indexing is 0-based throughout and every
operation returns a fresh string.
"""

from __future__ import annotations


def conjugates(w: str) -> list[str]:
    """All rotations of ``w`` in order, starting with ``w`` itself.

    The list has exactly ``len(w)`` entries and contains repeats when ``w``
    is a proper power.
    """
    if not w:
        raise ValueError("the empty word has no conjugates")
    return [w[i:] + w[:i] for i in range(len(w))]


def is_primitive(w: str) -> bool:
    """True iff ``w`` is not a proper integer power of a shorter word.

    Uses the classic criterion: a primitive word occurs in its square only at
    the two trivial positions.
    """
    if not w:
        raise ValueError("primitivity of the empty word is undefined")
    return (w + w).find(w, 1) == len(w)


def swap_first_two(w: str) -> str:
    """Exchange the first two letters of ``w`` (requires ``len(w) >= 2``)."""
    if len(w) < 2:
        raise ValueError("cannot swap the first two letters of a word shorter than 2")
    return w[1] + w[0] + w[2:]
