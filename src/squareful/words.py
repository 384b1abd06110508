"""Primitives for finite binary words.

Words are plain Python strings over a two-letter alphabet, either ``{'0','1'}``
or ``{'S','L'}`` (block-level words).  Indexing is 0-based throughout and every
word returned is a fresh string.
"""

from __future__ import annotations

from typing import Iterator


def conjugates(w: str) -> Iterator[str]:
    """All rotations of ``w`` in order, starting with ``w`` itself, built one
    at a time.

    There are exactly ``len(w)`` of them, with repeats when ``w`` is a
    proper power.  The empty word raises at the call.
    """
    if not w:
        raise ValueError("the empty word has no conjugates")
    return (w[i:] + w[:i] for i in range(len(w)))


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
