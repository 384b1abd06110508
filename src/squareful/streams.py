"""Lazy infinite words as memoized prefix oracles.

An :class:`InfiniteWord` wraps a generator of string chunks.  Queries are
monotone and memoized, so repeated ``prefix(n)`` calls agree and never redo
work.  The square root, the block expansion and the decimation are
demand-driven: they fill each request in one piece (the root in pieces of
``SQRT_PIECE`` input letters), so their memo holds a few long parts rather
than one part per square or per block.  A view keeps no memo: ``shift``
reads its source's, and the tau^2 fixed points of :mod:`squareful.omega`
are read off the tau tower.  Failures inside lazy evaluation (a
square tokenizer hitting a non-squareful stream) poison the source instead
of escaping mid-iteration; orbit code can then report the offending
position cleanly.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Callable, Iterable, Iterator

from .squares import SquareAlphabet, TokenizationError, factor_minimal_squares, square_matcher


class SourcePoisonedError(RuntimeError):
    """The underlying stream failed; the source serves no letters past the failure."""

    def __init__(self, descriptor: str, position: int):
        self.descriptor = descriptor
        self.position = position
        super().__init__(f"source {descriptor!r} poisoned at letter {position}")


class InfiniteWord:
    """Deterministic prefix oracle ``n -> first n letters``.

    A source is single-consumer: memoization mutates internal state, so a
    single instance must not be queried from several threads at once.
    Distinct sources are independent.

    The memo is a list of parts, the chunks pulled so far, with the
    cumulative end offset of each.  ``window`` serves short slices from the
    parts it overlaps without materializing the whole prefix, which keeps
    streaming consumers (the square root tokenizer) linear.  ``prefix`` needs
    one string: it joins the parts once and keeps the joined text as the
    single first part, so the memo never holds two copies of a letter.

    ``ensure`` alone keeps the memo, ``max_queried`` and the poison.  It
    pulls parts through ``_fill(n)``, which is told the requested length
    and returns the next part; the base hook takes the next chunk, and a
    derived stream overrides it to produce the whole request at once.
    """

    def __init__(self, chunks: Iterable[str], descriptor: str = "", product=None):
        self._chunks: Iterator[str] = iter(chunks)
        self._parts: list[str] = []
        self._ends: list[int] = []  # cumulative end offsets of the parts
        self._have = 0
        self.descriptor = descriptor
        self.product = product  # SLProduct provenance when known
        self.poison: TokenizationError | None = None
        self.max_queried = 0

    def ensure(self, n: int) -> None:
        if n < 0:
            raise ValueError("length must be >= 0")
        if n > self.max_queried:
            self.max_queried = n
        if self.poison is not None and n > self._have:
            raise SourcePoisonedError(self.descriptor, self.poison.position)
        while self._have < n:
            try:
                part = self._fill(n)
            except StopIteration:
                raise SourcePoisonedError(self.descriptor, self._have) from None
            except TokenizationError as err:
                self.poison = err
                raise SourcePoisonedError(self.descriptor, err.position) from err
            if part:
                self._parts.append(part)
                self._have += len(part)
                self._ends.append(self._have)

    def _fill(self, n: int) -> str:
        """The next part of the word, for a request of length ``n``."""
        return next(self._chunks)

    def prefix(self, n: int) -> str:
        self.ensure(n)
        if n == 0:
            return ""
        if self._ends[0] < n:
            self._parts = ["".join(self._parts)]
            self._ends = [self._have]
        return self._parts[0][:n]

    def window(self, start: int, stop: int) -> str:
        """The slice ``[start:stop]``, touching only the parts it overlaps."""
        if start < 0 or stop < start:
            raise ValueError("bad window bounds")
        self.ensure(stop)
        if stop == start:
            return ""
        if stop <= self._ends[0]:
            return self._parts[0][start:stop]
        lo = bisect.bisect_right(self._ends, start)
        out = []
        pos = self._ends[lo - 1] if lo else 0
        for part in self._parts[lo:]:
            if pos >= stop:
                break
            out.append(part[max(0, start - pos) : stop - pos])
            pos += len(part)
        return "".join(out)

    def letter(self, i: int) -> str:
        return self.window(i, i + 1)

    def period(self) -> tuple[int, int] | None:
        """``(start, p)`` if the letters from ``start`` on are known to repeat
        with period ``p``; None if no period is known (no guess is made)."""
        return None


class _PeriodicWord(InfiniteWord):
    def __init__(self, period: str, descriptor: str):
        super().__init__(itertools.repeat(period), descriptor)
        self._p = len(period)

    def period(self) -> tuple[int, int]:
        return 0, self._p


def periodic_word(period: str, descriptor: str | None = None) -> InfiniteWord:
    """The purely periodic word ``period^omega``, with period ``(0, |period|)``."""
    if not period:
        raise ValueError("period must be nonempty")
    return _PeriodicWord(period, descriptor or f"({period})^w")


def from_function(f: Callable[[int], str], descriptor: str, chunk: int = 256) -> InfiniteWord:
    """Oracle built from a letter function ``i -> w[i]``."""

    def gen():
        for start in itertools.count(0, chunk):
            yield "".join(f(i) for i in range(start, start + chunk))

    return InfiniteWord(gen(), descriptor)


class _ShiftedWord(InfiniteWord):
    """The view ``T^j(src)``: it serves every query from the memo of ``src``
    and keeps only its own ``max_queried``."""

    def __init__(self, src: InfiniteWord, j: int):
        super().__init__((), f"T^{j}({src.descriptor})")
        self._src, self._j = src, j

    def ensure(self, n: int) -> None:
        if n < 0:
            raise ValueError("length must be >= 0")
        self._src.ensure(self._j + n)
        self.max_queried = max(self.max_queried, n)

    def prefix(self, n: int) -> str:
        return self.window(0, n)

    def window(self, start: int, stop: int) -> str:
        if start < 0 or stop < start:
            raise ValueError("bad window bounds")
        self.ensure(stop)
        return self._src.window(self._j + start, self._j + stop)

    def period(self) -> tuple[int, int] | None:
        known = self._src.period()
        return known and (max(0, known[0] - self._j), known[1])


def shift(src: InfiniteWord, j: int) -> InfiniteWord:
    """The shifted word ``T^j(src)``, sharing the underlying memo; period
    ``p`` from ``start`` gives ``p`` from ``max(0, start - j)``."""
    if j < 0:
        raise ValueError("shift must be >= 0")
    return _ShiftedWord(src, j) if j else src


class _DecimatedWord(InfiniteWord):
    """``head`` then ``src[offset], src[offset + 2], ...``, one strided window per request."""

    def __init__(self, src: InfiniteWord, offset: int, head: str, descriptor: str):
        super().__init__((), descriptor)
        self._src, self._offset, self._head = src, offset, head

    def _fill(self, n: int) -> str:
        if self._have < len(self._head):  # only the first part
            return self._head
        lo, hi = self._have - len(self._head), n - len(self._head)
        return self._src.window(self._offset + 2 * lo, self._offset + 2 * hi - 1)[::2]

    def period(self) -> tuple[int, int] | None:
        known = self._src.period()
        return known and (len(self._head) + max(0, -(-(known[0] - self._offset) // 2)),
                          known[1] // math.gcd(known[1], 2))


def decimate(src: InfiniteWord, offset: int, head: str, descriptor: str) -> InfiniteWord:
    """The word ``head`` followed by every other letter of ``src`` from
    ``offset`` on.  A request reads the span it covers with one ``window``.
    Period ``p`` from ``start`` gives ``p / gcd(p, 2)`` from ``|head| +
    max(0, ceil((start - offset) / 2))``."""
    return _DecimatedWord(src, offset, head, descriptor)


SQRT_PIECE = 1 << 14  # input letters tokenized per memo part of a square root


class _SqrtWord(InfiniteWord):
    """The square root of ``src``, tokenized a piece at a time."""

    def __init__(self, alph: SquareAlphabet, src: InfiniteWord):
        super().__init__((), f"sqrt({src.descriptor})")
        self._alph, self._src = alph, src

    def _fill(self, n: int) -> str:
        # the input consumed so far is twice the output, and every square
        # still needed starts at or before 2(n - 1), so it lies in the window
        pos = 2 * self._have
        stop = min(pos + SQRT_PIECE, 2 * (n - 1) + self._alph.max_square_len)
        roots, _ = factor_minimal_squares(self._alph, self._src.window(pos, stop))
        if not roots:
            raise TokenizationError(f"sqrt of {self._src.descriptor!r}", pos)
        # a failure later in the piece is met at the start of the next one
        return "".join(roots)

    def period(self) -> tuple[int, int] | None:
        return self._walk

    @functools.cached_property
    def _walk(self) -> tuple[int, int] | None:
        known = self._src.period()
        if known is None:
            return None
        start, p = known
        text = self._src.prefix(start + p)
        text += text[start:] * -(-self._alph.max_square_len // p)  # src repeats text[start:]
        match, seen, pos, out = square_matcher(self._alph), {}, 0, 0
        while True:  # seen: position (mod p past start) -> root letters before it
            at = pos if pos < start else start + (pos - start) % p
            if at in seen:
                return seen[at], out - seen[at]
            seen[at] = out
            m = match(text, at)
            if m is None:
                raise SourcePoisonedError(self.descriptor, pos)
            pos, out = pos + m.end() - at, out + (m.end() - at) // 2


def sqrt_stream(alph: SquareAlphabet, src: InfiniteWord) -> InfiniteWord:
    """Lazy square root of a squareful stream.

    Producing ``m`` letters queries at most ``2*m + |S6^2|`` letters of the
    input.  A request tokenizes the whole missing input span with
    :func:`~squareful.squares.factor_minimal_squares`, one memo part per
    ``SQRT_PIECE`` input letters; the unfinished square at a piece's end
    starts the next piece.  A tokenization failure (the caller handed a
    non-squareful source) poisons the output at the offending input offset,
    after the letters before it.

    If ``src`` has period ``p`` from ``start``, the factorization past
    ``start`` depends on positions mod ``p`` only: ``period()`` walks it to
    a position met before mod ``p`` (at most ``p`` squares past ``start``),
    reading ``start + p`` letters, and the root repeats from there.
    """
    return _SqrtWord(alph, src)


class SLProduct:
    """A shifted infinite product of two concrete block words.

    ``blocks`` is an oracle over the letters ``S``/``L`` naming which block
    occupies each position; ``shift`` drops that many letters of the expanded
    product (``0 <= shift < len(s_word)``).
    """

    __slots__ = ("blocks", "shift", "s_word", "l_word")

    def __init__(self, blocks: InfiniteWord, shift: int, s_word: str, l_word: str):
        if not 0 <= shift < len(s_word):
            raise ValueError(f"shift must lie in [0, {len(s_word)})")
        if len(s_word) != len(l_word):
            raise ValueError("block words must have equal length")
        self.blocks, self.shift, self.s_word, self.l_word = blocks, shift, s_word, l_word

    def descriptor(self) -> str:
        return f"T^{self.shift}[{self.blocks.descriptor}]"


class BlockWord:
    """The product of the last ``size <= 2 * len(block)`` names of ``block``
    squared, as a view of ``block``: ``len`` counts its letters without
    building them; ``names`` and ``str`` build its names and letters.
    Equal by field."""

    __slots__ = ("block", "size", "s_word", "l_word")

    def __init__(self, block: str, size: int, s_word: str, l_word: str):
        self.block, self.size, self.s_word, self.l_word = block, size, s_word, l_word

    def _fields(self) -> tuple:
        return self.block, self.size, self.s_word, self.l_word

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    @property
    def names(self) -> str:
        cut = len(self.block) - self.size
        return self.block[cut:] if cut >= 0 else self.block[cut:] + self.block

    def __len__(self) -> int:
        return self.size * len(self.s_word)

    def __str__(self) -> str:
        return self.names.translate({ord("S"): self.s_word, ord("L"): self.l_word})


class _ExpandedWord(InfiniteWord):
    """The letters of ``prod``, one block-name window per request."""

    def __init__(self, prod: SLProduct):
        super().__init__((), prod.descriptor(), product=prod)
        self._table = {ord("S"): prod.s_word, ord("L"): prod.l_word}

    def _fill(self, n: int) -> str:
        prod, size = self.product, len(self.product.s_word)
        start = self._have + prod.shift
        names = prod.blocks.window(start // size, -(-(n + prod.shift) // size))
        return names.translate(self._table)[start % size :]

    def period(self) -> tuple[int, int] | None:
        known, size = self.product.blocks.period(), len(self.product.s_word)
        return known and (max(0, known[0] * size - self.product.shift), known[1] * size)


def expand(prod: SLProduct) -> InfiniteWord:
    """Letter-level oracle of the shifted product.

    A request reads the block names that cover it with one ``window`` and
    spells them with one ``str.translate``: one memo part per request.  The
    names are ``S``/``L`` by construction (:func:`sl_cycle` checks a
    pattern it is handed).  Names with period ``p`` from ``start`` give
    letters with period ``p |S|`` from ``max(0, start |S| - shift)``.
    """
    return _ExpandedWord(prod)


def sl_cycle(pattern: str, s_word: str, l_word: str, shift_letters: int = 0) -> SLProduct:
    """Product whose block names repeat ``pattern`` cyclically."""
    if set(pattern) - {"S", "L"}:
        raise ValueError("pattern must be over the letters S and L")
    return SLProduct(periodic_word(pattern), shift_letters, s_word, l_word)

