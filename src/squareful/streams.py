"""Lazy infinite words read through windows.

An :class:`InfiniteWord` answers ``window(start, stop)``, the letters
``[start:stop]``; ``prefix`` and ``letter`` are windows.  Most words are
views, pure functions of their source's windows that keep no letters:
``periodic_word`` slices its period, ``shift`` and ``decimate`` are one
strided view (a shift has stride 1 and no head) and read one window of
their source per request, as ``expand`` does, and the tau^2 fixed points of
:mod:`squareful.omega` write a window by m-adic valuation.  Two sources
memoize, as one string grown per request: a word over a chunk iterable,
whose chunks can be pulled only once, and ``sqrt_stream``, whose
tokenization must start at a square boundary.  A square root of a
non-squareful input raises :class:`SourcePoisonedError` at the failing input
offset, after the letters before it, so orbit code can report the offending
position cleanly.

Every view names itself in its ``descriptor`` from its source and its
kind: ``T^j(src)`` for a shift, ``T^j[blocks]`` for an expanded product,
``sqrt-blocks[src]`` for a decimation and ``sqrt(src)`` for a square root.
A decimation of a decimation and a root of a root are named by their depth
over the first source that is not one, as ``sqrt-blocks^k[src]`` and
``sqrt^k(src)``, so an orbit of ``N`` steps formats ``O(N)`` letters of
names, not ``O(N^2)``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator

from .squares import SquareAlphabet, factor_minimal_squares, square_matcher


class SourcePoisonedError(RuntimeError):
    """The underlying stream failed; the source serves no letters past the failure."""

    def __init__(self, descriptor: str, position: int):
        self.descriptor = descriptor
        self.position = position
        super().__init__(f"source {descriptor!r} poisoned at letter {position}")


class InfiniteWord:
    """Deterministic window oracle ``(start, stop) -> w[start:stop]``.

    ``window`` is the one read path: it checks the bounds, records the
    furthest offset asked for in ``max_queried`` and returns
    ``_window(start, stop)``.  A view overrides ``_window``, and ``period``
    when it knows one.  The base ``_window`` serves a memo that is one
    string: a request past its end takes the missing parts from the
    ``_fill(n)`` hook, which yields them until they reach offset ``n``, and
    joins them into the memo once, keeping those made before a failure.
    The base hook pulls the chunks.

    A memoizing source is single-consumer: a single instance must not be
    queried from several threads at once.  Distinct sources are independent.
    """

    product: SLProduct | None = None  # the shifted product ``expand`` spells

    def __init__(self, chunks: Iterable[str], descriptor: str = ""):
        self._chunks: Iterator[str] = iter(chunks)
        self._memo = ""
        self.descriptor = descriptor
        self.max_queried = 0

    def window(self, start: int, stop: int) -> str:
        """The letters ``[start:stop]``."""
        if start < 0 or stop < start:
            raise ValueError("bad window bounds")
        if stop > self.max_queried:
            self.max_queried = stop
        return self._window(start, stop)

    def prefix(self, n: int) -> str:
        return self.window(0, n)

    def letter(self, i: int) -> str:
        return self.window(i, i + 1)

    def period(self) -> tuple[int, int] | None:
        """``(start, p)`` if the letters from ``start`` on are known to repeat
        with period ``p``; None if no period is known (no guess is made)."""
        return None

    def _window(self, start: int, stop: int) -> str:
        if stop > len(self._memo):
            parts = [self._memo]
            try:
                for part in self._fill(stop):
                    parts.append(part)
            finally:
                self._memo = "".join(parts)
        return self._memo[start:stop]

    def _fill(self, n: int) -> Iterator[str]:
        """The parts that follow the memo, until they reach offset ``n``."""
        have = len(self._memo)
        for part in self._chunks:
            yield part
            have += len(part)
            if have >= n:
                return
        raise SourcePoisonedError(self.descriptor, have)


def _cycle(period: str, start: int, stop: int) -> str:
    """The letters ``[start:stop]`` of ``period^omega``."""
    skip, n = start % len(period), stop - start
    return (period * -(-(skip + n) // len(period)))[skip : skip + n]


class _PeriodicWord(InfiniteWord):
    def __init__(self, period: str, descriptor: str):
        super().__init__((), descriptor)
        self._period = period

    def _window(self, start: int, stop: int) -> str:
        return _cycle(self._period, start, stop)

    def period(self) -> tuple[int, int]:
        return 0, len(self._period)


def periodic_word(period: str, descriptor: str | None = None) -> InfiniteWord:
    """The purely periodic word ``period^omega``, with period ``(0, |period|)``."""
    if not period:
        raise ValueError("period must be nonempty")
    return _PeriodicWord(period, descriptor or f"({period})^w")


def _depth_name(view: InfiniteWord, src: InfiniteWord, template: str) -> str:
    """The name of ``view``, built from ``src``: ``template`` filled with
    ``^k``, its depth ``k`` over the first source that is not a view of its
    kind (left out at ``k = 1``), and that source's name, which it keeps in
    ``view.depth`` and ``view.base``.  So a name does not grow with ``k``."""
    view.depth, view.base = (src.depth + 1, src.base) if type(src) is type(view) and src.depth else (1, src.descriptor)
    return template.format(f"^{view.depth}" if view.depth > 1 else "", view.base)


class _StridedWord(InfiniteWord):
    """``head`` then ``src[offset], src[offset + stride], ...``, one strided window per request.

    Asked of ``src`` as a shift (stride 1, no head), it is named ``T^j(src)``.
    Asked as a decimation (stride 2), it is named ``sqrt-blocks[src]``, or
    ``sqrt-blocks^k[word]`` if ``src`` is a decimation ``k - 1`` deep of
    ``word``; a decimation of a strided view reads that view's source."""

    depth = 0  # the decimations composed; a shift composes none

    def __init__(self, src: InfiniteWord, offset: int, stride: int, head: str):
        name = _depth_name(self, src, "sqrt-blocks{}[{}]") if stride > 1 else f"T^{offset}({src.descriptor})"
        super().__init__((), name)
        if stride > 1 and isinstance(src, _StridedWord):  # one view of the inner view's source
            src, offset, stride, head = src.decimated(offset, head)
        known = stride > 1 and src.period()  # a shift reads nothing when built
        if known and offset >= known[0]:  # read a periodic source modulo its period
            offset, stride = known[0] + (offset - known[0]) % known[1], stride % known[1] or known[1]
        self._src, self._offset, self._stride, self._head = src, offset, stride, head

    def _window(self, start: int, stop: int) -> str:
        lo, hi, step = max(0, start - len(self._head)), stop - len(self._head), self._stride
        if hi <= lo and (self._head or step > 1):  # a shift forwards an empty read to its source
            return self._head[start:stop]
        tail = self._src.window(self._offset + step * lo, self._offset + step * (hi - 1) + 1)[::step]
        return self._head[start:stop] + tail

    def period(self) -> tuple[int, int] | None:
        known = self._src.period()
        return known and (len(self._head) + max(0, -(-(known[0] - self._offset) // self._stride)),
                          known[1] // math.gcd(known[1], self._stride))

    def decimated(self, offset: int, head: str) -> tuple[InfiniteWord, int, int, str]:
        """The source, offset, stride and head of :func:`decimate` of this view, as a view of its source."""
        rel = offset - len(self._head)
        return (self._src, self._offset + self._stride * (rel if rel >= 0 else rel % 2), 2 * self._stride,
                head + self._head[offset::2])


def shift(src: InfiniteWord, j: int) -> InfiniteWord:
    """The shifted word ``T^j(src)``, so named: the view :func:`decimate`
    builds, with stride 1 and no head, so its period is that formula's at
    ``d = 1``: period ``p`` from ``start`` gives ``p`` from ``max(0, start -
    j)``.  Building it reads nothing of ``src``, not even its period."""
    if j < 0:
        raise ValueError("shift must be >= 0")
    return _StridedWord(src, j, 1, "") if j else src


def decimate(src: InfiniteWord, offset: int, head: str) -> InfiniteWord:
    """The word ``head`` followed by every other letter of ``src`` from
    ``offset`` on.  A request reads the span it covers with one ``window``.

    A decimation of a shift or of a decimation is one view of the first
    source, so a view reached by any number of square root steps is one
    level deep: its stride doubles, the letters it takes from the inner head
    join its head (at most two names on the orbit route, whose heads are one
    name), and its offset moves to the inner source letter that comes next.
    The view is named ``sqrt-blocks[src]``, as it holds the block names of a
    square root of a product (:meth:`~squareful.omega.OmegaSystem.sqrt_of_product`),
    and a decimation of that is ``sqrt-blocks^2[src]``, and so on: the name
    is built from the first source and the depth, so it does not grow with
    the orbit.
    Period ``p`` from ``start`` gives ``p / gcd(p, stride)`` from ``|head| +
    max(0, ceil((start - offset) / stride))``.  Such a source is read
    modulo its period: once ``offset >= start``, the view keeps
    ``start + (offset - start) mod p`` and ``stride mod p`` (``p`` if ``p``
    divides it), which take the same letters, so a request spans at most
    ``p`` source letters per letter it returns however often the stride
    has doubled."""
    return _StridedWord(src, offset, 2, head)


SQRT_PIECE = 1 << 14  # input letters tokenized per piece of a square root


class _SqrtWord(InfiniteWord):
    """The square root of ``src``, tokenized a piece at a time."""

    def __init__(self, alph: SquareAlphabet, src: InfiniteWord):
        super().__init__((), _depth_name(self, src, "sqrt{}({})"))
        self._alph, self._src = alph, src

    def _window(self, start: int, stop: int) -> str:
        try:  # walk only if the request reads that much input; a failed walk leaves it to the pieces
            known = self._src.period()
            s, p = self._walk if known and 2 * stop >= sum(known) else (stop, 0)
        except SourcePoisonedError:
            s, p = stop, 0
        if stop <= s + p:
            return super()._window(start, stop)
        body = super()._window(s, s + p)  # the root repeats it past s + p
        return self._memo[start:s] + _cycle(body, max(start, s) - s, stop - s)

    def _fill(self, n: int) -> Iterator[str]:
        # the input consumed so far is twice the output, and every square
        # still needed starts at or before 2(n - 1), so it lies in the window
        have = len(self._memo)
        while have < n:
            pos = 2 * have
            stop = min(pos + SQRT_PIECE, 2 * (n - 1) + self._alph.max_square_len)
            roots, _ = factor_minimal_squares(self._alph, self._src.window(pos, stop))
            if not roots:
                raise SourcePoisonedError(self.descriptor, pos)
            # a failure later in the piece is met at the start of the next one
            part = "".join(roots)
            have += len(part)
            yield part

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
    :func:`~squareful.squares.factor_minimal_squares`, ``SQRT_PIECE`` input
    letters at a time, and joins the roots into the memo once; the
    unfinished square at a piece's end starts the next piece.  A
    tokenization failure (the caller handed a non-squareful source) raises
    at the offending input offset, after the letters before it, and again
    on every later request that reaches it.

    If ``src`` has period ``p`` from ``start``, the factorization past
    ``start`` depends on positions mod ``p`` only: ``period()`` walks it to
    a position met before mod ``p`` (at most ``p`` squares past ``start``),
    reading ``start + p`` letters, and the root repeats from there, with
    period ``p'`` from ``start'``.  So a request past ``start' + p'`` that
    would read ``start + p`` input letters anyway runs the walk, fills the
    memo to ``start' + p'`` only and serves the rest from that period, so
    each root of an orbit reads a bounded prefix of the root below it, not
    twice its own output.  A walk that fails leaves the request to the
    pieces, which serve the letters before the failure.

    The root is named ``sqrt(src)``, and a root of a root ``k`` deep over a
    source that is no root ``sqrt^k(src)``, so its name does not grow with
    the depth of an orbit.
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


class BlockWord:
    """The product of the last ``size <= 2 * block_len`` names of the block
    squared, the block being the first ``block_len`` names of ``source``, as
    a view of that window: ``len`` counts its letters without reading a
    name, ``names`` reads its names and ``str`` spells them."""

    __slots__ = ("source", "block_len", "size", "s_word", "l_word")

    def __init__(self, source: InfiniteWord, block_len: int, size: int, s_word: str, l_word: str):
        self.source, self.block_len, self.size, self.s_word, self.l_word = source, block_len, size, s_word, l_word

    def names(self, step: int = 1) -> str:
        """Every ``step``-th name from name 0, one or two strided windows of ``source``."""
        n, cut = self.block_len, self.block_len - self.size
        head = self.source.window(cut % n, n)[::step]
        return head if cut >= 0 else head + self.source.prefix(n)[cut % step :: step]

    def __len__(self) -> int:
        return self.size * len(self.s_word)

    def __str__(self) -> str:
        return self.names().translate({ord("S"): self.s_word, ord("L"): self.l_word})


class _ExpandedWord(InfiniteWord):
    """The letters of ``prod``, one block-name window per request."""

    def __init__(self, prod: SLProduct):
        super().__init__((), f"T^{prod.shift}[{prod.blocks.descriptor}]")
        self.product = prod
        self._table = {ord("S"): prod.s_word, ord("L"): prod.l_word}

    def _window(self, start: int, stop: int) -> str:
        if not stop:  # an empty prefix reads no block names, even at a shift
            return ""
        prod, size = self.product, len(self.product.s_word)
        a = start + prod.shift
        names = prod.blocks.window(a // size, -(-(stop + prod.shift) // size))
        return names.translate(self._table)[a % size : a % size + stop - start]

    def period(self) -> tuple[int, int] | None:
        known, size = self.product.blocks.period(), len(self.product.s_word)
        return known and (max(0, known[0] * size - self.product.shift), known[1] * size)


def expand(prod: SLProduct) -> InfiniteWord:
    """Letter-level oracle of the shifted product.

    A request reads the block names that cover it with one ``window`` and
    spells them with one ``str.translate``, and keeps no letters.  The
    names are ``S``/``L`` by construction (:func:`sl_cycle` checks a
    pattern it is handed).  Names with period ``p`` from ``start`` give
    letters with period ``p |S|`` from ``max(0, start |S| - shift)``.
    """
    return _ExpandedWord(prod)


def sl_cycle(pattern: str, s_word: str, l_word: str, shift_letters: int = 0) -> SLProduct:
    """Product whose block names repeat ``pattern`` cyclically."""
    if not pattern or set(pattern) - {"S", "L"}:
        raise ValueError(f"block names must be a nonempty word over S and L, not {pattern!r}")
    return SLProduct(periodic_word(pattern), shift_letters, s_word, l_word)

