"""Orbit dynamics of the square root map: experiments and searches.

The workhorse is :class:`OrbitEngine`, which iterates the square root map on
shifted block products ``y . B1 B2 B3 ...`` exactly, in block coordinates:
the remainder ``y`` is ``(first, shift)``, the last ``|S| - shift`` letters
of block ``first``.  One application of the map,
:meth:`OmegaSystem.remainder_step` (the kernel's greedy walk under every
tail of block names, which keeps nothing), either

* consumes ``y`` alone (``y`` is a product of minimal squares), leaving the
  odd-indexed blocks,
* consumes ``y`` plus one block, leaving the even-indexed blocks, or
* certifies that the image is globally periodic with period a rotation of the
  block word, after which the orbit lives in the finite periodic part.

In the first two cases the root of ``y`` is again a remainder.  The periodic
part is integer arithmetic: by the intercept map of the Sturmian square root
(EJC 2017), :attr:`OmegaSystem.rotations` steps each rotation
``T^j(S^omega)`` to its successor on integer cells and counts its phase, the
steps to ``S^omega`` or ``L^omega``; it is the system's one table, which the
engine and :func:`iterate_sqrt` read.  Table 1 is a walk on the graph whose
nodes are the remainders: each has one successor, a remainder or a rotation,
because :meth:`OmegaSystem.remainder_step` proves that a remainder's step
does not depend on the names of the blocks after it.  A remainder's depth is
its step count to ``S^omega`` or ``L^omega``, ending in a rotation's phase;
the supremum is the largest depth of a start's remainder.  That graph, with
its depths, is the system's second table,
:attr:`OmegaSystem.remainder_graph`, laid out and filled in ``omega``: the
engine reads its depths and the preimage index (:class:`PreimageIndex`) its
steps, so a system's Table 1 row and its index share one set of walks.
"""

from __future__ import annotations

from typing import Callable, Iterable

from . import equation, squares, streams
from .omega import CONSUMED, FLIP, PERIODIC, TYPE_A, TYPE_D, OmegaParams, OmegaSystem, remainder_slot, slot_remainder
from .streams import BlockWord, InfiniteWord

# ---------------------------------------------------------------------------
# closed-form estimates and exact bounds


def fibonacci_numbers(s_len: int) -> list[int]:
    """``1, 1, 2, ...`` up to ``s_len``, which must be a Fibonacci number >= 2."""
    fibs = [1, 1]
    while fibs[-1] < s_len:
        fibs.append(fibs[-1] + fibs[-2])
    if fibs[-1] != s_len or s_len < 2:
        raise ValueError(f"{s_len} is not a Fibonacci number >= 2")
    return fibs


def fibonacci_estimate(s_len: int) -> str:
    """Closed-form estimate of the steps-to-fixed count for reversed Fibonacci
    block words, ``log2((phi - 1)(phi F_k + F_{k-1}))`` with ``F_k = s_len``,
    truncated to two decimals without a float: as ``(phi - 1) phi = 1``, the
    digits are the largest ``d`` with ``2^(d+100) <= A + B sqrt5 = (2F_k -
    F_{k-1} + F_{k-1} sqrt5)^100``, and ``A, B >= 0`` makes ``N <= A + B
    sqrt5`` iff ``N <= A`` or ``(N - A)^2 <= 5 B^2``.

    Truncation gives 13 of the 15 values of the reference Table 2; at
    ``|S|`` = 1597 and 4181 it gives one hundredth less (rounding matches
    only 9 rows), so the table's rule is not known."""
    *_, f_km1, f_k = fibonacci_numbers(s_len)
    p, q, a, b = 2 * f_k - f_km1, f_km1, 1, 0
    for _ in range(100):  # a + b sqrt5 times p + q sqrt5
        a, b = a * p + 5 * b * q, a * q + b * p
    e = (a + 2 * b).bit_length() - 1  # 2^e <= a + 2b < a + b sqrt5
    while (n := 2 ** (e + 1) - a) <= 0 or n * n <= 5 * b * b:
        e += 1
    return f"{(e - 100) // 100}.{(e - 100) % 100:02d}"


# ---------------------------------------------------------------------------
# the exact orbit engine


class OrbitEngine:
    """Exact steps-to-fixed counts on shifted products, read from the
    system's remainder graph (:attr:`OmegaSystem.remainder_graph`).

    A node of the graph is a remainder ``(first, shift)``, whose successor
    is its square root step, the same under every tail of names
    (:meth:`OmegaSystem.remainder_step`): another remainder after type B or
    C, and after type D the rotation ``T^j(S^omega)``, whose phase ends the
    depth.  The graph is the system's, built whole on its first read, so the
    engine keeps nothing: a lone :meth:`steps_to_fixed` on a fresh system
    builds every remainder's step, and a :class:`PreimageIndex` of the same
    system reads the same steps.
    """

    def __init__(self, sys: OmegaSystem):
        self.sys = sys
        self.n = sys.block_len

    # -- orbits of shifted products --------------------------------------------

    def steps_to_fixed(self, shift: int, first: str, fetch: Callable[[int], str]) -> int:
        """Least ``m`` with the m-th square root equal to ``S^omega`` or
        ``L^omega``: the depth of the start's remainder ``(first, shift)``,
        the last ``|S| - shift`` letters of block ``first``.

        ``fetch(i)`` names the i-th block (i >= 1) of the unshifted product,
        but no tail changes the count, so it is not read.  Proof: a forward
        walk reads the four names after each remainder, which are one of the
        16 tails that :meth:`OmegaSystem.remainder_step` checks, so it takes
        the graph's step at every remainder and ends at the same rotation;
        the count raises exactly where that check does.
        Periodicity is seen only in a type-D image, so when a type B or C
        image is already ``S^omega`` or ``L^omega`` (the tail is eventually
        constant) the count, like the forward walk, is one more.
        """
        if not 0 < shift < self.n:
            raise ValueError("start word must be a properly shifted product")
        return self.sys.remainder_graph[2][remainder_slot(first, shift)]

    def start(self) -> tuple[int, str]:
        """A properly shifted start ``(shift, first)`` attaining
        :meth:`steps_supremum` under every tail of names, exactly unless the
        tail is eventually constant (then it may count one more)."""
        starts = [(shift, first) for shift in range(1, self.n) for first in "SL"]
        return max(starts, key=lambda s: self.sys.remainder_graph[2][remainder_slot(s[1], s[0])])

    def steps_supremum(self) -> int:
        """Exact maximum of :meth:`steps_to_fixed` over every properly
        shifted product: the largest depth in the graph, as every remainder
        is a start's.

        Conjecture, checked on Table 1 and on a parameter grid but not
        proved: it equals ``s_word.count("0").bit_length()``."""
        return max(self.sys.remainder_graph[2])


# ---------------------------------------------------------------------------
# orbit records


class OrbitStep:
    __slots__ = ("fingerprint", "outcome", "versus_start")

    def __init__(self, fingerprint: str, outcome: str, versus_start: str):
        self.fingerprint = fingerprint
        self.outcome = outcome  # type A-D, "periodic", or "stream"
        self.versus_start = versus_start  # "less" / "equal" / "greater"


class OrbitRecord:
    __slots__ = ("start", "steps", "n_periodic", "n_fixed")

    def __init__(self, start: str):
        self.start = start
        self.steps: list[OrbitStep] = []
        self.n_periodic: int | None = None
        self.n_fixed: int | None = None


def _compare(u: str, v: str) -> str:
    if u == v:
        return "equal"
    return "less" if u < v else "greater"


def iterate_sqrt(sys: OmegaSystem, src: InfiniteWord, m: int) -> OrbitRecord:
    """Record ``m`` square root steps starting from ``src``.

    Uses the structural route when the source carries product provenance and
    the raw lazy tokenizer otherwise.  A product iterate takes its type and
    its root from one :meth:`OmegaSystem.sqrt_of_product`.  A word is
    ``periodic`` only as a type D image or by
    :meth:`OmegaSystem.rotation_index`; ``stream`` means the word is not
    known to be a shift of ``S^omega``, and no guess is made.  The periodic
    part follows the rotation successors of :attr:`OmegaSystem.rotations`.
    """
    n = sys.block_len
    record = OrbitRecord(start=src.descriptor)
    cur, rotation = src, None
    start_fp = src.prefix(n)
    for step in range(m + 1):
        if rotation is None:
            rotation = sys.rotation_index(cur)
        if rotation is not None:  # the orbit stays in the periodic part
            fp, outcome = sys.omega_p_word(rotation).prefix(n), PERIODIC
            if record.n_periodic is None:
                record.n_periodic = step
            if record.n_fixed is None and sys.rotations[1][rotation] == 0:
                record.n_fixed = step
        elif cur.product is not None:
            root, kind = sys.sqrt_of_product(cur.product)
            fp, outcome = cur.prefix(n), TYPE_D if kind == PERIODIC else kind
        else:
            fp, outcome = cur.prefix(n), "stream"
        record.steps.append(OrbitStep(fp, outcome, _compare(start_fp, fp)))
        if step == m:
            break
        if rotation is not None:
            rotation = sys.rotations[0][rotation]
        elif cur.product is not None:
            cur = root
        else:
            cur = streams.sqrt_stream(sys.alphabet, cur)
    return record


# ---------------------------------------------------------------------------
# Table 1


class Table1Row:
    __slots__ = ("s_len", "steps", "start")

    def __init__(self, s_len: int, steps: int, start: tuple[int, str]):
        self.s_len = s_len
        self.steps = steps
        self.start = start  # (shift, first) of a start attaining ``steps``


def fibonacci_system(s_len: int) -> OmegaSystem:
    """System with the reversed Fibonacci word of length ``s_len`` as block word."""
    return OmegaSystem(OmegaParams(a=1, b=0, c=1, k=len(fibonacci_numbers(s_len)) - 2))


def table1_experiment(s_lengths: Iterable[int]) -> list[Table1Row]:
    """Maximal steps-to-fixed per block word length, with a start attaining it."""
    engines = (OrbitEngine(fibonacci_system(s_len)) for s_len in s_lengths)
    return [Table1Row(engine.n, engine.steps_supremum(), engine.start()) for engine in engines]


TABLE1_REFERENCE = {8: 3, 13: 4, 21: 4, 34: 5, 55: 6, 89: 6, 144: 7, 233: 8, 377: 8,
                    610: 9, 987: 10, 1597: 10, 2584: 11, 4181: 12, 6765: 13}

TABLE2_REFERENCE = {8: "3.47", 13: "4.16", 21: "4.85", 34: "5.55", 55: "6.24",
                    89: "6.94", 144: "7.63", 233: "8.33", 377: "9.02", 610: "9.71",
                    987: "10.41", 1597: "11.11", 2584: "11.80", 4181: "12.50",
                    6765: "13.19"}


# ---------------------------------------------------------------------------
# preimages


class PreimageHit:
    """One preimage candidate: the preimage prefix at the identification
    resolution plus one witnessing descriptor (shift and block window)."""

    __slots__ = ("preimage_prefix", "shift", "window")

    def __init__(self, preimage_prefix: str, shift: int, window: str):
        self.preimage_prefix, self.shift, self.window = preimage_prefix, shift, window


def preimage_match_len(sys: OmegaSystem) -> int:
    """Letters of a target that :class:`PreimageIndex` matches: ``16 |S|``."""
    return 16 * sys.block_len


_NOT_HALVING = "a block pair does not halve; block decimation is not exact"


class PreimageIndex:
    """Index of square roots of every shifted factor window of the subshift.

    The candidate windows are all the factors of ``window_blocks`` block
    names (:meth:`OmegaSystem.factors`), so the index is exact: every
    shifted factor of that many blocks is a candidate, and nothing else is.
    Two depths are involved:

    * ``match_len = 16 |S|`` root letters of every candidate are compared
      against the target, and
    * candidates are identified (deduplicated and reported) by their first
      ``2 * resolution`` letters, with ``resolution = 4 |S|``.

    The match depth must comfortably exceed the resolution: for a target
    outside the periodic part (no factor of ``S^omega``), candidates
    differing within the resolution but mapping to the same word forever are
    exactly the junction pairs of the injectivity theorem, at most two, while
    look-alikes whose roots diverge later are pruned because the divergence
    of a variant at scale ``resolution`` shows up within a small multiple of
    it.  A target in the periodic part is the type-D image of many windows,
    and the theorem caps nothing there.

    The roots are read off the square root step and block decimation, with
    the block pairs checked to halve (:attr:`OmegaSystem.pairs_halve`).  Lemma:
    the window ``w`` shifted by ``ell`` is the remainder ``(w[0], ell)`` over
    the blocks ``w[1:]``.  At ``ell = 0`` its root is ``sigma(w[0::2])``.
    Otherwise :meth:`OmegaSystem.remainder_step`, the step that no tail of
    names changes, gives a type B or C root, a remainder ``(head, shift')``
    that consumes ``w[0]`` or ``w[0:2]``, after which every name pair
    halves, so the root is ``sigma(head)[shift':]`` followed by ``sigma`` of
    the odd- or even-indexed names; ``window_blocks`` names reach past every
    pair that ``match_len`` root letters read (at most 16 pairs after two
    names).
    Type D is the step's own claim: the root is ``T^j(S^omega)``
    (:meth:`OmegaSystem.omega_p_word`).  The steps are read, one per slot,
    from the system's :attr:`OmegaSystem.remainder_graph`, which the Table 1
    engine reads too, so the index walks nothing when the graph is built and
    every remainder once when it is not.  The letters each step fixes
    (``sigma(head)[shift':]`` or the rotation root) are kept per slot and
    looked up per first name and shift through
    :func:`~squareful.omega.remainder_slot`; a window then only joins them to
    its names' letters.  A preimage keeps its first witness, in sorted window
    order and then by ascending shift.
    """

    def __init__(self, sys: OmegaSystem):
        if not sys.pairs_halve:
            raise AssertionError(_NOT_HALVING)
        n = sys.block_len
        self.match_len = need = preimage_match_len(sys)
        self.window_blocks = (2 * need + sys.alphabet.max_square_len + n) // n + 2  # the letters needed, in names
        self.table: dict[str, dict[str, PreimageHit]] = {}

        def head_of(kind: str, successor: int) -> tuple[str, int]:
            # the root letters a step fixes and the index in `tails` of what
            # follows them: the names the step consumes, or 3 (nothing) for a
            # type D image
            if kind == TYPE_D:
                return sys.omega_p_word(successor).prefix(need), 3
            head, shift = slot_remainder(successor)
            return sys.sigma(head)[shift:], CONSUMED[kind]

        by_slot = [head_of(kind, successor) for kind, successor in zip(*sys.remainder_graph[:2])]
        heads = {first: [("", CONSUMED[TYPE_A])] + [by_slot[remainder_slot(first, ell)] for ell in range(1, n)]
                 for first in "SL"}
        for window in sys.factors(self.window_blocks):
            size, text = len(window), sys.sigma(window)
            # sigma of the first name of each whole pair from name 0 and from name 1
            even = sys.sigma(window[0::2][: size // 2])
            tails = even, sys.sigma(window[1::2][: (size - 1) // 2]), even[n:], ""
            for ell, (head, tail) in enumerate(heads[window[0]]):
                root = head + tails[tail]
                if len(root) < need:
                    raise AssertionError("window too short for the requested match depth")
                key = text[ell : ell + need // 2]  # 2 * resolution letters
                bucket = self.table.setdefault(root[:need], {})
                if key not in bucket:
                    bucket[key] = PreimageHit(key, ell, window)

    def find(self, target_prefix: str) -> list[PreimageHit]:
        if len(target_prefix) != self.match_len:
            raise ValueError(f"index matches targets of length {self.match_len}")
        return sorted(self.table.get(target_prefix, {}).values(), key=lambda h: h.preimage_prefix)


def junction_signature(sys: OmegaSystem, hits: list[PreimageHit]) -> bool:
    """Whether a two-preimage answer has the left-extension shape: the two
    windows swap one block ``S <-> L`` whose first letter is in the prefix,
    after a product of minimal squares and one whole block (when that much
    is visible), i.e. the ``zS`` part of the left extensions of the two
    fixed points.

    Read on the hits' window names, which spell the prefixes: at shift
    ``ell`` name ``q`` starts at prefix letter ``q |S| - ell``.  ``S`` and
    ``L`` differ only in their first two letters, so the prefix shows name
    ``q`` when one of those two letters lies inside it (name 0 only for
    ``ell <= 1``), and shows nothing else of the names.  A swap shown by its
    first letter alone, on the prefix's last letter, is a swap all the same.
    """
    if len(hits) != 2 or hits[0].shift != hits[1].shift:
        return False
    n, ell, size = sys.block_len, hits[0].shift, len(hits[0].preimage_prefix)
    x, y = hits[0].window, hits[1].window
    swapped = [q for q in range(0 if ell <= 1 else 1, (size + ell - 1) // n + 1) if x[q] != y[q]]
    if len(swapped) != 1:
        return False
    p = swapped[0] * n - ell
    return p >= 0 and (p <= n or squares.in_pi(sys.alphabet, hits[0].preimage_prefix[: p - n]))


# ---------------------------------------------------------------------------
# preimage chains (limit set witnesses)


class ChainLink:
    """One link of a preimage chain.  The preimage is a view of its building
    block, a fixed-point window, and keeps no names: ``len(preimage)``
    counts its letters, ``preimage.names()`` and ``str(preimage)`` read its
    names and spell its letters."""

    __slots__ = ("level", "prefix_len", "preimage", "verified")

    def __init__(self, level: int, prefix_len: int, preimage: BlockWord, verified: bool):
        self.level = level            # the aligned hierarchy level this link jumped past
        self.prefix_len = prefix_len  # |u_n| in letters
        self.preimage = preimage      # v_n, with sqrt(v_n) == u_n
        self.verified = verified


class PreimageChain:
    __slots__ = ("links", "status")

    def __init__(self, links: list[ChainLink], status: str):
        self.links = links
        self.status = status  # "ok", "budget", or "fixed_point"


TOWER_PIECE = 1 << 16  # level-0 block names streamed through the tower per piece


class AlignmentTower:
    """Lazy start offsets of the level-j factorization grids of a block product.

    Level ``j + 1`` is pinned by desubstituting the level-``j`` name sequence:
    ``tau(x) = xbar S^(2c)`` (:func:`~squareful.omega.tau`), so the marked
    letter ``L`` occurs only at image starts, and its first occurrence fixes
    the parse offset.  ``start(j)`` is the absolute start position of the
    level-``j`` grid in level-0 blocks.

    The window of block names grows on demand (each level divides the usable
    window by the substitution length), capped at ``block_budget``.  It is
    streamed in pieces of ``TOWER_PIECE`` names: each pinned level checks
    that every ``L`` of a piece lies on its parse offset, keeps the first
    name of each image and desubstitutes it; only the level still being
    pinned keeps its names.  A grown window is streamed on from where the
    last one ended, and nothing is replayed: a longer prefix of a memoized
    (prefix-consistent) source cannot move an offset already pinned, and
    every name the window covers is checked against those offsets once.
    """

    def __init__(self, sys: OmegaSystem, names: InfiniteWord, block_budget: int):
        self.m = sys.m
        self._names = names
        self._cap = block_budget
        self._window = min(4096, block_budget)
        self._read = 0
        self._phases: list[list[int]] = []  # [parse offset, names seen] per pinned level
        self._top: list[str] = []  # the names of the level being pinned
        self._starts = [0]
        self._scale = 1

    def aligned(self) -> bool:
        """Whether every grid start found so far is at position 0."""
        return not any(self._starts)

    def start(self, j: int) -> int | None:
        while j >= len(self._starts):
            if not self._extend():
                return None
        return self._starts[j]

    def _feed(self, piece: str, level: int = 0) -> None:
        m = self.m
        for phase in self._phases[level:]:
            firsts = piece[(phase[0] - phase[1]) % m :: m]
            if piece.count("L") != firsts.count("L"):
                raise AssertionError("block names do not parse as substitution images")
            phase[1] += len(piece)
            piece = firsts.translate(FLIP)
        self._top.append(piece)

    def _extend(self) -> bool:
        m = self.m
        while True:
            while self._read < self._window:
                stop = min(self._read + TOWER_PIECE, self._window)
                self._feed(self._names.window(self._read, stop))
                self._read = stop
            seq = "".join(self._top)
            pos = seq.find("L")
            if pos >= 0 and len(seq) >= 6 * m:
                break
            self._top = [seq]
            if self._window >= self._cap:
                return False
            self._window = min(self._window * m, self._cap)
        self._starts.append(self._starts[-1] + pos % m * self._scale)
        self._scale *= m
        self._phases.append([pos % m, 0])
        self._top = []
        self._feed(seq, level=-1)  # through the new level only
        return True


def preimage_chain(
    sys: OmegaSystem,
    names: InfiniteWord,
    depth: int,
    block_budget: int = 4_000_000,
    letter_verify_cap: int = 300_000,
) -> PreimageChain:
    """Constructive preimage-prefix chain for a product word.

    Link ``n`` pins the prefix ``u_n`` of the word up to the start of the
    level-``(k_n + 1)`` factorization and exhibits ``v_n``, a suffix of the
    squared level-``(k_n + 1)`` building block, with ``sqrt(v_n) == u_n``.
    Both are built on block names: the names of ``u_n`` must end
    ``tau^(k_n + 1)(S)``, and ``v_n`` is the product of the last ``2 |u_n|``
    names of that block squared.  The block is a window of a fixed point
    (:meth:`~squareful.omega.OmegaSystem.tau_source`), and a link keeps
    ``v_n`` as a view of that window (a
    :class:`~squareful.streams.BlockWord`), so no link keeps a name: its
    names and letters are read only when a caller asks for them.

    Each link is verified by one of two exact routes.  Up to
    ``letter_verify_cap`` letters of ``v_n`` the letter route retokenizes
    ``sigma`` of the names of ``v_n`` and compares its root with ``sigma``
    of the names of ``u_n``.  Above the cap no letter is built: the name
    route checks that the block pairs halve
    (:attr:`~squareful.omega.OmegaSystem.pairs_halve`, once per system)
    and that the even-indexed names of ``v_n`` spell the names of ``u_n``.
    """
    m = sys.m
    tower = AlignmentTower(sys, names, block_budget)
    links: list[ChainLink] = []
    pos = 0
    for _ in range(depth):
        k = 0
        while True:
            nxt_start = tower.start(k + 1)
            if nxt_start is None:
                # aligned at every level the budget reaches: either one of the
                # two fixed points (all grids start at 0) or out of budget
                if not links and pos == 0 and tower.aligned():
                    return PreimageChain(links, "fixed_point")
                return PreimageChain(links, "budget")
            if (pos - nxt_start) % (m ** (k + 1)) != 0:
                break
            k += 1
        size = m ** (k + 1)
        nxt = pos + (nxt_start - pos) % size
        u_names, block = names.prefix(nxt), sys.tau_source(k + 1)
        if nxt > size or block.window(size - nxt, size) != u_names:
            raise AssertionError("chain prefix is not a suffix of the next building block")
        v = BlockWord(block, size, 2 * nxt, sys.s_word, sys.l_word)
        if len(v) <= letter_verify_cap:
            ok = squares.sqrt_finite(sys.alphabet, sys.sigma(v.names())) == sys.sigma(u_names)
        else:
            ok = sys.pairs_halve and v.names(2) == u_names
        links.append(ChainLink(k, nxt * sys.block_len, v, ok))
        pos = nxt
    return PreimageChain(links, "ok")


# ---------------------------------------------------------------------------
# periodic points


def periodic_point_search(sys: OmegaSystem, max_blocks: int) -> tuple[list[str], int]:
    """Decide, for each cyclic block product ``p^omega`` of up to
    ``max_blocks`` names, whether it is a periodic point; ``Gamma1`` and
    ``Gamma2`` are added.  Returns the sorted labels of the periodic points
    found and the number of patterns refuted, counted with none spelled.

    A decimation halves the names (:attr:`OmegaSystem.pairs_halve`, checked), so
    after ``s`` of them name ``t`` reads name ``t 2^s mod N``; write ``N =
    |p| = 2^e N'`` with ``N'`` odd.  Lemma A: ``p`` returns iff it has period
    ``N'``.  If it returns after ``s`` steps, the powers of ``2^s`` mod ``N``
    reach an idempotent ``E``, which is ``0 mod 2^e`` and ``1 mod N'`` (a
    unit there), and ``p[t] = p[t E mod N]`` depends on ``t mod N'`` alone;
    conversely some ``2^s = 1 mod N'``.  So ``2^N - 2^N'`` patterns never
    return, and a primitive one returns iff ``N`` is odd.  ``sigma`` is a
    code (``S`` and ``L`` are distinct words of one length), so a proper
    power gives the word of its primitive root, met first, and is skipped.
    Lemma B: a shift of ``S^omega`` has period ``|S|``, so the aligned
    blocks ``sigma(p[t])`` are all equal and a primitive ``p`` is ``S`` or
    ``L``; only these two meet :meth:`OmegaSystem.rotation_index`, and every
    other returning word is outside the subshift.  The refuted count is the
    sum over ``N`` of ``2^N - 2^N'`` and, for odd ``N``, the ``P(N)``
    primitive words, less ``S`` and ``L`` where found.

    ``Gamma1`` and ``Gamma2`` are fixed: ``Gamma*[2i] = Gamma*[i]``, as
    ``v_m(2i) = v_m(i)`` for the odd ``m`` of :attr:`OmegaSystem.m`
    (:func:`~squareful.omega.tau`, consequence (d)).
    """
    if not sys.pairs_halve:
        raise AssertionError(_NOT_HALVING)
    found = [label for label, word in (("S^w", sys.s_omega()), ("L^w", sys.l_omega()))
             if sys.rotation_index(word) is not None]
    # P(N) = 2^N - sum of P(d) over the proper divisors d of N, for odd N
    primitive = [0] * (max_blocks + 1)
    for size in range(1, max_blocks + 1, 2):
        primitive[size] += 1 << size
        for multiple in range(3 * size, max_blocks + 1, 2 * size):
            primitive[multiple] -= primitive[size]
    refuted = sum((1 << size) - (1 << (size // (size & -size))) + primitive[size]
                  for size in range(1, max_blocks + 1))
    return sorted(["Gamma1", "Gamma2", *found]), refuted - len(found)


def _orbit_lengths(modulus: int) -> list[int]:
    """The length of the orbit of each ``k`` under ``k -> 2k mod modulus``."""
    lengths = [0] * modulus
    for orbit in equation.doubling_orbits(modulus).orbits:
        for k in orbit:
            lengths[k] = len(orbit)
    return lengths


def doubling_period_increasing(m: int, imax: int) -> bool:
    """Exhaustively verify that doubling periods grow strictly along every
    chain ``k_{i+1} = k_i + r m^i`` for the substitution length ``m``
    (:attr:`OmegaSystem.m`), ``m`` not dividing ``k_1``, ``0 <= r < m`` and
    ``1 <= i < imax``.

    The doubling period of ``k`` modulo ``M``, the least ``p >= 1`` with
    ``(2^p - 1) k = 0 mod M``, is the length of the orbit of ``k`` in
    :func:`equation.doubling_orbits`, as ``(2^p - 1) k = 0`` iff ``2^p k =
    k``.  The chain values at level ``i`` are the ``0 < k < m^i`` that ``m``
    does not divide."""
    here = _orbit_lengths(m)
    for i in range(1, imax):
        there = _orbit_lengths(m ** (i + 1))
        if any(there[k + r * m**i] <= here[k] for k in range(1, m**i) if k % m for r in range(m)):
            return False
        here = there
    return True
