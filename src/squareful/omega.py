"""The subshift of optimal squareful words built from reversed standard words.

The construction has two layers.  A block substitution, :func:`tau` with
the body ``S^(2c)``,

    tau: S -> L S^(2c),  L -> S^(2c+1)

whose images have the one length :attr:`OmegaSystem.m` ``= 2c + 1``,
generates an aperiodic minimal subshift over the letters ``S``/``L``; the
letter substitution sigma sends ``S`` and ``L`` to a reversed standard word
``w`` and its first-two-letters-swapped companion ``L(w)``.  Applying sigma to
the tau subshift yields the aperiodic part; adjoining the shifts of the
periodic word ``S^omega`` closes the system under the square root map.

``gamma(j)`` and ``gamma_bar(j)`` are the level-``j`` building blocks
``sigma(tau^j(S))`` and ``sigma(tau^j(L))``; ``big_gamma(1)`` and
``big_gamma(2)`` are the two aperiodic fixed points of the square root map.

The square root map acts on shifted block products through one kernel,
:meth:`OmegaSystem.sqrt_step`, which :meth:`OmegaSystem.sqrt_of_product`,
the one typed step of a product, writes as views, and which
:meth:`OmegaSystem.remainder_step` proves free of the block names after a
remainder.  Its type D images are the rotations ``T^j(S^omega)``, the
periodic part, whose successors and phases are the one integer table
:attr:`OmegaSystem.rotations`.  The aperiodic part's one table is
:attr:`OmegaSystem.remainder_graph`: one slot per remainder
(:func:`remainder_slot` owns the layout) with its step and its depth to
``S^omega`` or ``L^omega``, which the Table 1 engine and the preimage index
read and never step themselves.
"""

from __future__ import annotations

import array
import functools
import itertools

from . import squares, streams, words
from .sturmian import reversed_standard_word
from .squares import SquareAlphabet
from .streams import InfiniteWord, SLProduct

PLAIN = "plain"
SWAPPED = "swapped"

TYPE_A = "A"
TYPE_B = "B"
TYPE_C = "C"
TYPE_D = "D"

CONSUMED = {TYPE_A: 0, TYPE_B: 1, TYPE_C: 2}  # block names a type A, B or C step consumes

PERIODIC = "periodic"

FLIP = {ord("S"): "L", ord("L"): "S"}  # swaps the names: x -> xbar

# Blocks after the remainder that a type-D image reads: it reads 2|S| + |S6^2|
# letters, |y| >= 1 of them from the remainder, and |S6^2| < 2|S| because
# |S| > |S6|, so the rest reaches at most four blocks.
D_LOOKAHEAD = 4

# every name sequence that a step can read: the 16 four-name tails
_TAILS = ["".join(p) for p in itertools.product("LS", repeat=D_LOOKAHEAD)]


def remainder_slot(first: str, shift: int) -> int:
    """The slot of the remainder ``(first, shift)`` in
    :attr:`OmegaSystem.remainder_graph`, the one owner of its layout.  S and
    L differ only in their first two letters, so a shift >= 2 spells the
    same letters whatever ``first``: the ``|S|`` remainders are ``("S",
    shift)`` in slot ``shift`` and ``("L", 1)`` in slot 0."""
    return shift if shift > 1 or first == "S" else 0


def slot_remainder(slot: int) -> tuple[str, int]:
    """The remainder held in ``slot``, inverse to :func:`remainder_slot`."""
    return ("S", slot) if slot else ("L", 1)


class OmegaParams:
    """Parameters fully determining the subshift.

    ``a``, ``b`` fix the six minimal squares, ``c`` the block substitution,
    ``k`` the index of the reversed standard word used as seed, and ``seed``
    whether the block ``S`` maps to the reversed standard word itself or to
    its swapped companion.  The slope is ``[0; a+1, b+1, 1, 1, ...]``; only
    the first ``k`` quotients ever matter.
    """

    __slots__ = ("a", "b", "c", "k", "seed")

    def __init__(self, a: int = 1, b: int = 0, c: int = 1, k: int = 4, seed: str = PLAIN):
        if a < 1 or b < 0 or c < 1:
            raise ValueError("need a >= 1, b >= 0, c >= 1")
        if seed not in (PLAIN, SWAPPED):
            raise ValueError(f"seed must be {PLAIN!r} or {SWAPPED!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.a, self.b, self.c, self.k, self.seed = a, b, c, k, seed

    def __repr__(self) -> str:
        return f"OmegaParams(a={self.a}, b={self.b}, c={self.c}, k={self.k}, seed={self.seed!r})"

    def directive(self, upto: int) -> tuple[int, ...]:
        """Directive sequence (d_1, d_2, ...) for the standard word recurrence."""
        return ((self.a, self.b + 1) + (1,) * upto)[:upto]


def tau(body: str, blockword: str) -> str:
    """Blockwise image under ``x -> xbar body``, where ``xbar`` is the other
    name: ``S -> L body``, ``L -> S body``.  This is the package's one
    substitution; the system's is ``body = S^(2c)`` (:class:`OmegaSystem`),
    and an assignment of the doubling orbits gives another
    (:func:`~squareful.equation.pattern_to_substitution`).

    ``body`` is a nonempty word over ``S``/``L`` of even length, so every
    image has the odd length ``m = |body| + 1``.  Lemma, for any body:

    (a) ``tau^j(S)`` and ``tau^j(L)`` differ only in name 0: by induction on
        ``j``, their images differ only in the image of name 0, and
        ``tau(x)``, ``tau(xbar)`` differ only in their name 0.
    (b) The two fixed points ``x`` of ``tau^2``, seeded ``x[0] = S`` and
        ``x[0] = L``, are Toeplitz words: for ``n = m^v n'`` with ``m`` not
        dividing ``n'``, ``x[n]`` is ``tau(body, "S")[n' mod m]`` flipped
        ``v`` times.  tau maps each to the other, ``x'``, so ``x[qm + r] =
        tau(x'[q])[r]`` is ``body[r - 1]`` for ``0 < r < m`` and the other
        name than ``x'[q]`` for ``r = 0``; induct on ``v``.  At ``S^(2c)``,
        ``x[n] = L`` iff ``v`` is odd.
    (c) Only for ``body = S^(2c)``: the 2-letter factors of the tau language
        (the factors of the ``tau^i(S)``) are ``LS``, ``SL`` and ``SS``: an
        ``L`` of ``tau(w)`` starts an image and follows the last name ``S``
        of the one before, so ``LL`` never occurs, while ``tau(S) = L
        S^(2c)`` holds ``LS`` and ``SS`` and ``tau^2(L) = tau(S) tau(S)
        ...`` holds ``SL``.  What rests on (c) (the covering texts and
        factors, the preimage index, the alignment tower and the chains) is
        stated for ``S^(2c)`` and reads ``m`` from :attr:`OmegaSystem.m`;
        :func:`covering_level` rests on no fact of the body but its ``m``.
    (d) If ``body[i - 1] = body[(2i mod m) - 1]`` for ``0 < i < m``, then
        ``x[2i] = x[i]`` for every ``i``: taking every other name fixes
        ``x``.  By (b), as ``v_m(2n) = v_m(n)`` because ``m`` is odd and
        ``2n' mod m = 2(n' mod m) mod m`` is not 0.  ``S^(2c)`` has the
        property, and so has every body of a doubling-orbit assignment.
    """
    _check_body(body)
    return blockword.translate({ord("S"): "L" + body, ord("L"): "S" + body})


def _check_body(body: str) -> None:
    if not body or len(body) % 2 or body.strip("SL"):
        raise ValueError(f"body must be a nonempty word over S and L of even length, not {body!r}")


def fixed_point(body: str, seed: str) -> InfiniteWord:
    """Block names of the ``tau^2`` fixed point of ``body`` with ``x[0] =
    seed``, a view that keeps no names (:class:`_TauFixedPoint`)."""
    _check_body(body)
    if seed not in ("S", "L"):
        raise ValueError("seed must be 'S' or 'L'")
    return _TauFixedPoint(body, seed)


def covering_level(m: int, length: int) -> int:
    """The least ``j`` with ``m^j >= length - 1``, the level of
    :meth:`OmegaSystem.covering_texts` (``|tau^j(S)| = |tau^j(L)| = m^j``
    for the substitution length ``m``, :attr:`OmegaSystem.m`)."""
    j, size = 0, 1
    while size < length - 1:
        j, size = j + 1, size * m
    return j


class OmegaSystem:
    """Derived data and operations for one parameter choice.

    The substitution is :func:`tau` with ``body = S^(2c)``, so every image
    has ``m = 2c + 1`` names; ``m`` is derived here alone.  Its blocks
    ``tau^j(S)`` and ``tau^j(L)``, which the covering texts, ``gamma`` and
    the preimage chains read, are windows of the fixed points ``Gamma1*``
    and ``Gamma2*`` (:meth:`tau_source`), so the system keeps no names;
    instances are cheap to share, but the lazy sources they hand out follow
    the single-consumer rule of :mod:`squareful.streams`.
    """

    def __init__(self, params: OmegaParams):
        self.params = params
        self.alphabet: SquareAlphabet = squares.build_alphabet(params.a, params.b)
        sbar = reversed_standard_word(params.directive(params.k), params.k)
        if len(sbar) <= self.alphabet.max_square_len // 2:
            raise ValueError(
                f"|reversed standard word| = {len(sbar)} must exceed "
                f"|S6| = {self.alphabet.max_square_len // 2}; pick a larger k"
            )
        self.s_word = sbar if params.seed == PLAIN else words.swap_first_two(sbar)
        self.l_word = words.swap_first_two(self.s_word)
        self._sigma_table = {ord("S"): self.s_word, ord("L"): self.l_word}
        self.m = 2 * params.c + 1
        self._body = "S" * (self.m - 1)
        self._gamma_star: dict[int, InfiniteWord] = {}

    # -- basic words ---------------------------------------------------------

    @property
    def block_len(self) -> int:
        return len(self.s_word)

    def sigma(self, blockword: str) -> str:
        return blockword.translate(self._sigma_table)

    @functools.cached_property
    def pairs_halve(self) -> bool:
        """Whether ``sqrt(xy) = x`` for the four block pairs.

        If so, ``sqrt(sigma(x0 x1 x2 ...)) = sigma(x0 x2 x4 ...)`` for every
        name sequence: the greedy factorization of a concatenation of square
        products is the concatenation of their factorizations.
        """
        blocks = (self.s_word, self.l_word)
        return all(squares.sqrt_finite(self.alphabet, x + y) == x for x in blocks for y in blocks)

    def tau_source(self, j: int, name: str = "S") -> InfiniteWord:
        """The fixed point whose first ``m^j`` names are
        ``tau^j(name)``, the one seeded ``name`` flipped ``j`` times: by (b)
        of :func:`tau`, tau maps each fixed point to the other, so ``tau^j``
        maps the one seeded ``name``, which starts with ``name``, to it."""
        return self.gamma_star(1 + (j + (name == "L")) % 2)

    def tau_block(self, j: int) -> str:
        """``tau^j(S)`` as a word over the block names, a window of
        :meth:`tau_source`: ``Gamma1*`` for even ``j``, ``Gamma2*`` for odd."""
        return self.tau_source(j).prefix(self.m**j)

    def covering_texts(self, length: int) -> list[str]:
        """The texts ``tau^j(a) tau^j(b)`` cut after ``length - 1`` names of
        ``tau^j(b)``, one per 2-letter factor ``ab`` of the tau language
        (``LS``, ``SL`` and ``SS``, by (c) of :func:`tau`), with ``j =
        covering_level(m, length)``; each part is a prefix of a fixed point
        (:meth:`tau_source`), and by (a) ``tau^j(L)`` is ``tau^j(S)`` with
        name 0 flipped, as the fixed points differ only in name 0.

        Lemma: the factors of ``length`` names are exactly the slices of that
        length of these texts, that is those of ``tau^j(ab)`` that start
        inside ``tau^j(a)``.  Proof: a factor of ``tau^j(tau^i(S))`` starts
        inside the image of some name ``a`` of ``tau^i(S)``, and the image of
        the name ``b`` after it has ``m^j >= length - 1`` names, so the
        factor ends inside ``tau^j(ab)`` (when ``a`` is the last name, take
        for ``b`` any right neighbour of ``a``).  Conversely ``tau^j(ab)`` is
        in the language.
        """
        j = covering_level(self.m, length)
        size = self.m**j
        return [self.tau_source(j, a).prefix(size) + self.tau_source(j, b).prefix(length - 1)
                for a, b in ("LS", "SL", "SS")]

    def factors(self, length: int) -> list[str]:
        """The sorted factors of ``length`` block names of the tau language:
        the slices of the covering texts (:meth:`covering_texts`)."""
        return sorted({text[i : i + length] for text in self.covering_texts(length)
                       for i in range(len(text) - length + 1)})

    def gamma(self, j: int) -> str:
        return self.sigma(self.tau_block(j))

    def gamma_bar(self, j: int) -> str:
        """``sigma(tau^j(L))``, ``tau^j(L)`` read as a window of the other
        fixed point than ``tau^j(S)`` (:meth:`tau_source`); by (a) of
        :func:`tau` it is ``gamma(j)`` with its first block swapped."""
        return self.sigma(self.tau_source(j, "L").prefix(self.m**j))

    # -- infinite words ------------------------------------------------------

    def gamma_star(self, which: int) -> InfiniteWord:
        """Block names of the tau^2 fixed point (1 starts S..., 2 starts L...),
        a view that keeps no names (:func:`fixed_point`)."""
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        if which not in self._gamma_star:
            star = self._gamma_star[which] = fixed_point(self._body, "SL"[which - 1])
            star.descriptor = f"Gamma{which}*"
        return self._gamma_star[which]

    def product(self, blocks: InfiniteWord, shift: int = 0) -> SLProduct:
        return SLProduct(blocks, shift, self.s_word, self.l_word)

    def big_gamma(self, which: int) -> InfiniteWord:
        """The fixed point Gamma_1 (resp. Gamma_2) of the square root map."""
        src = streams.expand(self.product(self.gamma_star(which)))
        src.descriptor = f"Gamma{which}"
        return src

    def s_omega(self) -> InfiniteWord:
        return streams.periodic_word(self.s_word, "S^w")

    def l_omega(self) -> InfiniteWord:
        return streams.periodic_word(self.l_word, "L^w")

    def omega_p_word(self, j: int) -> InfiniteWord:
        """The periodic word ``T^j(S^omega)``; its prefix is the j-th rotation of S."""
        rot = self.s_word[j % self.block_len :] + self.s_word[: j % self.block_len]
        return streams.periodic_word(rot, f"T^{j}(S^w)")

    def conjugate_index(self, u: str) -> int | None:
        """Which rotation of the block word ``u`` is, or None (``S`` is
        primitive, so a rotation occurs in ``S + S`` once before ``|S|``)."""
        j = (self.s_word * 2).find(u) if len(u) == self.block_len else -1
        return j if j >= 0 else None

    @functools.cached_property
    def rotations(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Rotation successors and phases by exact intercept arithmetic on
        integer cells, with the phases' proven bound.

        The slope is ``alpha = p/n`` with ``n = |S|`` and ``p`` the number of
        1s of ``S``; cell ``c`` is the intercept arc ``[c/n, (c+1)/n)``.  Lemma:
        ``1 - alpha = (n - p)/n`` is a cell edge, so the coding is constant on
        each cell (letter ``i`` of cell ``c`` is 1 iff ``(c + i p) mod n >=
        n - p``), and ``psi(rho) = (rho + 1 - alpha)/2``, the map of
        :meth:`~squareful.sturmian.RotationSystem.sqrt_intercept` (EJC 2017),
        sends cell ``c`` into cell ``floor((c + n - p)/2)``.  ``T^j(S^omega)``
        is the coding of cell ``(c_S + j p) mod n``, where ``c_S`` is the cell
        coded by ``S``, so the square root of ``T^j(S^omega)`` is
        ``T^j'(S^omega)`` with ``j' = (floor((c + n - p)/2) - c_S) p^-1 mod
        n`` (``p`` and ``n`` are coprime, as ``S`` is primitive).  The phase is
        the number of steps to the cell of ``S`` or of ``L``.  Those two cells
        meet at the edge ``n - p``, and a step halves the distance in cells to
        that edge, which starts at most ``n - p``: so the phase is at most
        ``ceil(log2(n - p))``, and a longer iteration raises.  Returns the
        successor and the phase of every rotation ``j`` in order, and the
        bound; the one table of the periodic part, computed on first use.
        """
        n, p = self.block_len, self.s_word.count("1")
        w0 = "".join("1" if i * p % n >= n - p else "0" for i in range(n))
        cells = []
        for word in (self.s_word, self.l_word):
            at = (w0 + w0).find(word)
            if at < 0:
                raise ValueError("block words are not factors of the rotation coding")
            cells.append(at * p % n)
        c_s, c_l = cells
        bound, p_inv = (n - p - 1).bit_length(), pow(p, -1, n)
        successors, phases = [], []
        for j in range(n):
            c, steps = (c_s + j * p) % n, 0
            successors.append(((c + n - p) // 2 - c_s) * p_inv % n)
            while c != c_s and c != c_l:
                if steps == bound:
                    raise AssertionError("psi iteration exceeded its proven bound")
                c, steps = (c + n - p) // 2, steps + 1
            phases.append(steps)
        return tuple(successors), tuple(phases), bound

    # -- the square root step --------------------------------------------------

    def names_read(self, kind: str, shift: int) -> int:
        """How many of the block names after the remainder ``(first, shift)``
        a step of type ``kind`` reads: none for type B and the first for type
        C, the names each consumes after the remainder's own block
        (:data:`CONSUMED`), and for type D the ``ceil((|S| + |S6^2| +
        shift)/|S|)`` names that :meth:`sqrt_step`'s ``2|S| + |S6^2|``
        letters reach, at most :data:`D_LOOKAHEAD`."""
        if kind != TYPE_D:
            return CONSUMED[kind] - 1
        return -(-(self.block_len + self.alphabet.max_square_len + shift) // self.block_len)

    def sqrt_step(self, first: str, shift: int, names: str) -> tuple[str, tuple[str, int] | int]:
        """One square root step on the remainder ``(first, shift)``, the last
        ``|S| - shift`` letters of block ``first``, and the blocks ``names``
        (at least :data:`D_LOOKAHEAD`).

        Returns ``(TYPE_B, root)`` when the remainder is a product of minimal
        squares, ``(TYPE_C, root)`` when it is with the first block, the root
        being a remainder ``(head, shift')``, and otherwise ``(TYPE_D, j)``:
        the square root is ``T^j(S^omega)``.

        Lemma: the squares are prefix-free, so a prefix of a text is a product
        of minimal squares iff the text's greedy walk passes its end.  One walk
        of the remainder and the blocks after it, cut at ``2|S| + |S6^2|``
        letters, thus decides the type: B iff it passes ``|S| - shift``, C iff
        it passes ``2|S| - shift``, else D, with ``j`` the rotation index of
        its first ``|S|`` root letters.  So the step depends on the names only
        through the :meth:`names_read` of its type: a B walk passes its end
        inside the remainder and a C walk inside ``names[0]``, whatever
        follows.  S and L differ only in their first two letters, so a shift
        >= 2 reads no name of ``first``.  The step keeps nothing:
        :meth:`remainder_step` takes it under every tail, once per
        names-read prefix, and :meth:`sqrt_of_product` under its product's
        own names.
        """
        n, read = self.block_len, 2 * self.block_len + self.alphabet.max_square_len
        if not 0 < shift < n:
            raise ValueError("shift must lie in [1, |S|)")
        if len(names) < D_LOOKAHEAD:
            raise ValueError(f"need {D_LOOKAHEAD} block names, got {names!r}")
        text = self.sigma(first)[shift:] + self.sigma(names[: self.names_read(TYPE_D, shift)])
        roots, _ = squares.factor_minimal_squares(self.alphabet, text[:read])
        word, ends = "".join(roots), set(itertools.accumulate(2 * len(root) for root in roots))
        for kind, end in ((TYPE_B, n - shift), (TYPE_C, 2 * n - shift)):
            if end in ends:
                root = word[: end // 2]
                head = "S" if self.s_word.endswith(root) else "L"
                if not self.sigma(head).endswith(root):
                    raise AssertionError("the root of a block suffix is a block suffix")
                return kind, (head, n - len(root))
        j = self.conjugate_index(word[:n])
        if j is None:
            raise AssertionError(f"periodic image {word[:n]!r} is not a rotation of the block word")
        return TYPE_D, j

    def remainder_step(self, first: str, shift: int) -> tuple[str, tuple[str, int] | int]:
        """The square root step of the remainder ``(first, shift)``, proved
        not to depend on the block names after it: :meth:`sqrt_step` under
        every tail of the :data:`D_LOOKAHEAD` names it can read must come
        out the same, or this raises.  A step stands for every tail that
        starts with the names it read (:meth:`names_read`), so the kernel is
        walked once per names-read prefix: once for type B, twice for C and
        ``2^r`` times for a type D that reads ``r`` names.  Nothing is kept.

        Its one caller is :attr:`remainder_graph`, which takes it once per
        remainder and keeps the steps for the orbit engine (Table 1) and the
        preimage index.
        """
        steps: dict[str, tuple[str, tuple[str, int] | int]] = {}  # by the names each step read
        for names in _TAILS:
            if not any(names.startswith(read) for read in steps):
                step = self.sqrt_step(first, shift, names)
                steps[names[: self.names_read(step[0], shift)]] = step
        if len(set(steps.values())) != 1:
            raise AssertionError(f"the square root step of the remainder {(first, shift)!r} depends on the block names")
        return step

    @functools.cached_property
    def remainder_graph(self) -> tuple[str, array.array, bytes]:
        """The remainders' steps and depths, the one table of the aperiodic
        part, built whole on first read.

        Slot :func:`remainder_slot` ``(first, shift)`` holds the remainder's
        step type (``B``, ``C`` or ``D``), its successor (the root's slot
        after type B or C, the rotation index after type D) and its depth,
        the steps to ``S^omega`` or ``L^omega``, ending in the rotation's
        phase (:attr:`rotations`).  Each remainder has one successor, as
        :meth:`remainder_step` proves its step free of the names after it.
        A type D slot's depth is known at once; the others are filled in
        passes over the unknown slots, each fixing every slot whose root's
        depth is known, and a pass that fixes none leaves only slots whose
        roots stay among them, a cycle, and raises.  Returns the types as
        one string, the successors and the depths, ``|S|`` entries each.
        """
        steps = [self.remainder_step(*slot_remainder(slot)) for slot in range(self.block_len)]
        kinds = "".join(kind for kind, _ in steps)
        successors = array.array("i", [out if kind == TYPE_D else remainder_slot(*out) for kind, out in steps])
        # 1 + the rotation's phase after type D; 0 while unknown, as every depth is >= 1
        depths = bytearray(self.rotations[1][out] + 1 if kind == TYPE_D else 0 for kind, out in steps)
        while unknown := [slot for slot, depth in enumerate(depths) if not depth]:
            for slot in unknown:  # 1 + the root's depth, once it is known
                depths[slot] = (root := depths[successors[slot]]) and root + 1
            if not any(depths[slot] for slot in unknown):
                raise AssertionError("orbit cycled; contradicts the finite-time theorem")
        return kinds, successors, bytes(depths)

    # -- the square root of a product ------------------------------------------

    def sqrt_of_product(self, prod: SLProduct) -> tuple[InfiniteWord, str]:
        """Square root of a shifted product, with the type of its step: the
        one typed step of a product.

        This is :meth:`sqrt_step` written as views.  An unshifted product is
        type A; otherwise the step is the kernel's B, C or D.  Types A, B and
        C yield the root remainder (none for A) over every other block name
        from offset 0, 1 or 2 (the names the step consumes,
        :data:`CONSUMED`), a shifted product again, as the block pairs
        after the remainder halve (:attr:`pairs_halve`); type D yields
        ``T^j(S^omega)`` with the label :data:`PERIODIC`, the step's own
        claim, which no letter route re-checks.
        """
        kind, out = TYPE_A, ("", 0)
        if prod.shift:
            kind, out = self.sqrt_step(prod.blocks.letter(0), prod.shift, prod.blocks.window(1, 1 + D_LOOKAHEAD))
        if kind == TYPE_D:
            return self.omega_p_word(out), PERIODIC
        head, shift = out
        return streams.expand(self.product(streams.decimate(prod.blocks, CONSUMED[kind], head), shift)), kind

    # -- membership helpers ---------------------------------------------------

    def rotation_index(self, src: InfiniteWord) -> int | None:
        """The ``j`` with ``src == T^j(S^omega)``, or None; exact, from ``src.period()``.

        A word with period ``p`` from ``start`` has period ``|S|`` iff its first
        ``start + p + |S|`` letters do: past them, ``w[i] = w[i-p] = w[i-p+|S|]
        = w[i+|S|]`` by induction on ``i``."""
        known = src.period()
        if known is None:
            return None
        (start, p), n = known, self.block_len
        text = src.prefix(start + p + n)
        return self.conjugate_index(text[:n]) if text[n:] == text[:-n] else None


class _TauFixedPoint(InfiniteWord):
    """The tau^2 fixed point of ``body`` seeded ``seed``, read by m-adic
    valuation with no memo, by (b) of :func:`tau`.  Level ``v`` is the
    pattern ``seed body`` flipped ``v`` times: a window ``[a, b)`` takes
    level ``v`` at ``n / m^v mod m`` for every ``n`` that ``m^v`` divides,
    one strided slice per power ``m^v < b``, each power overwriting the
    multiples of the next, and the seed at 0."""

    def __init__(self, body: str, seed: str):
        super().__init__((), f"fix({seed}, {body})")
        level = seed + body
        # the rotations of the level patterns, by the parity of the level
        self._rotations = tuple([bytearray((word[r:] + word[:r]).encode()) for r in range(len(word))]
                                for word in (level, level.translate(FLIP)))

    def _window(self, a: int, b: int) -> str:
        m, rotations = len(self._rotations[0]), self._rotations
        out = rotations[0][a % m] * ((b - a) // m + 1)
        del out[b - a :]
        size, v = m, 1
        while size < b:
            skip = -a % size
            count = len(range(skip, b - a, size))
            names = rotations[v % 2][(a + skip) // size % m] * (count // m + 1)
            del names[count:]
            out[skip::size] = names
            size, v = size * m, v + 1
        if a == 0 < b:
            out[0] = rotations[0][0][0]  # the seed
        return out.decode()
