"""Solutions to the word equation ``X1^2 X2^2 ... Xn^2 == (X1 X2 ... Xn)^2``.

A word ``w`` solves the equation when it factors into minimal square roots
whose squares tile ``w^2``.  Because products of minimal squares are unique,
this holds exactly when ``w^2`` tokenizes completely and the roots of that
tokenization concatenate back to ``w``; a depth-first check over all root
factorizations of ``w`` is kept in the test suite as an independent oracle.

The doubling-orbit generator gives each orbit of ``i -> 2i mod n`` on
``Z_n``, ``n`` odd, one letter ``S`` or ``L``.  Positions ``1 .. n-1`` of
such an assignment are a body ``u`` of the package's one substitution
``x -> xbar u`` (:func:`~squareful.omega.tau`), of which the system's
``S^(2c)`` is one case.  Its periodic words ``sigma((xbar u)^omega)`` and
its two ``tau^2`` fixed points, read by m-adic valuation
(:func:`~squareful.omega.fixed_point`), are fixed by the square root map:
lemma parts (a), (b) and (d) hold for any body.  Part (c), the 2-letter
factors ``LS``, ``SL`` and ``SS``, and what rests on it (the covering texts
and the factor windows below) stay at ``S^(2c)``.
"""

from __future__ import annotations

import itertools
import re

from . import squares, streams, words
from .omega import OmegaSystem
from .squares import SquareAlphabet


class SolutionCertificate:
    __slots__ = ("word", "roots")

    def __init__(self, word: str, roots: tuple[str, ...]):
        self.word, self.roots = word, roots


def is_solution(alph: SquareAlphabet, w: str) -> SolutionCertificate | None:
    """Certificate that ``w`` solves the square word equation, or None.

    The tokenization of ``w^2`` is the unique factorization into minimal
    squares, so ``w`` is a solution iff it exists and its roots rebuild ``w``.
    """
    if not w:
        return None
    roots, failure = squares.factor_minimal_squares(alph, w + w)
    if failure is not None:
        return None
    if "".join(roots) != w:
        return None
    return SolutionCertificate(w, tuple(roots))


def harvest_square_factors(text: str, max_root_len: int) -> set[str]:
    """Distinct primitive-or-not roots ``u`` with ``u^2`` a factor of ``text``,
    one regex pass per root length ``half``: a lookahead that matches at
    every position where the next ``half`` letters repeat."""
    found: set[str] = set()
    for half in range(1, min(max_root_len, len(text) // 2) + 1):
        found.update(re.findall(f"(?=(.{{{half}}})\\1)", text, re.S))
    return found


def window_names(block_len: int, bmax: int) -> int:
    """Block names per factor window of :func:`enumerate_solutions`,
    ``ceil((2 bmax - 1) / |S|) + 1``; every square factor with a root of at
    most ``bmax`` letters lies in the letters of such a window."""
    return -(-(2 * bmax - 1) // block_len) + 1


def enumerate_solutions(sys: OmegaSystem, bmax: int) -> list[SolutionCertificate]:
    """All solution certificates among factors of the subshift with root
    length up to ``bmax``.

    The candidates are the roots ``u``, ``|u| <= bmax``, of the squares that
    are factors of the subshift.  A factor of at most ``2 bmax`` letters of
    the aperiodic part starts inside some block and ends at most ``|S| +
    2 bmax - 2`` letters after that block's start, so it lies in
    ``sigma(w)`` for a block-name factor ``w`` of ``ceil((2 bmax - 1) / |S|)
    + 1`` names, a slice of one of the three texts of
    :meth:`OmegaSystem.covering_texts`.  Each text is in the language, so
    ``sigma`` of each is harvested once.  The periodic part adds the squares
    of ``S^|w|``, as many copies of the block word as ``w`` has names: a
    factor of ``S^omega`` can be taken to start inside the first block.
    """
    names = window_names(sys.block_len, bmax)
    candidates = harvest_square_factors(sys.s_word * names, bmax)
    for text in sys.covering_texts(names):
        candidates |= harvest_square_factors(sys.sigma(text), bmax)
    out = []
    for u in sorted(candidates, key=lambda u: (len(u), u)):
        cert = is_solution(sys.alphabet, u)
        if cert is not None:
            out.append(cert)
    return out


class ConjugateAuditReport:
    __slots__ = ("word", "solution_conjugates")

    def __init__(self, word: str, solution_conjugates: list[str]):
        self.word, self.solution_conjugates = word, solution_conjugates

    @property
    def clean(self) -> bool:
        return not self.solution_conjugates


def conjugate_solution_audit(alph: SquareAlphabet, u: str) -> ConjugateAuditReport:
    """Run the solution check on every proper conjugate of a primitive solution.

    For a solution that is a product of the block words, no proper conjugate
    may be a solution, except that the block word's swapped companion shows up
    when auditing the block word itself.
    """
    if not words.is_primitive(u):
        raise ValueError("conjugate audit expects a primitive word")
    if is_solution(alph, u) is None:
        raise ValueError("conjugate audit expects a solution")
    hits = [v for v in words.conjugates(u) if v != u and is_solution(alph, v) is not None]
    return ConjugateAuditReport(u, hits)


# ---------------------------------------------------------------------------
# the doubling-orbit generator of new fixed points


class DoublingPattern:
    __slots__ = ("n", "orbits")

    def __init__(self, n: int, orbits: tuple[tuple[int, ...], ...]):
        self.n, self.orbits = n, orbits


def doubling_orbits(n: int) -> DoublingPattern:
    """Partition of ``Z_n`` into orbits of ``i -> 2i mod n`` (``n`` odd)."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be an odd positive integer")
    seen: set[int] = set()
    orbits = []
    for i in range(n):
        if i in seen:
            continue
        orbit = []
        j = i
        while j not in seen:
            seen.add(j)
            orbit.append(j)
            j = 2 * j % n
        orbits.append(tuple(sorted(orbit)))
    return DoublingPattern(n, tuple(orbits))


def pattern_to_substitution(pattern: DoublingPattern, assignment: dict[tuple[int, ...], str]) -> str:
    """The body ``u`` of the substitution ``x -> xbar u`` that an orbit
    assignment induces (:func:`~squareful.omega.tau`): positions ``1 ..
    n-1`` of the assignment word, so the images are ``tau(u, "S") = L u``
    and ``tau(u, "L") = S u``, with position 0 the free slot ``xbar``.

    The images have the doubling property ``w[i] = w[2i mod n]`` for ``0 <
    i < n`` by construction: an assignment gives each doubling orbit one
    letter, ``i`` and ``2i mod n`` lie in one orbit, and ``2i mod n`` is
    not 0 for odd ``n``.  So by (d) of :func:`~squareful.omega.tau` the
    ``tau^2`` fixed points of ``u`` satisfy ``x[2i] = x[i]``, and where the
    block pairs halve (:attr:`~squareful.omega.OmegaSystem.pairs_halve`)
    the square root map fixes ``sigma(x)``, which is ``sigma`` of every
    other name of ``x``.  An entry for the orbit ``(0,)`` is ignored.
    """
    letters = [""] * pattern.n  # position 0, the free slot, stays empty
    for orbit in pattern.orbits[1:]:  # orbits[0] is (0,)
        if orbit not in assignment:
            raise ValueError(f"assignment missing orbit {orbit}")
        for i in orbit:
            letters[i] = assignment[orbit]
    return "".join(letters)


def check_self_sqrt(sys: OmegaSystem, blockword: str) -> bool:
    """Whether the square root fixes ``sigma(blockword^omega)``, exactly.

    For odd ``n = |blockword|`` this decides exactly whether ``u[i] ==
    u[2i mod n]`` for every ``i``, ``u`` the block word, where the block
    pairs halve (:attr:`~squareful.omega.OmegaSystem.pairs_halve`): the root
    is ``sigma`` of the names ``u[2i mod n]``, and ``sigma`` is a code.
    This stream check is the independent route: the root has period ``p'``
    from ``start'`` and the word period ``q = |sigma(blockword)|``; by Fine
    and Wilf their first ``start' + p' + q`` letters decide.
    """
    if len(blockword) % 2 == 0:
        raise ValueError("block word must have odd length")
    word = sys.sigma(blockword)
    src = streams.periodic_word(word, f"sigma(({blockword})^w)")
    image = streams.sqrt_stream(sys.alphabet, src)
    start, p = image.period()
    depth = start + p + len(word)
    return image.prefix(depth) == src.prefix(depth)


def all_doubling_checks(sys: OmegaSystem, n: int) -> list[tuple[str, bool]]:
    """Fixed-point check for every orbit assignment of ``Z_n`` under
    doubling: the periodic words ``tau(u, "L") = S u``, then ``tau(u, "S") =
    L u``, of the bodies ``u`` of the free orbits
    (:func:`pattern_to_substitution`); at ``n = 1`` the body is empty and
    the words are ``S`` and ``L``."""
    pattern = doubling_orbits(n)
    bodies = [pattern_to_substitution(pattern, dict(zip(pattern.orbits[1:], bits)))
              for bits in itertools.product("SL", repeat=len(pattern.orbits) - 1)]
    return [(word, check_self_sqrt(sys, word)) for word in (x + u for x in "SL" for u in bodies)]
