"""Solutions to the word equation ``X1^2 X2^2 ... Xn^2 == (X1 X2 ... Xn)^2``.

A word ``w`` solves the equation when it factors into minimal square roots
whose squares tile ``w^2``.  Because products of minimal squares are unique,
this holds exactly when ``w^2`` tokenizes completely and the roots of that
tokenization concatenate back to ``w``; a depth-first check over all root
factorizations of ``w`` is kept in the test suite as an independent oracle.
"""

from __future__ import annotations

import itertools

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
    """Distinct primitive-or-not roots ``u`` with ``u^2`` a factor of ``text``."""
    found: set[str] = set()
    for half in range(1, max_root_len + 1):
        step = 2 * half
        for i in range(len(text) - step + 1):
            if text[i : i + half] == text[i + half : i + step]:
                found.add(text[i : i + half])
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

    def assignment_to_word(self, assignment: dict[tuple[int, ...], str]) -> str:
        letters = [""] * self.n
        for orbit in self.orbits:
            letter = assignment[orbit]
            for i in orbit:
                letters[i] = letter
        return "".join(letters)


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


def pattern_to_substitution(
    pattern: DoublingPattern, assignment: dict[tuple[int, ...], str]
) -> tuple[str, str]:
    """The pair of block images induced by an orbit assignment.

    Positions ``1 .. n-1`` follow the assignment; position 0 is the free slot
    and is set to ``L`` in the image of ``S`` and to ``S`` in the image of
    ``L`` (matching the basic substitution ``S -> L S S``, ``L -> S S S``).
    """
    fixed = {orb: letter for orb, letter in assignment.items() if orb != (0,)}
    for orb in pattern.orbits:
        if orb != (0,) and orb not in fixed:
            raise ValueError(f"assignment missing orbit {orb}")
    body = pattern.assignment_to_word({**fixed, (0,): "?"})
    s_image = "L" + body[1:]
    l_image = "S" + body[1:]
    for u in (s_image, l_image):
        for i in range(1, pattern.n):
            if u[i] != u[2 * i % pattern.n]:
                raise AssertionError("induced image violates the doubling property")
    return s_image, l_image


def check_self_sqrt(sys: OmegaSystem, blockword: str) -> bool:
    """Whether the square root fixes ``sigma(blockword^omega)``, exactly.

    ``blockword`` must have odd length and satisfy ``u[i] == u[2i mod n]``
    for ``i >= 1``.  The root has period ``p'`` from ``start'`` and the word
    period ``q = |sigma(blockword)|``; by Fine and Wilf their first ``start' +
    p' + q`` letters decide.
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
    """Fixed-point check for every orbit assignment of ``Z_n`` under doubling."""
    pattern = doubling_orbits(n)
    free_orbits = [orb for orb in pattern.orbits if orb != (0,)]
    results = []
    for bits in itertools.product("SL", repeat=len(free_orbits) + 1):
        assignment = {orb: bits[i + 1] for i, orb in enumerate(free_orbits)}
        assignment[(0,)] = bits[0]
        word = pattern.assignment_to_word(assignment)
        results.append((word, check_self_sqrt(sys, word)))
    return results
