import ast
import itertools
import pathlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from squareful import dynamics, equation, omega, squares, streams, words
from squareful.dynamics import AlignmentTower, OrbitEngine, fibonacci_system
from squareful.omega import PERIODIC, PLAIN, SWAPPED, OmegaParams, OmegaSystem, tau
from squareful.squares import in_pi, sqrt_finite, square_matcher
from squareful.streams import expand, periodic_word, shift, sl_cycle
from squareful.sturmian import RotationSystem

from conftest import GRID, grid_systems, indexed_word


@pytest.fixture(scope="module")
def sys():
    return OmegaSystem(OmegaParams())


def tau_power(c: int, blockword: str, j: int) -> str:
    """``tau^j(blockword)``, built with ``tau``."""
    for _ in range(j):
        blockword = tau("S" * (2 * c), blockword)
    return blockword


def fixed_point_prefixes(c: int, need: int) -> tuple[str, str]:
    """Prefixes of at least ``need`` names of Gamma1* and Gamma2*, built
    with ``tau``: tau maps each tau^2 fixed point to the other, and a prefix
    of ``ceil(need / m)`` names maps to a prefix of ``need``."""
    m, one, two = 2 * c + 1, "S", "L"
    while len(one) < need:
        one, two = tau("S" * (2 * c), two[: -(-need // m)]), tau("S" * (2 * c), one[: -(-need // m)])
    return one, two


def closure_pairs(c: int) -> set[str]:
    """The 2-letter factors of the tau language as a closure: those of
    ``tau(S)``, then those of ``tau(ab)`` for each factor ``ab`` found."""

    def pairs_of(blockword: str) -> set[str]:
        return {blockword[i : i + 2] for i in range(len(blockword) - 1)}

    pairs, new = set(), pairs_of(tau("S" * (2 * c), "S"))
    while new:
        pairs |= new
        new = {ab for xy in new for ab in pairs_of(tau("S" * (2 * c), xy))} - pairs
    return pairs


def fixed_point_window(body: str, seed: str, a: int, b: int) -> str:
    """Names ``[a, b)`` of the tau^2 fixed point of ``body`` seeded
    ``seed``, built with ``tau``: it is the tau image of the other fixed
    point, so the names are a slice of the image of that one's names ``[a //
    m, ceil(b / m))``."""
    if b <= 1:
        return seed[a:b]
    m = len(body) + 1
    lo = a // m
    other = fixed_point_window(body, "L" if seed == "S" else "S", lo, -(-b // m))
    return tau(body, other)[a - lo * m : b - lo * m]


def doubling_bodies(n: int) -> list[str]:
    """The body of every assignment of the free doubling orbits of ``Z_n``."""
    pattern = equation.doubling_orbits(n)
    free = pattern.orbits[1:]
    return [equation.pattern_to_substitution(pattern, dict(zip(free, bits)))
            for bits in itertools.product("SL", repeat=len(free))]


# every doubling body with n <= 21, and bodies without the doubling property,
# for which (b) of tau holds all the same
BODIES = [u for n in range(3, 22, 2) for u in doubling_bodies(n)] + [
    "LS", "SL", "SLLS", "LLSSLS", "SSSSSSSSSL", "LSLLSSSLSLLLSLSSLSLL"]

LEMMA_SYSTEMS = [OmegaParams(c=c, seed=seed) for c in range(1, 6) for seed in (PLAIN, SWAPPED)]


class TestTau:
    def test_basic_substitution(self):
        assert tau("SS", "S") == "LSS"
        assert tau("SS", "L") == "SSS"
        assert tau("SSSS", "SL") == "LSSSS" + "SSSSS"
        with pytest.raises(ValueError):
            tau("", "S")

    def test_doubling_body(self):
        assert tau("SSLSLL", "SL") == "LSSLSLL" + "SSSLSLL"

    @pytest.mark.parametrize("body", ["S", "SSS", "SX", "ss", "S L"])
    def test_body_is_a_nonempty_even_word_over_s_and_l(self, body):
        with pytest.raises(ValueError):
            tau(body, "S")
        with pytest.raises(ValueError):
            omega.fixed_point(body, "S")

    def test_fixed_point_seed_is_a_name(self):
        with pytest.raises(ValueError):
            omega.fixed_point("SS", "X")


class TestParams:
    def test_default_matches_worked_examples(self, sys):
        assert sys.s_word == "01010010"
        assert sys.l_word == "10010010"
        assert sys.block_len == 8
        assert sys.m == 3  # tau: S -> L S S, L -> S S S
        assert sys.s_word.count("1") == 3  # the slope is 3/8

    def test_block_word_must_be_longer_than_largest_root(self):
        with pytest.raises(ValueError):
            OmegaSystem(OmegaParams(k=2))  # |sbar_2| = 3 <= |S6| = 5
        OmegaSystem(OmegaParams(a=2, b=1, k=4))  # q_4 = 17 > 10

    def test_swapped_seed(self):
        swapped = OmegaSystem(OmegaParams(seed="swapped"))
        assert swapped.s_word == "10010010"
        assert swapped.l_word == "01010010"

    def test_validation(self):
        with pytest.raises(ValueError):
            OmegaParams(a=0)
        with pytest.raises(ValueError):
            OmegaParams(seed="other")


class TestGammaTower:
    def test_level_words(self, sys):
        assert sys.gamma(0) == sys.s_word
        assert sys.gamma_bar(0) == sys.l_word
        assert sys.gamma(1) == sys.l_word + sys.s_word * 2
        assert sys.gamma_bar(1) == sys.s_word * 3

    def test_lengths(self, sys):
        for j in range(6):
            assert len(sys.gamma(j)) == 3**j * 8
            assert len(sys.gamma_bar(j)) == 3**j * 8

    def test_pair_differs_in_first_two_letters(self, sys):
        for j in range(6):
            g, gb = sys.gamma(j), sys.gamma_bar(j)
            assert g == words.swap_first_two(gb)
            assert g[2:] == gb[2:]

    def test_alternation(self, sys):
        for j in range(6):
            assert sys.gamma(j + 1).startswith(sys.gamma_bar(j))
            assert sys.gamma_bar(j + 1).startswith(sys.gamma(j))

    def test_primitivity_structure(self, sys):
        # gamma_j is primitive at every level; its companion is a power of the
        # previous level's block for j >= 1 (so only the level-0 companion is)
        assert words.is_primitive(sys.gamma_bar(0))
        for j in range(4):
            assert words.is_primitive(sys.gamma(j))
        for j in range(1, 4):
            c = sys.params.c
            assert sys.gamma_bar(j) == sys.gamma(j - 1) * (2 * c + 1)
            assert not words.is_primitive(sys.gamma_bar(j))


class TestBigGamma:
    def test_limits(self, sys):
        g1, g2 = sys.big_gamma(1), sys.big_gamma(2)
        assert g1.prefix(len(sys.gamma(2))) == sys.gamma(2)
        assert g2.prefix(len(sys.gamma_bar(2))) == sys.gamma_bar(2)

    def test_differ_exactly_in_first_two_letters(self, sys):
        a = sys.big_gamma(1).prefix(2000)
        b = sys.big_gamma(2).prefix(2000)
        assert a[:2] == words.swap_first_two(b[:2])
        assert a[2:] == b[2:]

    def test_fixed_under_sqrt(self, sys):
        out = streams.sqrt_stream(sys.alphabet, sys.big_gamma(1))
        assert out.prefix(10_000) == sys.big_gamma(1).prefix(10_000)

    def test_words_are_optimal_squareful(self, sys):
        # every position of the window begins with one of the six squares
        match = square_matcher(sys.alphabet)
        for src, length in ((sys.big_gamma(1), 2000), (shift(sys.big_gamma(1), 5), 1000)):
            text = src.prefix(length + sys.alphabet.max_square_len)
            assert all(match(text, i) for i in range(length))


class TestGammaStar:
    @pytest.mark.parametrize("c, jmax", [(1, 5), (2, 3), (3, 2)])
    def test_prefixes_are_tau_squared_levels(self, c, jmax):
        sys = OmegaSystem(OmegaParams(c=c))
        m2 = (2 * c + 1) ** 2
        for which in (1, 2):
            star = sys.gamma_star(which)
            for j in range(jmax + 1):
                level = sys.tau_block(2 * j) if which == 1 else tau_power(c, "L", 2 * j)
                assert star.prefix(m2**j) == level

    @pytest.mark.parametrize("c, j", [(1, 7), (2, 5), (3, 4)])
    def test_windows_are_slices_of_a_tau_squared_level(self, c, j):
        # random windows up to m^(2j) >= 3^14 names, each read by one query
        sys = OmegaSystem(OmegaParams(c=c))
        m = 2 * c + 1
        rng = random.Random(c)
        for which in (1, 2):
            star = sys.gamma_star(which)
            level = sys.tau_block(2 * j) if which == 1 else tau_power(c, "L", 2 * j)
            for _ in range(200):
                a = rng.randrange(m ** (2 * j))
                b = min(m ** (2 * j), a + rng.choice((0, 1, 2, m, m**2 + 1, 10**3, 10**5)))
                assert star.window(a, b) == level[a:b]

    @pytest.mark.parametrize("c", range(1, 6))
    def test_windows_match_the_tau_tower_up_to_3_14(self, c):
        # 100 random windows per fixed point and c, 1,000 in all, against
        # prefixes built with tau
        sys, rng = OmegaSystem(OmegaParams(c=c)), random.Random(25 + c)
        m = 2 * c + 1
        prefixes = fixed_point_prefixes(c, 3**14 + 10**5)
        for which, prefix in zip((1, 2), prefixes):
            star = sys.gamma_star(which)
            for _ in range(100):
                a = rng.randrange(3**14)
                b = a + rng.choice((0, 1, 2, m, m**2 + 1, 10**3, 10**5))
                assert star.window(a, b) == prefix[a:b], (c, which, a, b)

    def test_windows_of_every_body_match_tau_squared(self):
        # windows at offsets up to m^6 and of up to 10^4 names of both fixed
        # points of every body, 2,128 in all, against windows built with tau
        rng, reads = random.Random(27), 0
        for body in BODIES:
            m = len(body) + 1
            for seed in "SL":
                star = omega.fixed_point(body, seed)
                for a in (0, 1, *(rng.randrange(m**6) for _ in range(12))):
                    b = a + rng.choice((0, 1, 2, m, m * m + 1, 10**3, 10**4))
                    assert star.window(a, b) == fixed_point_window(body, seed, a, b), (body, seed, a, b)
                    reads += 1
        assert reads == 2128

    def test_reads_build_no_tau_block(self, monkeypatch):
        # Gamma* windows, Gamma1 letters, the fixed points of every body and
        # every tau block reader (the blocks, gamma, gamma_bar, the covering
        # texts and factors, the preimage index and a depth-10 chain) come
        # from the valuation rule, with tau patched to raise; what they must
        # give is built with tau first
        ones, twos = fixed_point_prefixes(1, 3**14 + 1000)
        probe = OmegaSystem(OmegaParams())
        letters = probe.sigma(ones[: 10**5 // probe.block_len + 1])[: 10**5]
        offsets = random.Random(26)
        windows = [(body, seed, a, fixed_point_window(body, seed, a, a + 1000))
                   for body in BODIES for seed in "SL"
                   for a in (0, offsets.randrange((len(body) + 1) ** 6))]
        blocks = [(tau_power(1, "S", j), tau_power(1, "L", j)) for j in range(10)]
        texts = {length: [(blocks[j][a == "L"] + blocks[j][b == "L"])[: 3**j + length - 1]
                          for a, b in ("LS", "SL", "SS")]
                 for length in (1, 2, 3, 10, 28, 100, 250)
                 for j in [omega.covering_level(3, length)]}

        def hits(index):
            return {key: [(hit.shift, hit.window) for hit in bucket.values()]
                    for key, bucket in index.table.items()}

        table = hits(dynamics.PreimageIndex(probe))

        def refuse(*args, **kwargs):
            raise AssertionError("a fixed point read built a tau block")

        monkeypatch.setattr(omega, "tau", refuse)
        sys, rng = OmegaSystem(OmegaParams()), random.Random(3)
        for which, prefix in ((1, ones), (2, twos)):
            star = sys.gamma_star(which)
            for a in (0, 1, 3**14 - 1000, *(rng.randrange(3**14) for _ in range(50))):
                assert star.window(a, a + 1000) == prefix[a : a + 1000]
        assert sys.big_gamma(1).prefix(10**5) == letters
        for body, seed, a, expected in windows:
            assert omega.fixed_point(body, seed).window(a, a + 1000) == expected, (body, seed, a)
        for j, (s_block, l_block) in enumerate(blocks):
            assert sys.tau_block(j) == s_block, j
            assert sys.gamma(j) == sys.sigma(s_block) and sys.gamma_bar(j) == sys.sigma(l_block), j
        for length, expected in texts.items():
            assert sys.covering_texts(length) == expected, length
            assert sys.factors(length) == sorted({text[i : i + length] for text in expected
                                                  for i in range(len(text) - length + 1)}), length
        assert hits(dynamics.PreimageIndex(sys)) == table
        t, pos, links = 5, 0, []
        for _ in range(10):  # the link levels and prefixes by 3-adic arithmetic
            k = next(k for k in itertools.count() if (pos + t) % 3 ** (k + 1))
            pos += (-t - pos) % 3 ** (k + 1)
            links.append((k, pos * sys.block_len))
        chain = dynamics.preimage_chain(sys, shift(sys.gamma_star(1), t), depth=10)
        assert chain.status == "ok" and all(link.verified for link in chain.links)
        assert [(link.level, link.prefix_len) for link in chain.links] == links

    def test_window_sweep_keeps_no_names(self):
        sys = OmegaSystem(OmegaParams())
        star = sys.gamma_star(1)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(0, 12_000_000, 65536):
                assert len(star.window(i, i + 65536)) == 65536
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert star.max_queried == 12_058_624
        assert kept < 2**20, kept

    def test_interleaved_queries_agree_with_the_prefix(self):
        full = OmegaSystem(OmegaParams()).gamma_star(1).prefix(200_000)
        star = OmegaSystem(OmegaParams()).gamma_star(1)
        rng = random.Random(4)
        for _ in range(300):
            lo = rng.randrange(len(full))
            hi = min(len(full), lo + rng.randrange(1, 5000))
            kind = rng.choice(("window", "prefix", "letter"))
            if kind == "window":
                assert star.window(lo, hi) == full[lo:hi]
            elif kind == "prefix":
                assert star.prefix(hi) == full[:hi]
            else:
                assert star.letter(lo) == full[lo]
        assert star.prefix(len(full)) == full

    def test_prefix_memory(self):
        sys = OmegaSystem(OmegaParams())
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert len(sys.gamma_star(1).prefix(10**6)) == 10**6
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSubstitutionLemma:
    """The consequences of ``tau(x) = xbar S^(2c)`` against the routes they
    replaced, built with ``tau``."""

    @pytest.mark.parametrize("params", LEMMA_SYSTEMS)
    def test_l_blocks_differ_from_s_blocks_in_name_zero(self, params):
        # tau^j(S) and tau^j(L), read as fixed-point windows (tau_block and
        # tau_source), against tau iterated, for every j with (2c + 1)^j <= 3^13
        sys, body = OmegaSystem(params), "S" * (2 * params.c)
        s_block, l_block, j = "S", "L", 0
        while len(s_block) <= 3**13:
            assert s_block[1:] == l_block[1:] and s_block[0] != l_block[0]
            assert sys.tau_block(j) == s_block, (params, j)
            assert sys.tau_source(j, "L").prefix(len(l_block)) == l_block, (params, j)
            if j < 5:
                assert sys.gamma_bar(j) == sys.sigma(l_block)
            s_block, l_block, j = tau(body, s_block), tau(body, l_block), j + 1
        assert j == {1: 14, 2: 9, 3: 8, 4: 7, 5: 6}[params.c]

    @pytest.mark.parametrize("params", LEMMA_SYSTEMS)
    def test_covering_texts_use_the_closure_pairs(self, params):
        sys, c = OmegaSystem(params), params.c
        pairs = closure_pairs(c)
        assert pairs == {"LS", "SL", "SS"}
        for length in [*range(1, 61), 100, 250]:
            # tau^j(L) is tau^j(S) with name 0 flipped, by (a)
            top = tau_power(c, "S", omega.covering_level(sys.m, length))
            blocks = {"S": top, "L": top[0].translate(omega.FLIP) + top[1:]}
            texts = [(blocks[a] + blocks[b])[: len(top) + length - 1] for a, b in sorted(pairs)]
            assert sys.covering_texts(length) == texts, (params, length)

    @pytest.mark.parametrize("c", range(1, 6))
    def test_fixed_points_are_fixed_by_decimation(self, c):
        # the identity tau(a)[2r % m] == tau(b)[r], 0 < r < m, which gives
        # Gamma*[2i] = Gamma*[i] by induction on i, and that equality itself
        m, images = 2 * c + 1, (tau("S" * (2 * c), "S"), tau("S" * (2 * c), "L"))
        assert all(a[2 * r % m] == b[r] for a in images for b in images for r in range(1, m))
        sys = OmegaSystem(OmegaParams(c=c))
        for which, prefix in zip((1, 2), fixed_point_prefixes(c, 2 * 10**4)):
            assert prefix[: 2 * 10**4 : 2] == prefix[: 10**4]
            assert sys.gamma_star(which).prefix(2 * 10**4)[::2] == prefix[: 10**4]


class TestFactors:
    @pytest.mark.parametrize("params", [
        OmegaParams(), OmegaParams(seed=SWAPPED), OmegaParams(a=2, b=1, c=2, k=5),
        OmegaParams(c=2, seed=SWAPPED), OmegaParams(a=1, b=2, c=3, k=6),
        OmegaParams(a=3, c=3, seed=SWAPPED),
    ])
    def test_equal_a_long_prefix_scan(self, params):
        sys = OmegaSystem(params)
        corpus = sys.gamma_star(1).prefix(60_000)
        for length in range(1, 41):
            scan = {corpus[i : i + length] for i in range(len(corpus) - length + 1)}
            assert sys.factors(length) == sorted(scan), (params, length)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_covering_level_is_the_least_covering_tau_power(self, c):
        # the least j with min(|tau^j(S)|, |tau^j(L)|) >= length - 1, built
        levels = [["S", "L"]]
        while min(map(len, levels[-1])) < 299:
            levels.append([tau("S" * (2 * c), w) for w in levels[-1]])
        for length in range(1, 301):
            j = next(j for j, level in enumerate(levels) if min(map(len, level)) >= length - 1)
            assert omega.covering_level(2 * c + 1, length) == j, (c, length)


class TestCrucialProperties:
    @pytest.mark.parametrize("c", [1, 2])
    def test_pair_roots(self, c):
        sys = OmegaSystem(OmegaParams(c=c))
        for j in range(4):  # the acceptance suite goes to 6
            g, gb = sys.gamma(j), sys.gamma_bar(j)
            assert sqrt_finite(sys.alphabet, g + g) == g
            assert sqrt_finite(sys.alphabet, g + gb) == g
            assert sqrt_finite(sys.alphabet, gb + g) == gb
            assert sqrt_finite(sys.alphabet, gb + gb) == gb


class TestClassification:
    def test_types(self, sys):
        assert sys.sqrt_of_product(sl_cycle("S", sys.s_word, sys.l_word, 0))[1] == "A"
        assert sys.sqrt_of_product(sl_cycle("S", sys.s_word, sys.l_word, 4))[1] == "C"
        # 010 . S^w is type D: neither 010 nor 010 + block is a square product
        assert sys.sqrt_of_product(sl_cycle("S", sys.s_word, sys.l_word, 5))[1] == PERIODIC

    def test_type_b(self, sys):
        # shift 6 leaves the remainder 10, which is not a square product;
        # find a shift whose remainder is: shift 4 of L-first gives 0010;
        # use the classic suffix 0101 wait -- enumerate and cross-check instead
        n = sys.block_len
        for first in "SL":
            word0 = sys.s_word if first == "S" else sys.l_word
            for ell in range(1, n):
                blocks = indexed_word(
                    lambda i, f=first: f if i == 0 else "S", "w"
                )
                prod = streams.SLProduct(blocks, ell, sys.s_word, sys.l_word)
                _, kind = sys.sqrt_of_product(prod)
                y = word0[ell:]
                expected = (
                    "B" if in_pi(sys.alphabet, y)
                    else "C" if in_pi(sys.alphabet, y + sys.s_word)
                    else PERIODIC
                )
                assert kind == expected

    def test_exclusivity_b_and_c(self, sys):
        # a square-product remainder never extends by one block to another
        n = sys.block_len
        for block in (sys.s_word, sys.l_word):
            for nxt in (sys.s_word, sys.l_word):
                for ell in range(1, n):
                    y = block[ell:]
                    assert not (in_pi(sys.alphabet, y) and in_pi(sys.alphabet, y + nxt))

    def test_odd_shift_never_in_pi(self, sys):
        for x in (sys.s_word, sys.l_word):
            for y in (sys.s_word, sys.l_word):
                for ell in range(1, sys.block_len, 2):
                    assert not in_pi(sys.alphabet, (x + y)[ell:])


class TestSqrtOfProduct:
    def test_type_a_decimates_blocks(self, sys):
        prod = sl_cycle("SLSS", sys.s_word, sys.l_word, 0)
        out, outcome = sys.sqrt_of_product(prod)
        assert outcome == "A"
        # pairs (S L)(S S)(S L)... -> S S S L ... (every second block)
        direct = streams.sqrt_stream(sys.alphabet, expand(sl_cycle("SLSS", sys.s_word, sys.l_word, 0)))
        assert out.prefix(600) == direct.prefix(600)

    def test_section3_reaches_s_omega_in_three(self, sys):
        prod = sl_cycle("S", sys.s_word, sys.l_word, 4)
        word, kinds = expand(prod), []
        for _ in range(3):
            word, outcome = sys.sqrt_of_product(word.product)
            kinds.append(outcome)
        assert kinds == ["C", "B", "periodic"]
        assert word.prefix(24) == sys.s_word * 3

    def test_shifted_roots_read_few_windows(self, monkeypatch):
        # the decimated block names are read one strided window per request,
        # not one window per block (10,053 calls for 80,000 letters before)
        calls = []
        window = streams.InfiniteWord.window
        monkeypatch.setattr(streams.InfiniteWord, "window",
                            lambda self, a, b: calls.append(1) or window(self, a, b))
        for shift_letters, kind in ((0, "A"), (2, "B"), (4, "C"), (6, "C")):
            sys = OmegaSystem(OmegaParams())
            prod = sys.product(sys.gamma_star(1), shift_letters)
            calls.clear()
            root, outcome = sys.sqrt_of_product(prod)
            text = root.prefix(80_000)
            assert outcome == kind and len(calls) <= 1000
            direct = streams.sqrt_stream(sys.alphabet, expand(prod)).prefix(80_000)
            assert text == direct

    def test_periodic_part_closed(self, sys):
        for j in range(sys.block_len):
            src = sys.omega_p_word(j)
            out = streams.sqrt_stream(sys.alphabet, src)
            assert sys.rotation_index(out) is not None


SQRT_STEP_SYSTEMS = [OmegaParams(1, 0, 1, 4), OmegaParams(2, 1, 1, 4), OmegaParams(1, 0, 2, 4),
                     OmegaParams(1, 0, 1, 6)]
# every fifth system of the grid from the third: 22 systems, none of them in
# SQRT_STEP_SYSTEMS
GRID_SAMPLE = GRID[2::5]


class TestSqrtStepAgainstLetters:
    """The block-level square root step against the letter-level tokenizer,
    on seeded starts: shift, first block and an S/L tail."""

    @staticmethod
    def starts(sys, count=30):
        rng = random.Random(sys.block_len)
        for _ in range(count):
            names = "".join(rng.choice("SL") for _ in range(1024))
            yield rng.randrange(1, sys.block_len), names

    @pytest.mark.parametrize("abck", SQRT_STEP_SYSTEMS)
    def test_type_matches_in_pi_on_prefixes(self, abck):
        sys = OmegaSystem(abck)
        n = sys.block_len
        for shift, names in self.starts(sys):
            kind, _ = sys.sqrt_step(names[0], shift, names[1:])
            text = expand(streams.SLProduct(periodic_word(names), shift, sys.s_word, sys.l_word)).prefix(2 * n)
            want = ("B" if in_pi(sys.alphabet, text[: n - shift])
                    else "C" if in_pi(sys.alphabet, text[: 2 * n - shift]) else "D")
            assert kind == want

    @pytest.mark.parametrize("abck", SQRT_STEP_SYSTEMS + GRID_SAMPLE)
    def test_structural_iterates_match_raw_stream(self, abck):
        # the oracle of every structural iterate, a type D image included:
        # no code of the package re-checks one on letters; each step's type
        # is checked on the letters of its word, as in_pi on the remainder
        # and on the remainder and the next block
        sys = OmegaSystem(abck)
        engine = OrbitEngine(sys)
        successors, phases, _ = sys.rotations
        n = sys.block_len
        for shift, names in self.starts(sys, 10):
            steps = engine.steps_to_fixed(shift, names[0], lambda i: names[i % len(names)])
            word = raw = expand(streams.SLProduct(periodic_word(names), shift, sys.s_word, sys.l_word))
            rotation = None
            for _ in range(steps):
                raw = streams.sqrt_stream(sys.alphabet, raw)
                if rotation is None:
                    cut, text = word.product.shift, word.prefix(2 * n)
                    want = ("A" if cut == 0 else "B" if in_pi(sys.alphabet, text[: n - cut])
                            else "C" if in_pi(sys.alphabet, text[: 2 * n - cut]) else PERIODIC)
                    word, outcome = sys.sqrt_of_product(word.product)
                    assert outcome == want
                    if outcome == PERIODIC:
                        rotation = sys.conjugate_index(word.prefix(n))
                else:
                    rotation = successors[rotation]
                    word = sys.omega_p_word(rotation)
                assert word.prefix(3 * n) == raw.prefix(3 * n)
            assert rotation in (0, sys.conjugate_index(sys.l_word)) and phases[rotation] == 0


class TestBlockCoordinates:
    # the 48 systems of the grid with b <= 1 and k in (4, 6)
    grid = [params for params in GRID if params.b <= 1 and params.k in (4, 6)]

    def test_roots_of_block_suffixes_are_block_suffixes(self):
        # for every remainder (first, shift) and next block, the B/C root
        # coordinates from sqrt_step spell the root of the letters
        kinds = set()
        for params in self.grid:
            sys = OmegaSystem(params)
            for first, nxt, cut in itertools.product("SL", "SL", range(1, sys.block_len)):
                kind, out = sys.sqrt_step(first, cut, nxt * 4)
                kinds.add(kind)
                if kind != "D":
                    y = sys.sigma(first)[cut:] + (sys.sigma(nxt) if kind == "C" else "")
                    assert sys.sigma(out[0])[out[1] :] == sqrt_finite(sys.alphabet, y), params
        assert kinds == {"B", "C", "D"}

    def test_rotation_successors_match_letters(self):
        # the cell map's successor of rotation j is the rotation that the raw
        # lazy tokenizer reads off the letters of the square root
        kinds = []
        for params in self.grid:
            sys = OmegaSystem(params)
            successors, _, _ = sys.rotations
            n = sys.block_len
            for j in range(n):
                root = streams.sqrt_stream(sys.alphabet, sys.omega_p_word(j)).prefix(n)
                assert successors[j] == sys.conjugate_index(root), (params, j)
                kinds.append(sys.sqrt_step("S", j, "SSSS")[0] if j else "A")
        assert len(kinds) == 1212 and {"B", "C", "D"} <= set(kinds)


class TestOneStepKernel:
    def test_sqrt_step_is_the_only_tokenizing_site(self):
        tree = ast.parse(pathlib.Path(omega.__file__).read_text())
        sites = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", getattr(node.func, "id", None)) == "factor_minimal_squares"]
        assert sites == ["sqrt_step"]
        names = {getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
                 for node in ast.walk(tree)}
        assert not names & {"_block_root", "periodic_image", "_block_roots", "_periodic_images"}

    @staticmethod
    def count_walks(monkeypatch, build):
        """The tokenizer walks that ``build()`` takes."""
        calls, tokenize = [], squares.factor_minimal_squares

        def counted(alph, w):
            calls.append(len(w))
            return tokenize(alph, w)

        monkeypatch.setattr(squares, "factor_minimal_squares", counted)
        build()
        return len(calls)

    @pytest.mark.parametrize("s_len, walks", [(89, 270), (377, 1062)])
    def test_walk_count_is_pinned(self, monkeypatch, s_len, walks):
        # one walk per remainder and names-read prefix, on a fresh system
        assert self.count_walks(monkeypatch, lambda: OrbitEngine(fibonacci_system(s_len)).steps_supremum()) == walks

    @pytest.mark.parametrize("params, walks", [(OmegaParams(), 53 + 4), (OmegaParams(3, 2, 1, 6), 285 + 4)])
    def test_index_walk_count_is_pinned(self, monkeypatch, params, walks):
        # one walk per remainder and names-read prefix, over every remainder
        # of the system, and four for the block pairs that pairs_halve checks
        assert self.count_walks(monkeypatch, lambda: dynamics.PreimageIndex(OmegaSystem(params))) == walks

    @pytest.mark.parametrize("params, walks", [(OmegaParams(), 53 + 4), (OmegaParams(3, 2, 1, 6), 285 + 4)])
    @pytest.mark.parametrize("index_first", [True, False])
    def test_one_graph_serves_the_engine_and_the_index(self, monkeypatch, params, walks, index_first):
        # a Table 1 row and an index build on one system share one graph:
        # one walk set per remainder, and pairs_halve's four
        sys = OmegaSystem(params)
        builds = [lambda: dynamics.PreimageIndex(sys),
                  lambda: (OrbitEngine(sys).start(), OrbitEngine(sys).steps_supremum())]
        order = builds if index_first else builds[::-1]
        assert self.count_walks(monkeypatch, lambda: [build() for build in order]) == walks

    def test_remainder_step_ignores_the_tail_on_the_grid(self):
        # every remainder of every grid system: its step is proved name-free,
        # and it is the kernel's step under each of the 16 four-name tails; a
        # shift >= 2 reads no name of the first block, so the index takes one
        # step for the remainders (S, shift) and (L, shift)
        tails = ["".join(p) for p in itertools.product("LS", repeat=4)]
        for sys in grid_systems():
            for first, shift_letters in [("L", 1)] + [("S", j) for j in range(1, sys.block_len)]:
                step = sys.remainder_step(first, shift_letters)
                assert all(sys.sqrt_step(first, shift_letters, names) == step for names in tails), \
                    (sys.params, first, shift_letters)
                if shift_letters > 1:
                    assert sys.sqrt_step("L", shift_letters, tails[0]) == step, (sys.params, shift_letters)

    def test_step_keeps_nothing(self):
        # every shift of a fresh |S| = 233 system under each of the 16
        # four-name tails: 3,712 walks, and nothing keeps any of them (a memo
        # of the steps keeps 43 KB here)
        sys = fibonacci_system(233)
        tails = ["".join(p) for p in itertools.product("LS", repeat=4)]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for shift_letters, names in itertools.product(range(1, 233), tails):
                sys.sqrt_step("S", shift_letters, names)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert kept < 16 * 2**10, kept


class TestSynchronization:
    # the level-j factorization grids of a block product, found by the
    # alignment tower on block names; start(j) counts level-0 blocks
    def test_gamma_fixed_points_aligned(self, sys):
        for which in (1, 2):
            tower = AlignmentTower(sys, sys.gamma_star(which), 100_000)
            assert [tower.start(j) for j in range(3)] == [0, 0, 0]

    def test_block_shift_breaks_level_one(self, sys):
        tower = AlignmentTower(sys, shift(sys.gamma_star(1), 1), 100_000)
        assert (tower.start(0), tower.start(1)) == (0, 2)

    def test_invariant_subset_index(self, sys):
        # a shift by 3^v blocks is aligned exactly up to level v
        for v in range(4):
            tower = AlignmentTower(sys, shift(sys.gamma_star(1), 3**v), 100_000)
            assert [tower.start(j) == 0 for j in range(v + 2)] == [True] * (v + 1) + [False]


class TestInvariantSubsetCharacterization:
    def test_a_k_prefixes(self):
        # membership in the next level coincides with one of three prefixes,
        # for aperiodic product words
        for a, b, c in ((1, 0, 1), (2, 1, 1), (1, 0, 2)):
            sys = OmegaSystem(OmegaParams(a=a, b=b, c=c))
            pats = ["S" + "S" * (2 * c) + "L", "L" + "S" * (2 * c) + "L", "L" + "S" * (2 * c) + "S"]
            star = sys.gamma_star(1)
            for t in range(200):
                names = shift(star, t).prefix(2 * c + 2)
                in_next = AlignmentTower(sys, shift(star, t), 100_000).start(1) == 0
                assert in_next == any(names.startswith(p) for p in pats), (a, b, c, t)


class TestOmegaP:
    def test_l_omega_is_a_shift_of_s_omega(self, sys):
        j = sys.conjugate_index(sys.l_word)
        assert j is not None
        assert sys.omega_p_word(j).prefix(64) == sys.l_omega().prefix(64)

    @pytest.mark.parametrize("params", [
        OmegaParams(k=4), OmegaParams(k=9), OmegaParams(k=14),  # |S| = 8, 89, 987
        OmegaParams(a=2, b=1, k=6), OmegaParams(a=3, b=0, k=5, seed=SWAPPED),
    ])
    def test_conjugate_index_matches_the_rotations(self, params):
        sys = OmegaSystem(params)
        s = sys.s_word
        for j, rot in enumerate(words.conjugates(s)):
            assert sys.conjugate_index(rot) == j
        assert sys.conjugate_index(s[:-1]) is None
        assert sys.conjugate_index(s + s[0]) is None
        assert sys.conjugate_index("") is None
        assert sys.conjugate_index("0" * len(s)) is None
        # adjacent transpositions keep the length and the letter counts
        rotations = set(words.conjugates(s))
        moved = {s[:i] + s[i + 1] + s[i] + s[i + 2 :] for i in range(len(s) - 1)} - rotations
        assert moved
        assert all(sys.conjugate_index(u) is None for u in moved)

    def test_large_system_builds_in_linear_memory(self):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            engine = OrbitEngine(fibonacci_system(121_393))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert engine.n == 121_393 and engine.sys.conjugate_index(engine.sys.l_word) is not None
        assert peak < 4 * 2**20, peak

    def test_codings_are_exactly_the_rotations(self, sys):
        q = sys.block_len
        rot = RotationSystem(Fraction(sys.s_word.count("1"), q))
        seen = set()
        for c in range(q):
            word = rot.coding(Fraction(c, q), q)
            assert word in words.conjugates(sys.s_word)
            seen.add(word)
        assert len(seen) == q

    def test_match_windows(self, sys):
        assert sys.rotation_index(sys.big_gamma(1)) is None
        for j in (0, 3, 5):
            assert sys.rotation_index(sys.omega_p_word(j)) == j
        # (S^12 L)^w agrees with S^w on twelve blocks but has no period |S|
        assert sys.rotation_index(expand(sl_cycle("S" * 12 + "L", sys.s_word, sys.l_word))) is None
        assert sys.rotation_index(expand(sl_cycle("SS", sys.s_word, sys.l_word, 3))) == 3


class TestSigmaCommutation:
    def test_on_factor_windows(self, sys):
        star_text = sys.gamma_star(1).prefix(200)
        for i in range(0, 40):
            names = star_text[i : i + 6]
            blockwise = sys.sigma(names[0::2][:3])
            assert sqrt_finite(sys.alphabet, sys.sigma(names)) == blockwise
