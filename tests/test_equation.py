import pytest
from hypothesis import given, settings, strategies as st

from squareful import equation, words
from squareful.omega import SWAPPED, OmegaParams, OmegaSystem, tau
from squareful.squares import build_alphabet, factor_minimal_squares
from squareful.sturmian import reversed_standard_word

from conftest import grid_systems

ALPH = build_alphabet(1, 0)
SBAR = "1001001010010"


def dfs_is_solution(alph, w):
    """Independent oracle: search all factorizations of w into roots and test
    the equation against the unique square tokenization of w^2."""
    square_roots, failure = factor_minimal_squares(alph, w + w)
    if failure is not None:
        return False
    target = tuple(square_roots)

    def expand(pos, acc):
        if pos == len(w):
            return tuple(acc) == target
        for root in alph.roots:
            if w.startswith(root, pos):
                acc.append(root)
                if expand(pos + len(root), acc):
                    return True
                acc.pop()
        return False

    return expand(0, [])


def window_harvest(text, max_root_len):
    """The roots ``u`` of the squares ``uu`` in ``text``, one window
    comparison per position and root length: the oracle for
    :func:`equation.harvest_square_factors`."""
    return {text[i : i + half] for half in range(1, max_root_len + 1)
            for i in range(len(text) - 2 * half + 1) if text[i : i + half] == text[i + half : i + 2 * half]}


class TestHarvest:
    @settings(max_examples=500, deadline=None)
    @given(st.text("01", max_size=120), st.integers(0, 70))
    def test_regex_passes_equal_the_window_scan(self, text, max_root_len):
        assert equation.harvest_square_factors(text, max_root_len) == window_harvest(text, max_root_len)

    @pytest.mark.parametrize("abck", [(1, 0, 1, 4), (2, 1, 1, 4), (1, 0, 2, 4)])
    def test_covering_texts_equal_the_window_scan(self, abck):
        sys = OmegaSystem(OmegaParams(*abck))
        for bmax in (16, 64):
            names = equation.window_names(sys.block_len, bmax)
            for text in [sys.s_word * names, *map(sys.sigma, sys.covering_texts(names))]:
                assert equation.harvest_square_factors(text, bmax) == window_harvest(text, bmax)


class TestIsSolution:
    def test_examples(self):
        cert = equation.is_solution(ALPH, "01010")
        assert cert is not None and cert.roots == ("01", "0", "10")
        assert equation.is_solution(ALPH, SBAR) is not None
        assert equation.is_solution(ALPH, "0").roots == ("0",)
        assert equation.is_solution(ALPH, "") is None
        # the block word is a reversed standard word, hence itself a solution
        assert equation.is_solution(ALPH, "01010010").roots == ("01", "0", "10010")
        assert equation.is_solution(ALPH, "0110") is None

    @settings(deadline=None, max_examples=150)
    @given(st.text(alphabet="01", min_size=1, max_size=14))
    def test_matches_dfs_oracle(self, w):
        assert (equation.is_solution(ALPH, w) is not None) == dfs_is_solution(ALPH, w)

    def test_corpus_words_match_dfs_oracle(self):
        corpus = OmegaSystem(OmegaParams()).big_gamma(1).prefix(260)
        for i in range(0, 200, 7):
            for length in (5, 8, 11, 13):
                w = corpus[i : i + length]
                assert (equation.is_solution(ALPH, w) is not None) == dfs_is_solution(ALPH, w)


def assert_standard_solutions(d, kmax, alph):
    # every reversed standard word up to index kmax and its swapped companion
    # is a primitive solution
    for k in range(1, kmax + 1):
        sbar = reversed_standard_word(d, k)
        for u in (sbar, words.swap_first_two(sbar)):
            assert words.is_primitive(u) and equation.is_solution(alph, u) is not None, (k, u)


class TestStandardSolutions:
    def test_fibonacci(self):
        assert_standard_solutions((1,) * 10, 10, ALPH)

    def test_general_slope(self):
        assert_standard_solutions((2, 2, 1, 1, 1, 1, 1, 1), 8, build_alphabet(2, 1))

    def test_both_companions_at_k4(self):
        assert equation.is_solution(ALPH, "01010010") is None or True  # S alone is not required
        for u in ("01010010", "10010010"):
            # as reversed standard words of the Fibonacci slope they solve it
            assert dfs_is_solution(ALPH, u) == (equation.is_solution(ALPH, u) is not None)


def solutions(sys, candidates):
    """The candidates that solve the equation, in the order of enumerate_solutions."""
    return [u for u in sorted(candidates, key=lambda u: (len(u), u))
            if equation.is_solution(sys.alphabet, u) is not None]


@pytest.fixture(scope="module")
def sys():
    return OmegaSystem(OmegaParams())


class TestEnumerate:
    def test_finds_reference_solutions(self, sys):
        certs = equation.enumerate_solutions(sys, 32)
        found = {c.word for c in certs}
        assert "01010010010" in found      # the length-11 accidental solution
        assert sys.gamma(1) in found       # the level-1 building block
        assert "010" in found              # short reversed standard factors
        assert "10010" in found

    def test_long_primitive_solutions_are_level_words(self, sys):
        certs = equation.enumerate_solutions(sys, 32)
        n = sys.block_len
        for cert in certs:
            if len(cert.word) >= 2 * n and words.is_primitive(cert.word):
                assert cert.word == sys.gamma(1)


    @pytest.mark.parametrize("params", [OmegaParams(), OmegaParams(a=2, b=1, c=2)])
    def test_equals_a_long_prefix_harvest(self, params):
        # the squares of a 10^5-letter prefix of Gamma1 and of the block
        # word's rotations, every candidate checked
        sys = OmegaSystem(params)
        texts = [sys.big_gamma(1).prefix(10**5)]
        texts += [rot * (64 // sys.block_len + 2) for rot in words.conjugates(sys.s_word)]
        candidates = set().union(*(equation.harvest_square_factors(t, 32) for t in texts))
        assert [c.word for c in equation.enumerate_solutions(sys, 32)] == solutions(sys, candidates)

    @pytest.mark.parametrize("bmax", [1, 5, 16, 40])
    @pytest.mark.parametrize("params", [
        OmegaParams(), OmegaParams(k=5, seed=SWAPPED), OmegaParams(a=2, b=1), OmegaParams(c=2),
        OmegaParams(a=2, b=1, c=2), OmegaParams(b=1, c=2, k=5, seed=SWAPPED),
    ])
    def test_periodic_part_equals_the_rotation_harvest(self, params, bmax):
        # every rotation of the block word, each repeated reps times, gives
        # the squares of S^w for a factor window of w names; the aperiodic
        # part's factor windows plus these rotations give the same solutions
        sys = OmegaSystem(params)
        reps, names = 2 * bmax // sys.block_len + 2, equation.window_names(sys.block_len, bmax)
        rotations = set().union(*(equation.harvest_square_factors(rot * reps, bmax)
                                  for rot in words.conjugates(sys.s_word)))
        assert equation.harvest_square_factors(sys.s_word * names, bmax) == rotations
        windows = sys.factors(names)
        candidates = rotations.union(*(equation.harvest_square_factors(sys.sigma(w), bmax) for w in windows))
        assert [c.word for c in equation.enumerate_solutions(sys, bmax)] == solutions(sys, candidates)

    def test_covering_texts_equal_the_window_harvest_on_a_grid(self):
        # the squares of sigma of every factor window, one harvest per window
        systems = list(grid_systems())
        assert len(systems) == 108
        for sys in systems:
            for bmax in (1, 16, 40):
                names = equation.window_names(sys.block_len, bmax)
                candidates = equation.harvest_square_factors(sys.s_word * names, bmax).union(
                    *(equation.harvest_square_factors(sys.sigma(w), bmax) for w in sys.factors(names)))
                got = [c.word for c in equation.enumerate_solutions(sys, bmax)]
                assert got == solutions(sys, candidates), (sys.params, bmax)


class TestConjugateAudit:
    def test_gamma1_clean(self, sys):
        report = equation.conjugate_solution_audit(sys.alphabet, sys.gamma(1))
        assert report.clean

    def test_block_word_exception_set(self, sys):
        report = equation.conjugate_solution_audit(sys.alphabet, sys.s_word)
        assert set(report.solution_conjugates) | {sys.s_word} == {sys.s_word, sys.l_word}

    def test_rejects_imprimitive(self, sys):
        with pytest.raises(ValueError):
            equation.conjugate_solution_audit(sys.alphabet, "0101")

    def test_non_product_rotations_never_solve(self, sys):
        # rotations of building blocks that do not land on the block grid
        for k in (1, 2):
            g = sys.gamma(k)
            for i in range(1, len(g)):
                if i % sys.block_len:
                    assert equation.is_solution(sys.alphabet, g[i:] + g[:i]) is None


class TestSquaresInOmegaStar:
    def test_roots_are_tau_conjugates(self):
        # the primitive roots of squares in the tau subshift's language are
        # rotations of some tau^k(S), and every tau^k(S) that fits occurs
        blocks = "S"
        while len(blocks) < 200_000:
            blocks = tau("SS", tau("SS", blocks))
        roots = {u for u in equation.harvest_square_factors(blocks[:200_000], 10)
                 if words.is_primitive(u)}
        tau_words = ["S", "LSS", "SSSLSSLSS"]  # tau^k(S) up to 10 names
        assert all(any(len(u) == len(t) and u in t + t for t in tau_words) for u in roots)
        assert {"S", "LSS"} <= roots
        assert [u for u in roots if len(u) == 1] == ["S"]

    def test_ll_never_occurs(self):
        blocks = "S"
        while len(blocks) < 5000:
            blocks = tau("SS", blocks)
        assert "LL" not in blocks


class TestDoubling:
    def test_orbits_examples(self):
        assert equation.doubling_orbits(7).orbits == ((0,), (1, 2, 4), (3, 5, 6))
        assert equation.doubling_orbits(3).orbits == ((0,), (1, 2))
        assert equation.doubling_orbits(1).orbits == ((0,),)
        with pytest.raises(ValueError):
            equation.doubling_orbits(6)

    def test_pattern_to_substitution_n7(self):
        pattern = equation.doubling_orbits(7)
        u = equation.pattern_to_substitution(
            pattern, {(1, 2, 4): "S", (3, 5, 6): "L"}
        )
        assert (tau(u, "S"), tau(u, "L")) == ("LSSLSLL", "SSSLSLL")

    def test_pattern_to_substitution_recovers_tau(self):
        pattern = equation.doubling_orbits(3)
        u = equation.pattern_to_substitution(pattern, {(1, 2): "S"})
        assert (tau(u, "S"), tau(u, "L")) == ("LSS", "SSS")

    def test_images_satisfy_doubling_property(self):
        for n in (3, 5, 7, 9):
            pattern = equation.doubling_orbits(n)
            free = [o for o in pattern.orbits if o != (0,)]
            body = equation.pattern_to_substitution(
                pattern, {o: ("S" if i % 2 else "L") for i, o in enumerate(free)}
            )
            for u in (tau(body, "S"), tau(body, "L")):
                for i in range(1, n):
                    assert u[i] == u[2 * i % n]

    def test_check_self_sqrt(self):
        sys = OmegaSystem(OmegaParams())
        assert equation.check_self_sqrt(sys, "S")
        assert equation.check_self_sqrt(sys, "LSS")
        assert not equation.check_self_sqrt(sys, "SLS")  # violates u[1] == u[2]

    def test_all_n7_assignments_fixed(self):
        sys = OmegaSystem(OmegaParams())
        results = equation.all_doubling_checks(sys, 7)
        assert len(results) == 8
        assert all(ok for _, ok in results)


class TestSolutionClosure:
    def test_gamma_words_solve(self):
        sys = OmegaSystem(OmegaParams())
        for k in range(1, 5):
            assert equation.is_solution(sys.alphabet, sys.gamma(k)) is not None
