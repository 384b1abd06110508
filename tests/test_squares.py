import pytest
from hypothesis import given, settings, strategies as st

from squareful import words
from squareful.omega import OmegaParams, OmegaSystem
from squareful.squares import (
    TokenizationError,
    build_alphabet,
    factor_minimal_squares,
    in_pi,
    square_matcher,
    sqrt_finite,
)

SBAR = "1001001010010"


def formula_roots(a, b):
    # direct substitution into the defining formulas, as an oracle
    return (
        "0",
        "01" + "0" * (a - 1),
        "01" + "0" * a,
        "1" + "0" * a,
        "1" + "0" * (a + 1) + ("1" + "0" * a) * b,
        "1" + "0" * (a + 1) + ("1" + "0" * a) * (b + 1),
    )


class TestBuildAlphabet:
    def test_known_alphabets(self):
        assert build_alphabet(1, 0).roots == ("0", "01", "010", "10", "100", "10010")
        assert build_alphabet(2, 0).roots[1:] == ("010", "0100", "100", "1000", "1000100")
        alph = build_alphabet(1, 1)
        assert alph.roots[4] == "10010"
        assert alph.roots[5] == "1001010"

    @pytest.mark.parametrize("a", range(1, 5))
    @pytest.mark.parametrize("b", range(0, 4))
    def test_matches_formula_and_builds(self, a, b):
        assert build_alphabet(a, b).roots == formula_roots(a, b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_alphabet(0, 0)
        with pytest.raises(ValueError):
            build_alphabet(1, -1)


class TestTokenizer:
    def setup_method(self):
        self.alph = build_alphabet(1, 0)

    def test_minimal_square_prefix(self):
        match = square_matcher(self.alph)
        assert match("0101001010").group() == "0101"
        assert match("001001010010").group() == "00"
        assert match("011") is None

    @given(st.text(alphabet="01", max_size=30), st.integers(1, 3), st.integers(0, 2))
    def test_at_most_one_square_prefix(self, w, a, b):
        alph = build_alphabet(a, b)
        matches = [sq for sq in alph.squares if w.startswith(sq)]
        assert len(matches) <= 1
        m = square_matcher(alph)(w)
        assert (m.group() if m else None) == (matches[0] if matches else None)

    def test_paper_tokenizations(self):
        roots, fail = factor_minimal_squares(self.alph, SBAR + SBAR)
        assert fail is None
        assert roots == ["100", "10", "01", "0", "10010"]
        roots, fail = factor_minimal_squares(self.alph, SBAR + words.swap_first_two(SBAR))
        assert fail is None
        assert roots == ["100", "10", "010", "10010"]
        roots, fail = factor_minimal_squares(self.alph, "0101001010")
        assert (roots, fail) == (["01", "0", "10"], None)

    def test_failure_position(self):
        roots, fail = factor_minimal_squares(self.alph, "010")
        assert (roots, fail) == ([], 0)
        roots, fail = factor_minimal_squares(self.alph, "010110")
        assert fail == 4  # 0101 consumed, then 10 has no square

    def test_in_pi(self):
        assert in_pi(self.alph, SBAR + words.swap_first_two(SBAR))
        assert not in_pi(self.alph, "01010010")  # the block word itself is not
        assert not in_pi(self.alph, "")

    def test_in_pi_checks_factorizability_only(self):
        # 0000 is a product of squares but no optimal squareful word with
        # a = 1 contains three zeros in a row; callers own factor-hood
        assert in_pi(self.alph, "0000")
        corpus = OmegaSystem(OmegaParams()).big_gamma(1).prefix(5000)
        assert "000" not in corpus

    def test_sqrt_finite(self):
        assert sqrt_finite(self.alph, "0101001010") == "01010"
        assert sqrt_finite(self.alph, SBAR + SBAR) == SBAR
        assert sqrt_finite(self.alph, SBAR + words.swap_first_two(SBAR)) == SBAR
        with pytest.raises(TokenizationError):
            sqrt_finite(self.alph, "010")


@st.composite
def pi_words(draw):
    alph = build_alphabet(1, 0)
    squares_list = draw(st.lists(st.sampled_from(alph.squares), min_size=1, max_size=8))
    return "".join(squares_list)


class TestSquareRootLaws:
    def setup_method(self):
        self.alph = build_alphabet(1, 0)

    @given(pi_words())
    def test_half_length(self, w):
        assert len(sqrt_finite(self.alph, w)) * 2 == len(w)

    @given(pi_words(), pi_words())
    def test_concatenation(self, u, v):
        assert sqrt_finite(self.alph, u + v) == sqrt_finite(self.alph, u) + sqrt_finite(self.alph, v)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2000), st.integers(0, 2000))
    def test_continuity_on_shifted_subshift_words(self, i, j):
        # infinite words sharing a prefix of length l have square roots
        # sharing a prefix of length ceil(l / 2)
        from squareful import streams

        sys = OmegaSystem(OmegaParams())
        window = 600
        corpus = sys.big_gamma(1).prefix(2000 + 2 * window)
        u, v = corpus[i:], corpus[j:]
        common = 0
        while common < window and u[common] == v[common]:
            common += 1
        ru = streams.sqrt_stream(self.alph, streams.periodic_word(u[: 2 * window]))
        rv = streams.sqrt_stream(self.alph, streams.periodic_word(v[: 2 * window]))
        half = -(-common // 2)
        assert ru.prefix(half) == rv.prefix(half)


def test_exchange_corollary_fibonacci_and_general():
    # both s s and s L(s) factor and share the root s, beyond the sixth square
    for d, a, b in (((1,) * 10, 1, 0), ((2, 2, 1, 1, 1, 1, 1, 1, 1, 1), 2, 1)):
        alph = build_alphabet(a, b)
        from squareful.sturmian import reversed_standard_word

        for k in range(1, 11):
            sbar = reversed_standard_word(d, k)
            if len(sbar) <= len(alph.roots[-1]):
                continue
            assert sqrt_finite(alph, sbar + sbar) == sbar
            assert sqrt_finite(alph, sbar + words.swap_first_two(sbar)) == sbar
