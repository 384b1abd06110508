import pytest
from hypothesis import given, strategies as st

from squareful import words

binary_words = st.text(alphabet="01", min_size=1, max_size=40)


def test_conjugates_examples():
    assert list(words.conjugates("01")) == ["01", "10"]
    assert list(words.conjugates("00")) == ["00", "00"]


def test_conjugates_are_lazy_and_refuse_the_empty_word():
    rots = words.conjugates("0010")
    assert next(rots) == "0010" and next(rots) == "0100"
    with pytest.raises(ValueError):
        words.conjugates("")


def test_conjugates_contains_swapped_companion():
    # the reversed standard word and its swapped companion are conjugate
    sbar = "1001001010010"
    rots = list(words.conjugates(sbar))
    assert len(rots) == 13
    assert words.swap_first_two(sbar) in rots


def brute_force_minimal_period(w):
    for p in range(1, len(w) + 1):
        if all(w[i] == w[i + p] for i in range(len(w) - p)):
            return p


def test_is_primitive_examples():
    assert not words.is_primitive("0101")
    assert words.is_primitive("01010010")
    assert words.is_primitive("0")


@given(binary_words)
def test_primitive_iff_period_not_proper_divisor(w):
    p = brute_force_minimal_period(w)
    divides = p < len(w) and len(w) % p == 0
    assert words.is_primitive(w) == (not divides)


def test_swap_first_two():
    assert words.swap_first_two("01010010") == "10010010"
    assert words.swap_first_two("1001001010010") == "0101001010010"
    with pytest.raises(ValueError):
        words.swap_first_two("0")


@given(st.text(alphabet="01", min_size=2, max_size=30))
def test_swap_first_two_involution(w):
    assert words.swap_first_two(words.swap_first_two(w)) == w
