from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from squareful import words
from squareful.sturmian import (
    Arc,
    ContinuedFraction,
    RotationSystem,
    reversed_standard_word,
    standard_word,
)


def nested_eval(quots):
    # independent evaluation of the nested fraction, innermost first
    val = Fraction(quots[-1])
    for a in reversed(quots[:-1]):
        val = a + 1 / val
    return val


class TestContinuedFraction:
    def test_canonicalization_folds_trailing_one(self):
        assert ContinuedFraction((0, 2, 1, 1, 1)).quotients == (0, 2, 1, 2)

    def test_of_fraction_round_trip(self):
        for frac in (Fraction(3, 8), Fraction(5, 13), Fraction(8, 21), Fraction(7, 10)):
            cf = ContinuedFraction.of_fraction(frac)
            assert cf.value() == frac
            assert cf.value() == nested_eval(list(cf.quotients))
            assert cf.quotients[-1] >= 2

class TestStandardWords:
    def test_fibonacci_examples(self):
        d = (1, 1, 1, 1, 1)
        assert standard_word(d, 0) == "0"
        assert standard_word(d, -1) == "1"
        assert standard_word(d, 4) == "01001010"
        assert standard_word(d, 5) == "0100101001001"
        assert reversed_standard_word(d, 4) == "01010010"
        assert reversed_standard_word(d, 5) == "1001001010010"

    def test_lengths_match_convergent_denominators(self):
        # |s_k| = q_k for the slope [0; d1+1, d2, ...]; computed by the raw
        # recurrence (canonicalization would fold the trailing quotient)
        d = (2, 2, 1, 1, 1, 1)
        quots = (d[0] + 1,) + d[1:]
        q_prev, q = 0, 1
        for k, a in enumerate(quots, start=1):
            q_prev, q = q, a * q + q_prev
            assert len(standard_word(d, k)) == q

    def test_final_two_letters_differ_and_primitive(self):
        for d in ((1,) * 8, (2, 2, 1, 1, 1, 1, 1, 1), (3, 1, 2, 1, 1, 1, 1, 1)):
            for k in range(2, 8):
                s = standard_word(d, k)
                assert s[-1] != s[-2]
                assert words.is_primitive(s)


@pytest.fixture(scope="module")
def rot38():
    return RotationSystem(Fraction(3, 8))


class TestRotation:
    def test_requires_three_partial_quotients(self):
        with pytest.raises(ValueError):
            RotationSystem(Fraction(1, 2))
        RotationSystem(Fraction(5, 13))  # fine

    def test_coding_endpoints(self, rot38):
        alpha = rot38.slope
        assert rot38.coding(1 - alpha, 1) == "1"
        assert rot38.coding(Fraction(0), 1) == "0"

    def test_coding_of_slope_is_conjugate_to_standard_word(self, rot38):
        # the length-q period of the coding is a rotation of the standard word
        word = rot38.coding(rot38.slope, 8)
        assert word in words.conjugates(standard_word((1, 1, 1, 1), 4))

    def test_rational_coding_is_periodic(self, rot38):
        for j in range(8):
            w = rot38.coding(Fraction(j, 8), 24)
            assert w[:16] == w[8:24]

    def test_factor_interval_basics(self, rot38):
        arc0 = rot38.factor_interval("0")
        assert (arc0.lo, arc0.hi) == (Fraction(0), 1 - rot38.slope)
        arc1 = rot38.factor_interval("1")
        assert arc1.length == rot38.slope
        assert rot38.factor_interval("11") is None  # 11 is not a factor

    def test_level_eight_arcs_are_eighths(self, rot38):
        for arc in rot38.level_arcs(8):
            assert arc.length == Fraction(1, 8)

    def test_factor_interval_lengths_sum_to_one(self, rot38):
        for n in (1, 2, 5, 7):
            arcs = rot38.level_arcs(n)
            assert sum(a.length for a in arcs) == 1
            # every arc codes a distinct factor
            factors = {rot38.coding(a.lo, n) for a in arcs}
            assert len(factors) == len(arcs)

    def test_sqrt_intercept(self, rot38):
        alpha = rot38.slope
        assert rot38.sqrt_intercept(1 - alpha) == 1 - alpha
        assert rot38.sqrt_intercept(Fraction(1, 8)) == Fraction(3, 8)
        assert rot38.sqrt_intercept(Fraction(0)) == (1 - alpha) / 2

    def test_sqrt_intercept_halves_distance(self, rot38):
        # distance to 1 - alpha within the containing interval halves exactly
        alpha = rot38.slope
        fix = 1 - alpha
        for j in range(1, 8):
            rho = Fraction(j, 8)
            psi = rot38.sqrt_intercept(rho)
            if rho < fix:  # inside I0, distance measured within [0, 1-alpha)
                assert fix - psi == (fix - rho) / 2
            elif rho > fix:  # inside I1, measured within [1-alpha, 1)
                assert psi - fix == (rho - fix) / 2

    @pytest.mark.parametrize("slope,n", [
        (Fraction(3, 8), 1),
        (Fraction(3, 8), 7),
        (Fraction(5, 13), 5),
    ])
    def test_lex_interval_order(self, slope, n):
        # circle order of the level-n arcs (the first starts at 0) is the
        # lexicographic order of the factors they code
        rot = RotationSystem(slope)
        factors = [rot.coding(arc.lo, n) for arc in rot.level_arcs(n)]
        assert factors == sorted(factors)


class TestArc:
    def test_wrap_pieces(self):
        arc = Arc(Fraction(3, 4), Fraction(1, 4))
        assert arc.wraps
        assert arc.pieces() == [(Fraction(3, 4), Fraction(1)), (Fraction(0), Fraction(1, 4))]
        assert arc.length == Fraction(1, 2)
        assert arc.contains(Fraction(7, 8))
        assert arc.contains(Fraction(0))
        assert not arc.contains(Fraction(1, 2))

    @given(st.integers(0, 23), st.integers(1, 23))
    def test_contains_matches_pieces(self, a, b):
        lo, hi = Fraction(a, 24), Fraction((a + b) % 24, 24)
        arc = Arc(lo, hi)
        for t in range(24):
            rho = Fraction(t, 24)
            in_pieces = any(p_lo <= rho < p_hi for p_lo, p_hi in arc.pieces())
            assert arc.contains(rho) == in_pieces
