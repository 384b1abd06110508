from fractions import Fraction

import pytest

from squareful import words
from squareful.sturmian import RotationSystem, reversed_standard_word, standard_word


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

    def test_params_read_the_first_two_quotients(self):
        # 3/8 = [0; 2, 1, 2], 5/13 = [0; 2, 1, 1, 2], 7/17 = [0; 2, 2, 3]
        assert RotationSystem(Fraction(3, 8)).params() == (1, 0)
        assert RotationSystem(Fraction(5, 13)).params() == (1, 0)
        assert RotationSystem(Fraction(7, 17)).params() == (1, 1)
        with pytest.raises(ValueError):
            RotationSystem(Fraction(2, 7))  # [0; 3, 2]

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
        (Fraction(5, 13), 13),
    ])
    def test_lex_interval_order(self, slope, n):
        # in circle order from 0, the cells [c/q, (c+1)/q) code the length-n
        # factors in lexicographic order, each factor on consecutive cells
        rot = RotationSystem(slope)
        factors = [rot.coding(Fraction(c, rot.q), n) for c in range(rot.q)]
        assert factors == sorted(factors)
        assert len(set(factors)) == min(n + 1, rot.q)
