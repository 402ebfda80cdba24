"""Exact-arithmetic helpers: frozen examples and algebraic identities."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from localmass.rationals import (
    describe_rational,
    format_rational,
    geom_finite,
    geom_infinite,
    rat_pow,
)


def test_rat_pow_examples():
    assert rat_pow(3, -2) == Fraction(1, 9)
    assert rat_pow(3, 0) == 1
    # The top-stratum factor at p = 3, e = 1, q = 3: 3 * 3**-2 = 1/3.
    assert 3 * rat_pow(3, -(3 - 1) * 1) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        rat_pow(0, -1)


def test_geom_finite_examples():
    assert geom_finite(Fraction(1, 3), 2) == Fraction(4, 3)
    assert geom_finite(1, 5) == 5
    assert geom_finite(Fraction(7, 2), 0) == 0
    with pytest.raises(ValueError):
        geom_finite(Fraction(1, 2), -1)


def test_geom_infinite_examples():
    assert geom_infinite(Fraction(1, 81)) == Fraction(81, 80)
    assert geom_infinite(0) == 1
    # p = 5, q = 5: the ratio across full periods is q**-16.
    assert geom_infinite(rat_pow(5, -16)) == Fraction(5**16, 5**16 - 1)
    for bad in (1, Fraction(-5, 4), 2):
        with pytest.raises(ValueError, match="divergent"):
            geom_infinite(bad)


def test_format_rational():
    assert format_rational(Fraction(9, 20)) == "9/20"
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_describe_rational_small():
    assert describe_rational(Fraction(9, 20)) == "9/20"
    assert describe_rational(3) == "3"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-to-str limit"
)
def test_describe_rational_beyond_str_limit():
    # 3**10000 has 4772 decimal digits, beyond the default limit of 4300.
    den = 3**10000
    with pytest.raises(ValueError):
        format_rational(Fraction(1, den))
    assert describe_rational(Fraction(-1, den)) == (
        f"<1-bit numerator / {den.bit_length()}-bit denominator>"
    )


@given(
    st.fractions(min_value=-1, max_value=1).filter(lambda x: abs(x) < 1),
    st.integers(min_value=0, max_value=50),
)
def test_geom_splitting_identity(x, n):
    # Splitting an infinite sum after n terms loses nothing, exactly.
    assert geom_finite(x, n) + rat_pow(x, n) * geom_infinite(x) == geom_infinite(x)


@given(
    st.fractions().filter(lambda a: a != 0),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_rat_pow_additive(a, m, n):
    assert rat_pow(a, m + n) == rat_pow(a, m) * rat_pow(a, n)

