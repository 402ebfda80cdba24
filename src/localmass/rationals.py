"""Exact rational arithmetic and geometric-series helpers.

Every mass, contribution, and count in this package is an exact
``fractions.Fraction``; no floating point appears anywhere.  ``Fraction``
already guarantees the representation invariants we rely on (positive
denominator, lowest terms, structural equality of normalised forms), so
this module only adds the handful of operations the counting formulas
reduce to: integer powers and finite or infinite geometric series
evaluated in closed form.

Rationals serialize as ``"num/den"`` in lowest terms, with a bare
``"num"`` allowed when the denominator is 1; :func:`format_rational` is
the single point producing that form.  :func:`describe_rational` is its
counterpart for error messages, which must not fail on a value too large
for the interpreter's integer-to-string limit.
"""

from __future__ import annotations

from fractions import Fraction

RatLike = Fraction | int


def rat_pow(a: RatLike, n: int) -> Fraction:
    """Exact integer power ``a**n``; negative ``n`` inverts, so ``a`` must be nonzero."""
    a = Fraction(a)
    if a == 0 and n < 0:
        raise ZeroDivisionError("division by zero")
    return a**n


def geom_finite(x: RatLike, n: int) -> Fraction:
    """Finite geometric sum ``1 + x + ... + x**(n-1)``.

    Returns 0 for ``n = 0``.  The degenerate ratio ``x = 1`` yields ``n``,
    the limit value, rather than an error.
    """
    if n < 0:
        raise ValueError("negative term count")
    x = Fraction(x)
    if x == 1:
        return Fraction(n)
    return (1 - x**n) / (1 - x)


def geom_infinite(x: RatLike) -> Fraction:
    """Infinite geometric sum ``1/(1 - x)``, defined only for ``|x| < 1``."""
    x = Fraction(x)
    if abs(x) >= 1:
        raise ValueError("divergent series")
    return 1 / (1 - x)


def format_rational(x: RatLike) -> str:
    """Serialize as ``"num/den"`` in lowest terms (``"3"`` for ``3/1``)."""
    return str(Fraction(x))


def describe_rational(x: RatLike) -> str:
    """The ``"num/den"`` form of ``x`` if the interpreter will convert it to
    decimal, else the bit lengths of its numerator and denominator."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:  # the integer-to-string digit limit
        return (
            f"<{x.numerator.bit_length()}-bit numerator"
            f" / {x.denominator.bit_length()}-bit denominator>"
        )
