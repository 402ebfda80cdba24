"""Field parameters, character classes, levels, layout, and break data."""

import math
import random

import pytest

from localmass.model import (
    GENERIC,
    INFINITE_E,
    OMEGA,
    PRIME_TEST_BOUND,
    TRIVIAL,
    CharClass,
    EigenBlock,
    LocalField,
    coords_marker,
    count_rows,
    cyclotomic_valuation,
    enumerate_characters,
    generic_char,
    is_prime,
    layout,
    omega_char,
    omega_is_trivial,
    stratum_slot,
    trivial_char,
    truncation_bound,
    walk_totals,
)
from localmass.oracle import eigenspace_blocks
from reference import BreakData, discriminant_valuation

Q3 = LocalField(3, 1, 1)
F3_SERIES = LocalField(3, 1, INFINITE_E)


def test_local_field_validation():
    assert LocalField(3, 2, 4).q == 9
    assert LocalField(3, 4, 1).q == 81
    assert F3_SERIES.equal_char and not Q3.equal_char
    with pytest.raises(ValueError):
        LocalField(4, 1, 1)
    with pytest.raises(ValueError):
        LocalField(3, 0, 1)
    with pytest.raises(ValueError):
        LocalField(3, 1, 0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, True, 1), "residue degree f = True must be an integer >= 1"),
        ((3, 1, True), "ramification index e = True must be an integer >= 1 or infinite"),
    ],    ids=["f", "e"],
)
def test_local_field_rejects_bool_parameters(args, message):
    with pytest.raises(ValueError) as exc:
        LocalField(*args)
    assert str(exc.value) == message


def test_local_field_omega_validation():
    assert LocalField(5, 1, 3, (7, -1)).omega == (3, 3)  # reduced mod p-1
    assert Q3.omega is None
    assert LocalField(2, 1, 3).omega == (0, 0)
    assert LocalField(3, 1, INFINITE_E, (0, 0)) == F3_SERIES
    assert LocalField(3, 1, INFINITE_E, (2, 4)) == F3_SERIES
    with pytest.raises(ValueError, match="valuation e mod p-1"):
        LocalField(5, 1, 3, (2, 1))
    with pytest.raises(ValueError, match="trivial for this field"):
        LocalField(5, 1, INFINITE_E, (0, 1))


def test_roots_of_unity_field():
    # Q_3(sqrt(-3)): the cyclotomic character is the trivial one, so the
    # trivial character owns both the level-0 and the top-level line.
    mu3 = LocalField(3, 1, 2, (0, 0))
    assert omega_is_trivial(mu3) and not omega_is_trivial(LocalField(3, 1, 2, (0, 1)))
    assert omega_char(mu3) == trivial_char()
    # The full eigenspace of the trivial character, by the oracle's congruence
    # scan; every p = 2 field contains the square roots of unity.
    dims = [
        sum(b.dim for b in eigenspace_blocks(field, trivial_char(), 6))
        for field in (mu3, LocalField(3, 1, 2, (0, 1)), LocalField(2, 1, 3))
    ]
    assert dims == [4, 3, 5]


def test_char_class_validation():
    # A class is its valuation and its marker; which class is cyclotomic is
    # the field's to say, so the constructor checks only the marker and the
    # trivial class's valuation.
    with pytest.raises(ValueError, match="valuation 0"):
        CharClass(1, TRIVIAL)
    with pytest.raises(ValueError, match="unknown marker"):
        CharClass(1, "cyclotomic")
    assert CharClass._fields == ("valuation", "distinguished")
    assert trivial_char() == CharClass(0, TRIVIAL)
    assert generic_char(2) == CharClass(2) == (2, GENERIC)


def test_omega_identification():
    assert omega_is_trivial(F3_SERIES)
    assert omega_is_trivial(LocalField(2, 1, 3))
    assert not omega_is_trivial(Q3)
    assert omega_char(F3_SERIES) == trivial_char()
    assert omega_char(Q3).valuation == 1


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == by_trial_division(n) for n in range(-3, 20000))
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * 10007)
    # Strong pseudoprimes to the bases 2..7 and 2..37: only a later base
    # shows them composite.
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)  # 399165290221 * 798330580441


def test_is_prime_refuses_to_guess_past_its_exact_range():
    assert is_prime(PRIME_TEST_BOUND - 1) is False  # even
    with pytest.raises(ValueError, match=f"decided only below {PRIME_TEST_BOUND}$"):
        is_prime(PRIME_TEST_BOUND)


def test_cyclotomic_valuation():
    assert cyclotomic_valuation(Q3) == 1
    assert cyclotomic_valuation(LocalField(5, 1, 5)) == 1
    assert cyclotomic_valuation(F3_SERIES) == 0
    assert cyclotomic_valuation(LocalField(2, 1, 3)) == 0


def test_stratum_slot_examples():
    k55 = LocalField(5, 1, 5)
    assert [stratum_slot(k55, generic_char(0), i) for i in range(5)] == [1, 4, 3, 2, 1]
    assert [stratum_slot(F3_SERIES, generic_char(0), i) for i in range(4)] == [2, 1, 2, 1]
    assert stratum_slot(Q3, trivial_char(), 0) == 1
    # p = 2 degenerately forces slot 1.
    assert stratum_slot(LocalField(2, 1, 2), trivial_char(), 3) == 1


@pytest.mark.parametrize("field", [Q3, F3_SERIES, LocalField(5, 2, 3), LocalField(7, 1, INFINITE_E)])
def test_stratum_slot_periodicity(field):
    m = field.p - 1
    for w in range(m):
        chi = generic_char(w)
        for i in range(12):
            assert stratum_slot(field, chi, i) == stratum_slot(field, chi, i + m)


@pytest.mark.parametrize("field", [Q3, F3_SERIES, LocalField(5, 1, 4), LocalField(7, 2, INFINITE_E)])
def test_levels_prime_to_p(field):
    strata = range(8) if field.equal_char else range(field.e)
    for w in range(field.p - 1):
        for i in strata:
            assert 1 <= stratum_slot(field, generic_char(w), i) <= field.p - 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cycle_level_matches_prime_to_p_sequence(p):
    # p*i + slot(omega, i) runs through (p-1) * (n-th prime-to-p integer),
    # whatever the cyclotomic valuation is.
    fields = [LocalField(p, 1, INFINITE_E)] + [LocalField(p, 1, e) for e in (1, 2, p - 1, 1001)]
    prime_to_p = [n for n in range(1, 2 * 1001) if n % p][:1001]  # the first 1001, by a scan
    for field in fields:
        omega = omega_char(field)
        for i in range(1001):
            level = p * i + stratum_slot(field, omega, i)
            assert level == (p - 1) * prime_to_p[i]


def test_layout_examples():
    assert layout(Q3).total_dim == 6
    assert layout(LocalField(5, 1, 1)).total_dim == 18
    lay = layout(F3_SERIES, 5)
    assert sorted({b.level for b in lay.blocks}) == [0, 1, 2, 4, 5]
    assert all(b.level == 0 or b.level % 3 != 0 for b in lay.blocks)
    k55 = LocalField(5, 1, 5)
    omega_levels = [b.level for b in layout(k55).blocks if b.distinguished == OMEGA]
    assert omega_levels == [0, 4, 8, 12, 16, 24]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_layout_dimension_audit(p, f, e):
    assert layout(LocalField(p, f, e)).total_dim == 2 + (p - 1) ** 2 * e * f


def test_layout_block_structure():
    lay = layout(Q3)
    assert lay.blocks[0] == EigenBlock(level=0, valuation=1, dim=1, distinguished=OMEGA)
    assert lay.blocks[-1] == EigenBlock(level=3, valuation=0, dim=1, distinguished=TRIVIAL)
    by_level = {}
    for b in lay.blocks:
        by_level.setdefault(b.level, []).append(b)
    # Two eigen-blocks per middle level, one per character of that valuation.
    assert [len(by_level[lvl]) for lvl in (1, 2)] == [2, 2]
    assert {b.valuation for b in by_level[1]} == {0}
    assert {b.valuation for b in by_level[2]} == {1}
    # The cyclotomic class sits where the valuation matches.
    assert {b.distinguished for b in by_level[2]} == {"omega", "none"}
    assert {b.distinguished for b in by_level[1]} == {"trivial", "none"}


@pytest.mark.parametrize(
    "field",
    [Q3, F3_SERIES, LocalField(2, 1, 3), LocalField(5, 2, 2), LocalField(7, 1, INFINITE_E),
     LocalField(5, 1, 2, (2, 1))],
    ids=str,
)
def test_walk_totals_count_the_layout(field):
    # Every bound to past the top, and in equal characteristic to 4p.
    top = 4 * field.p if field.equal_char else field.p * field.e + 2
    for bound in range(top + 1):
        lay = layout(field, bound)
        totals = walk_totals(field, truncation_bound(field, bound))
        assert totals[1:] == (len(lay.blocks), lay.total_dim)


def test_layout_requires_bound_in_equal_char():
    with pytest.raises(ValueError, match="max_level"):
        layout(F3_SERIES)


def test_truncation_bound():
    assert truncation_bound(F3_SERIES, 7) == 7
    assert truncation_bound(Q3, None) == truncation_bound(Q3, 100) == 3
    assert truncation_bound(Q3, 0) == 0
    for field in (Q3, F3_SERIES):
        with pytest.raises(ValueError, match=">= 0"):
            truncation_bound(field, -1)


def test_enumerate_characters():
    pairs = list(enumerate_characters(Q3))
    assert [ab for ab, _ in pairs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(chi.valuation == a for (a, _), chi in pairs)
    chars = [chi for _, chi in pairs]
    assert chars[0] == trivial_char()
    for w in (0, 1):
        assert sum(1 for c in chars if c.valuation == w) == 2
    assert len(list(enumerate_characters(LocalField(5, 1, 1)))) == 16
    # Order-2 classes at p = 3 in equal characteristic: the three nontrivial ones.
    order2 = [ab for ab, _ in enumerate_characters(F3_SERIES) if ab != (0, 0)]
    assert order2 == [(0, 1), (1, 0), (1, 1)]


def test_coords_marker_census():
    # (0, 0) is trivial even where it is also the cyclotomic pair; only the
    # coordinates a field carries are omega.
    assert coords_marker(LocalField(3, 1, 2, (0, 0)), 0, 0) == TRIVIAL
    assert coords_marker(F3_SERIES, 0, 0) == TRIVIAL
    q5 = LocalField(5, 1, 2, (2, 1))
    marked = {(a, b): coords_marker(q5, a, b) for a in range(4) for b in range(4)}
    assert marked.pop((0, 0)) == TRIVIAL and marked.pop((2, 1)) == OMEGA
    assert set(marked.values()) == {GENERIC}
    assert {coords_marker(LocalField(5, 1, 2), a, 1) for a in range(4)} == {GENERIC}


def test_enumerate_characters_omega_coords():
    field = LocalField(3, 1, 1, (1, 1))
    chars = dict(enumerate_characters(field))
    assert [c.distinguished for c in chars.values()] == ["trivial", "none", "none", "omega"]
    assert chars[(1, 1)] == omega_char(field)
    with pytest.raises(ValueError):
        LocalField(3, 1, 1, (0, 1))  # wrong valuation
    with pytest.raises(ValueError):
        LocalField(3, 1, INFINITE_E, (1, 1))  # omega is trivial


def test_discriminant_valuation_examples():
    assert discriminant_valuation(3, BreakData(1, 1, 1)) == 4
    assert discriminant_valuation(3, BreakData(1, 2, 1)) == 3
    assert discriminant_valuation(5, BreakData(3, 4, 2)) == 7
    with pytest.raises(ValueError, match="prime to the tame"):
        BreakData(2, 4, 1)
    with pytest.raises(ValueError, match="inconsistent"):
        discriminant_valuation(5, BreakData(1, 3, 1))  # 3 does not divide p - 1


def test_discriminant_tower_identity():
    # (p-1)(1+b)r + (t-1)rp == (t-1)r + v*t*r on random admissible tuples.
    # The wild part v - (p-1) is always >= 1, and prime to p whenever the
    # break is (breaks divisible by p occur only at the top level).
    rng = random.Random(1978)
    primes = [3, 5, 7, 11, 13]
    for _ in range(200):
        p = rng.choice(primes)
        divisors = [t for t in range(1, p) if (p - 1) % t == 0]
        t = rng.choice(divisors)
        b = rng.choice([b for b in range(1, 40) if math.gcd(b, t) == 1])
        r = rng.randint(1, 6)
        v = discriminant_valuation(p, BreakData(b, t, r))
        assert (p - 1) * (1 + b) * r + (t - 1) * r * p == (t - 1) * r + v * t * r
        c = v - (p - 1)
        assert c >= 1
        if b % p != 0:
            assert c % p != 0


@pytest.mark.parametrize("p, classes", [(2, 7), (3, 10), (5, 26)])
def test_classes_over_the_p_adics_match_the_tables(p, classes):
    # Degree-p extensions of Q_p up to isomorphism, the unramified one
    # included: 7, 10 and 26 (Jones-Roberts, A database of local fields, 2006).
    assert sum(rec.conjugacy_classes for rec in count_rows(LocalField(p, 1, 1))) == classes


@pytest.mark.parametrize("f, e", [(f, e) for f in (1, 2, 3) for e in (1, 2, 3)])
def test_classes_at_p_2_match_kummer_theory(f, e):
    # Every quadratic extension is cyclic and its own class, and Kummer
    # theory counts them: F^x / F^x**2 has order 2**(ef + 2).
    field = LocalField(2, f, e)
    assert sum(rec.conjugacy_classes for rec in count_rows(field)) == 2 ** (e * f + 2) - 1
