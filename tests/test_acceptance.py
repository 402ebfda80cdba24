"""Acceptance suite: every exit criterion, asserted at exact equality.

Each test prints one pass line (visible with ``pytest -s`` or in the captured
output); a failure raises with the offending values.  All equalities are
exact rational equalities; nothing is approximate.
"""

import math
import random
import time
from fractions import Fraction

from localmass.mass import (
    char_contribution,
    char_contribution_closed,
    char_contribution_truncated,
    contribution_checksum,
    galois_closure_contribution,
    per_character_contributions,
    tame_mass,
    total_mass,
)
from localmass.model import (
    INFINITE_E,
    LocalField,
    char_classes,
    generic_char,
    omega_char,
    stratum_slot,
    trivial_char,
)
from localmass.oracle import oracle_mass
from localmass.permgroup import (
    verify_galois_criterion,
    verify_index_p_subgroups,
    verify_normalizer,
)
from localmass.rationals import rat_pow
from reference import BreakData, discriminant_valuation

GRID = [
    (p, f, e)
    for p in (2, 3, 5, 7)
    for f in (1, 2)
    for e in (1, 2, 3, INFINITE_E)
]


def _ok(num, name):
    print(f"[criterion {num:02d}] PASS  {name}")


def test_criterion_01_equal_char_p3_contributions():
    field = LocalField(3, 1, INFINITE_E)
    assert char_contribution(field, generic_char(0)) == Fraction(9, 20)
    assert char_contribution(field, trivial_char()) == Fraction(9, 20)
    assert char_contribution(field, generic_char(1)) == Fraction(21, 20)
    assert total_mass(field).total == 3
    _ok(1, "p=3 equal characteristic: 9/20, 21/20, total 3")


def test_criterion_02_q3_per_character_contributions():
    field = LocalField(3, 1, 1)
    values = [v for _, v in per_character_contributions(field)]
    assert values == [Fraction(4, 3), Fraction(1), Fraction(1, 3), Fraction(1, 3)]
    assert total_mass(field).total == 3
    _ok(2, "p=3, f=1, e=1: 4/3, 1, 1/3, 1/3 in class order, total 3")


def test_criterion_03_equal_char_p5_polynomials():
    exponents = {0: (4, 7, 10, 13), 3: (1, 8, 11, 14), 2: (2, 5, 12, 15), 1: (3, 6, 9, 16)}
    for f in (1, 2):
        field = LocalField(5, f, INFINITE_E)
        q = field.q
        c_factor = Fraction(q**16, q**16 - 1)
        for w, exps in exponents.items():
            expected = Fraction(5 * (q - 1), 4) * c_factor * sum(rat_pow(q, -k) for k in exps)
            assert char_contribution(field, generic_char(w)) == expected, (f, w)
    _ok(3, "p=5 equal characteristic: 5(q-1)CA_w/4 at q in {5, 25}")


def test_criterion_04_p5_e5_contributions():
    for f in (1, 2):
        field = LocalField(5, f, 5)
        q = field.q
        scale = Fraction(5 * (q - 1), 4)
        expected_generic = scale * sum(rat_pow(q, -k) for k in (1, 8, 11, 14, 17))
        expected_omega = scale * sum(rat_pow(q, -k) for k in (4, 7, 10, 13, 20))
        assert char_contribution(field, generic_char(0)) == expected_generic
        assert char_contribution(field, omega_char(field)) == expected_omega
    _ok(4, "p=5, e=5: generic and cyclotomic five-term sums at q in {5, 25}")


def test_criterion_05_total_mass_grid():
    for p, f, e in GRID:
        report = total_mass(LocalField(p, f, e))
        assert report.total == p, (p, f, e)
        assert report.grand_total == 1 + p, (p, f, e)
    _ok(5, "ramified mass p and grand total 1+p on the full (p, f, e) grid")


def test_criterion_06_closed_form_equals_direct_sum():
    for p, f, e in GRID:
        field = LocalField(p, f, e)
        for chi in char_classes(field):
            direct = char_contribution(field, chi)
            closed = char_contribution_closed(field, chi)
            assert direct == closed, (p, f, e, chi)
    _ok(6, "closed form == direct sum for every class on the grid")


def test_criterion_07_checksum_identity():
    for p in (3, 5, 7):
        for f in (1, 2):
            lhs, rhs = contribution_checksum(LocalField(p, f, INFINITE_E))
            assert lhs == rhs, (p, f)
    _ok(7, "checksum identity at p in {3,5,7}, q in {p, p^2}")


def test_criterion_08_cycle_level_identity():
    for p in (3, 5, 7):
        fields = [LocalField(p, 1, INFINITE_E)] + [
            LocalField(p, 1, e) for e in (1, 2, p - 1, 1001)
        ]
        prime_to_p = [n for n in range(1, 2 * 1001) if n % p][:1001]  # the first 1001, by a scan
        for field in fields:
            omega = omega_char(field)
            for i in range(1001):
                level = p * i + stratum_slot(field, omega, i)
                assert level == (p - 1) * prime_to_p[i], (p, field.e, i)
    _ok(8, "p*i + slot(omega, i) == (p-1) * nth prime-to-p, i <= 1000, both conventions")


def test_criterion_09_peu_tres_split():
    for p, f, e in GRID:
        if e == INFINITE_E:
            continue
        field = LocalField(p, f, e)
        report = total_mass(field)
        peu, tres = report.total - report.tres_extra, report.tres_extra
        q = field.q
        assert peu == p * (1 - rat_pow(q, (1 - p) * e))
        assert tres == p * rat_pow(q, (1 - p) * e)
        assert peu + tres == p
    report = total_mass(LocalField(3, 1, 1))
    assert (report.total - report.tres_extra, report.tres_extra) == (Fraction(8, 3), Fraction(1, 3))
    _ok(9, "peu/très split sums to p; (8/3, 1/3) at (3,1,1)")


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    for p, f, e in [(3, 1, 1), (3, 2, 1), (5, 1, 1), (3, 1, 2)]:
        field = LocalField(p, f, e)
        for chi in char_classes(field):
            assert oracle_mass(field, chi, p * e) == char_contribution(field, chi), (p, f, e)
    field = LocalField(3, 1, INFINITE_E)
    for chi in char_classes(field):
        assert oracle_mass(field, chi, 9) == char_contribution_truncated(field, chi, 9)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"oracle took {elapsed:.1f}s"
    _ok(10, f"brute-force enumeration == formulas ({elapsed:.2f}s)")


def test_criterion_11_tame_masses():
    fields = [LocalField(p, f, INFINITE_E) for p, f in ((3, 1), (5, 1), (3, 2), (5, 2), (3, 3))]
    for pprime in (2, 3, 5, 7, 11):
        for field in fields:
            p, q = field.p, field.q
            if pprime == p:
                continue
            report = tame_mass(field, pprime)
            assert report.mass == pprime, (pprime, q)
            assert report.ramified_count == pprime
            if report.omega_trivial:
                assert (q - 1) % pprime == 0
                assert report.conjugacy_classes == pprime
            else:
                assert (q - 1) % pprime != 0
                assert report.conjugacy_classes == 1
    _ok(11, "tame mass p' with the correct branch structure on the grid")


def test_criterion_12_group_theory():
    for p in (3, 5, 7):
        assert verify_normalizer(p)["normalizer_order"] == p * (p - 1)
    for p in (2, 3, 5):
        result = verify_galois_criterion(p)
        assert result["criterion_holds"] and result["enumeration"] == "full"
        assert verify_index_p_subgroups(p)["holds"]
    result = verify_galois_criterion(7)
    assert result["criterion_holds"] and result["enumeration"] == "seeded"
    assert verify_index_p_subgroups(7)["holds"]
    _ok(12, "normalizer orders, solvability criterion, index-p subgroup counts")


def test_criterion_13_closure_filter_partition():
    for p in (3, 5):
        for f in (1, 2):
            field = LocalField(p, f, INFINITE_E)
            divisors = [n for n in range(1, p) if (p - 1) % n == 0]
            parts = [galois_closure_contribution(field, f"group-order={n}") for n in divisors]
            assert sum(parts) == p, (p, f)
    series3 = LocalField(3, 1, INFINITE_E)
    assert galois_closure_contribution(series3, "group-order=2") == Fraction(51, 20)
    _ok(13, "closure-order partition sums to p; dihedral slice 51/20 at (3,3)")


def test_criterion_14_discriminant_tower_identity():
    rng = random.Random(286)
    primes = [3, 5, 7, 11, 13]
    for _ in range(200):
        p = rng.choice(primes)
        t = rng.choice([t for t in range(1, p) if (p - 1) % t == 0])
        b = rng.choice([b for b in range(1, 60) if math.gcd(b, t) == 1])
        r = rng.randint(1, 8)
        v = discriminant_valuation(p, BreakData(b, t, r))
        assert (p - 1) * (1 + b) * r + (t - 1) * r * p == (t - 1) * r + v * t * r
    _ok(14, "discriminant tower identity on 200 random admissible tuples")
