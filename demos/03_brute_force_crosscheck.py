"""Two independent roads to every mass: formulas vs exhaustive enumeration.

The oracle materialises one character's eigenspace, walks every nonzero
vector, reads levels off coordinate supports, and groups vectors into lines.
No slot formula, no point-count differences, no geometric series: if its
masses agree with the closed computations, both are right.
"""

from localmass import (
    INFINITE_E,
    LocalField,
    char_contribution,
    char_contribution_truncated,
    count_table,
    enumerate_lines,
    format_rational,
    generic_char,
    omega_char,
    oracle_mass,
    trivial_char,
)

q3 = LocalField(3, 1, 1)

print("line census over the 3-adics (levels: count):")
for chi, name in [
    (omega_char(q3), "cyclotomic"),
    (trivial_char(), "trivial"),
    (generic_char(0), "generic vbar 0"),
    (generic_char(1), "generic vbar 1"),
]:
    counts = enumerate_lines(q3, chi, 3)
    print(f"  {name:<15} {counts}")

print("\nenumerated mass == formula mass, class by class:")
for chi, name in [
    (omega_char(q3), "cyclotomic"),
    (trivial_char(), "trivial"),
    (generic_char(0), "generic vbar 0"),
    (generic_char(1), "generic vbar 1"),
]:
    brute = oracle_mass(q3, chi, 3)
    formula = char_contribution(q3, chi)
    assert brute == formula
    print(f"  {name:<15} {format_rational(brute)}")

# The per-level line counts also match the closed counting formulas: level 2
# holds the blocks of both characters of valuation 1, the cyclotomic one and
# a generic one.
print("\nline counts at level 2 vs formulas (both classes of valuation 1):")
rec = count_table(q3)[2]
enumerated = sum(enumerate_lines(q3, chi, 3).get(2, 0) for chi in (omega_char(q3), generic_char(1)))
assert rec.lines == enumerated
print(f"  formula: {rec.lines} lines, {rec.extensions} extensions;"
      f" enumeration: {enumerated} lines")

# In equal characteristic the oracle reproduces exact partial sums of the
# infinite series, bound by bound.
series3 = LocalField(3, 1, INFINITE_E)
print("\ntruncated masses in equal characteristic (generic vbar 0):")
chi = generic_char(0)
for bound in (2, 5, 9, 11):
    brute = oracle_mass(series3, chi, bound)
    assert brute == char_contribution_truncated(series3, chi, bound)
    print(f"  levels <= {bound:>2}: {format_rational(brute)}"
          f"   (limit {format_rational(char_contribution(series3, chi))})")
