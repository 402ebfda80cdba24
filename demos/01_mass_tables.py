"""Mass tables for degree-p extensions of small local fields.

Walks through the headline computation: the ramified separable degree-p
extensions of a local field, weighted by q**-c with c the wild discriminant
exponent, always have total mass p.  The refinement by character class shows
where the mass lives.
"""

from localmass import (
    INFINITE_E,
    LocalField,
    format_rational,
    per_character_contributions,
    total_mass,
)


def show(field, note):
    print(f"\n{note}  [p={field.p}, f={field.f}, e={'inf' if field.equal_char else field.e}, q={field.q}]")
    for coords, chi, value in per_character_contributions(field):
        label = chi.distinguished if chi.distinguished != "none" else ""
        print(f"  character {coords}  vbar={chi.valuation}  ->  {format_rational(value):>8}  {label}")
    report = total_mass(field)
    print(f"  ramified total = {format_rational(report.total)}"
          f"   (with the unramified extension: {format_rational(report.grand_total)})")


# The Laurent-series field over F_3: two unramified character classes at 9/20
# each and two ramified ones at 21/20 each, summing to 3.
show(LocalField(3, 1, INFINITE_E), "equal characteristic, p = q = 3")

# The 3-adic numbers: the trivial class picks up the top-level stratum on top
# of its below-top 1, hence 4/3; the cyclotomic class sits at valuation 1.
show(LocalField(3, 1, 1), "the 3-adic field")

# In mixed characteristic the mass splits into a below-top and a top-level
# part: p(1 - q**((1-p)e)) and p*q**((1-p)e).  The report holds the top-level
# part as tres_extra.
for field in (LocalField(3, 1, 1), LocalField(3, 2, 2), LocalField(5, 1, 1)):
    report = total_mass(field)
    peu, tres = report.total - report.tres_extra, report.tres_extra
    print(f"\nbelow-top/top split at (p={field.p}, q={field.q}, e={field.e}): "
          f"{format_rational(peu)} + {format_rational(tres)} = {field.p}")

# The total is p across the board, whatever the residue degree or the
# ramification index, including the degenerate prime 2.
print("\ntotal mass across a parameter sweep:")
for p in (2, 3, 5, 7):
    for f in (1, 2):
        for e in (1, 3, INFINITE_E):
            report = total_mass(LocalField(p, f, e))
            assert report.total == p
    print(f"  p = {p}: ramified mass {p} and grand total {p + 1}, every field tested")
