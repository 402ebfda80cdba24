"""Refined masses: Galois-closure filters and the tame analogue.

The closure group of a non-cyclic degree-p extension is a split extension of
a cyclic tame part by a group of order p, and the tame part's order is read
off the character class.  Filtering by that order partitions the total mass.
For a prime p' different from the residue characteristic everything
collapses to a two-dimensional module and the mass is p' on the nose.
"""

from localmass import (
    INFINITE_E,
    LocalField,
    contribution_checksum,
    cyclic_contribution,
    format_rational,
    group_order_contribution,
    subfield_contribution,
    tame_mass,
    unramified_closure_contribution,
)

series3 = LocalField(3, 1, INFINITE_E)
series5 = LocalField(5, 1, INFINITE_E)

print("closure filters at p = q = 3 (equal characteristic):")
print(f"  cyclic closures:              {format_rational(cyclic_contribution(series3))}")
print(f"  split by an unramified ext.:  {format_rational(unramified_closure_contribution(series3))}")
print(f"  dihedral closure (order 2p):  {format_rational(group_order_contribution(series3, 2))}")
print(f"  partition check: {format_rational(group_order_contribution(series3, 1))}"
      f" + {format_rational(group_order_contribution(series3, 2))} = 3")

print("\nclosure-order partition at p = q = 5:")
parts = {n: group_order_contribution(series5, n) for n in (1, 2, 4)}
for n, value in parts.items():
    print(f"  tame part of order {n}: {format_rational(value)}")
print(f"  total {format_rational(sum(parts.values()))}")

# In mixed characteristic the field carries its cyclotomic class, here (1, 1).
q3 = LocalField(3, 1, 1, (1, 1))
print(f"\nclosure-order partition over Q_3: {' + '.join(format_rational(group_order_contribution(q3, n)) for n in (1, 2))} = 3")

# Filtering by a subfield: the trivial subgroup of the dual recovers the
# cyclic extensions, the full dual recovers everything.
print("\nsubfield filters at p = q = 3:")
print(f"  trivial subgroup:  {format_rational(subfield_contribution(series3, []))}")
print(f"  full dual group:   {format_rational(subfield_contribution(series3, [(1, 0), (0, 1)]))}")

# A one-identity checksum equivalent to the whole equal-characteristic total.
lhs, rhs = contribution_checksum(series5)
print(f"\nchecksum identity at (p, q) = (5, 5): both sides {format_rational(lhs)}")

print("\ntame masses (degree p' prime to the residue characteristic):")
for pprime, p, f in [(2, 3, 1), (3, 5, 1), (5, 3, 4), (7, 5, 2), (11, 3, 3)]:
    rep = tame_mass(LocalField(p, f, INFINITE_E), pprime)
    branch = "p' | q-1: split classes" if rep.omega_trivial else "one class of conjugates"
    print(f"  p'={pprime:>2} over q={rep.q:>2}: {rep.ramified_count} ramified extensions in"
          f" {rep.conjugacy_classes} class(es), mass {format_rational(rep.mass)}  ({branch})")
