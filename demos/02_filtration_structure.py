"""The filtered module behind the counts: blocks, levels, dimensions.

Conjugacy classes of degree-p extensions correspond to stable lines in a
filtered module; each character class owns one f-dimensional block per
stratum, placed at a level prime to p, plus two distinguished lines (the
level-0 line of the cyclotomic class and, in mixed characteristic, the
top-level line of the trivial class).
"""

from collections import Counter

from localmass import INFINITE_E, LocalField, layout, omega_char, stratum_slot

# Full layout over the 3-adics: six basis dimensions, 2 + (p-1)^2 * e * f.
q3 = LocalField(3, 1, 1)
print("eigen-blocks over the 3-adic field:")
for block in layout(q3).blocks:
    print(f"  level {block.level}  vbar {block.valuation}  dim {block.dim}  {block.distinguished}")
print(f"  total dimension {layout(q3).total_dim} = 2 + (p-1)^2 ef")

# In equal characteristic the module is infinite; truncate to look at it.
series3 = LocalField(3, 1, INFINITE_E)
lay = layout(series3, 8)
print("\nlevels below 8 in equal characteristic (0 and the prime-to-3 integers):")
print(" ", sorted({b.level for b in lay.blocks}))

# Levels within a stratum are pinned by a congruence; for the cyclotomic
# class they sweep out (p-1) times the prime-to-p integers.
print("\ncyclotomic levels vs the prime-to-p sequence (p = 5, e = 5):")
k55 = LocalField(5, 1, 5)
om = omega_char(k55)
prime_to_5 = [n for n in range(1, 10) if n % 5]  # 1, 2, 3, 4, 6, ...
for i in range(5):
    slot = stratum_slot(k55, om, i)
    print(f"  stratum {i}: slot {slot}, level {5 * i + slot} = 4 * {prime_to_5[i]}")

# Each stratum gives every character class f dimensions; the cyclotomic class
# also owns the level-0 line and the trivial class the top-level one.
# Over the 3-adics each (marker, valuation) pair is one character.
print("\neigenspace dimensions over the 3-adics:")
dims = Counter()
for block in layout(q3).blocks:
    dims[block.distinguished, block.valuation] += block.dim
for (marker, vbar), dim in sorted(dims.items()):
    print(f"  {marker:<8} vbar {vbar}  dim {dim}")
