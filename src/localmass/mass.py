"""Masses, per-character contributions, counts, and the tame analogue.

The ramified separable degree-p extensions of a local field, weighted by
``q**-c`` where ``c`` is the wild part of the discriminant valuation, have
total mass exactly ``p``.  Each conjugacy class corresponds to a stable line
in the filtered module of :mod:`localmass.model`; a line at level ``d`` in
the eigenspace of a character ``chi`` accounts for one extension when ``chi``
is the cyclotomic character and for ``p`` conjugate extensions otherwise,
each weighted ``q**-d``.  Summing level by level gives every quantity here:

* :func:`char_contribution` — the mass carried by one character class: the
  direct sum over its eigen-blocks as the level walk of
  :mod:`localmass.model` places them, taken up to the top level in mixed
  characteristic, a geometric series summed exactly in equal characteristic;
* :func:`char_contribution_closed` — the same value through an independent
  closed-form expression, kept as a permanent cross-check;
* :func:`total_mass` — the full report, asserting the total is exactly p;
* :func:`count_table` — the per-level counts of
  :func:`localmass.model.count_rows` held in a dict by level, and
  :func:`mass_from_counts`, the mass rebuilt from them;
* the Galois-closure filters — masses of the extensions whose closure group
  is constrained (cyclic, split by an unramified extension or by a given
  subfield, of given order), each counting the characters it keeps; for a
  ``--filter`` spelling, :func:`filter_census` is that count;
* :func:`tame_mass` — the two-dimensional degree-p' analogue, p' != p.

A contribution depends only on the character's valuation and on whether the
character is trivial: the trivial one adds the top-level mass to its
valuation's sum.  A valuation's blocks sit at the levels prime to p of one
progression of step p - 1, so each valuation asked for is summed over its
own walk, with :func:`_over_power_of`, the one integer Horner loop.

All values are exact ``Fraction``s; a violated internal identity raises
:class:`MassInvariantError` instead of returning a wrong report.  Each value
is normalised once.  The level walk hands out its sums as integer numerators
over one denominator, ``(p-1) * q**T`` for the deepest block depth ``T`` it
reached, or ``(p-1) * (q**((p-1)**2) - 1)`` for an infinite
equal-characteristic sum, so a total or a filter sum is one integer sum and
one gcd.  The count-table rebuild and the checksum add their terms as one
integer over a common power of q.
That defers arithmetic only; the direct sum still walks every block, so it
stays independent of the closed form it is checked against.

Every function takes a :class:`~localmass.model.LocalField` first and trusts
its checks.  The reports are plain values; :mod:`localmass.cli` renders them.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .model import (
    CharClass,
    LevelCount,
    LocalField,
    MassInvariantError,
    char_is_trivial,
    count_rows,
    cyclotomic_valuation,
    enumerate_characters,
    is_prime,
    omega_is_trivial,
    truncation_bound,
    validate_char,
    walk_plan,
)
from .rationals import describe_rational, geom_finite, geom_infinite, rat_pow

#: Largest p' for ``tame_mass``, whose scan for the order of q mod p' takes p' steps.
TAME_PRIME_LIMIT = 100_000


class MassReport(namedtuple("MassReport", "field per_vbar tres_extra total")):
    """Per-valuation contributions and the asserted total mass.

    ``per_vbar[w]`` is the ramified below-top contribution, a ``Fraction``,
    of one character of valuation ``w``; ``tres_extra`` is the top-level mass
    (nonzero only in mixed characteristic), attributed to the trivial
    character, and ``total`` the ramified total over the ``field``.
    """

    __slots__ = ()

    @property
    def grand_total(self) -> Fraction:
        """Total over all degree-p extensions, the unramified one included."""
        return self.total + 1

    def contribution(self, chi: CharClass) -> Fraction:
        """Contribution of the character class ``chi``: its valuation's
        value, plus the top-level mass if it is trivial."""
        value = self.per_vbar[chi.valuation % (self.field.p - 1)]
        return value + self.tres_extra if char_is_trivial(self.field, chi) else value


class TameReport(
    namedtuple(
        "TameReport",
        "pprime p q deg_kprime omega_trivial ramified_count conjugacy_classes mass",
    )
):
    """Mass data for degree-p' extensions, p' prime to the residue characteristic.

    ``mass`` is a ``Fraction`` and ``omega_trivial`` a bool; the other
    fields are integers.
    """

    __slots__ = ()

    @property
    def grand_total(self) -> Fraction:
        return self.mass + 1


def tres_term(field: LocalField) -> Fraction:
    """Mass p * q**((1-p)e) of the top-level stratum (mixed characteristic)."""
    if field.equal_char:
        raise ValueError("no très ramifiées stratum")
    return field.p * rat_pow(field.q, (1 - field.p) * field.e)


def char_contribution(field: LocalField, chi: CharClass) -> Fraction:
    """Exact mass of the extensions mapping to the character class ``chi``.

    The direct sum over chi's eigen-blocks where :func:`localmass.model.level_walk`
    puts them: a block at level ``l`` adds ``p(q-1)/(p-1) * q**(l//p - l)``.
    In mixed characteristic this is :func:`char_contribution_truncated` at
    the top level p*e, where the trivial character also carries the top-level
    stratum.  In equal characteristic the infinite sum is evaluated exactly:
    the levels of one valuation repeat with period p(p-1), each period deeper
    by ``(p-1)**2``, so the sum is the first period's times
    ``1 / (1 - q**-(p-1)**2)``.
    """
    validate_char(field, chi)
    return _characters_mass(field, {chi.valuation % (field.p - 1): 1}, char_is_trivial(field, chi))


def char_contribution_closed(field: LocalField, chi: CharClass) -> Fraction:
    """Closed-form evaluation of :func:`char_contribution`.

    Splits the stratum sum at the offset ``a = (cyclotomic valuation -
    valuation(chi)) mod (p-1)``: a head of ``a`` strata with slot ``a - i``,
    then full periods of ``p - 1`` strata plus a partial period, obtained by
    Euclidean division of the remaining stratum count.  Must agree exactly
    with the direct sum for every input; any discrepancy implicates this
    closed form, never the direct sum.
    """
    validate_char(field, chi)
    p, q = field.p, field.q
    m = p - 1
    a = (cyclotomic_valuation(field) - chi.valuation) % m
    scale = Fraction(p * (q - 1), m)
    x = rat_pow(q, -(p - 2))  # ratio between consecutive slots within a period
    big = rat_pow(q, -(m * m))  # ratio between full periods
    head_len = a if field.equal_char else min(a, field.e)
    s = rat_pow(q, -a) * geom_finite(x, head_len)
    if field.equal_char or field.e > a:
        lead = rat_pow(q, -m * (a + 1))
        block = geom_finite(x, m)
        if field.equal_char:
            s += lead * block * geom_infinite(big)
        else:
            n_full, rem = divmod(field.e - a - 1, m)
            s += lead * (block * geom_finite(big, n_full) + rat_pow(big, n_full) * geom_finite(x, rem + 1))
    total = scale * s
    if not field.equal_char and char_is_trivial(field, chi):
        total += tres_term(field)
    return total


def char_contribution_truncated(
    field: LocalField, chi: CharClass, max_level: int
) -> Fraction:
    """Direct sum over chi's eigen-blocks at levels <= max_level.

    The exact partial sum the brute-force oracle must reproduce at the same
    bound.  It walks the blocks of :func:`localmass.model.level_walk` up to
    :func:`localmass.model.truncation_bound`, so in mixed characteristic any
    bound >= p*e gives :func:`char_contribution`; it shares nothing with the
    closed form's geometric series.
    """
    validate_char(field, chi)
    trivial = char_is_trivial(field, chi)
    return _characters_mass(field, {chi.valuation % (field.p - 1): 1}, trivial, max_level)


def _valuation_sums(field: LocalField, max_level: int | None, valuations, trivial: bool = True):
    """``(nums, tres, den)``: the block sum of one character of valuation
    ``w`` is ``nums[w] / den`` for each ``w`` asked for, and ``tres`` is the
    top-level mass if ``trivial`` asks for it and the bound reaches it, else
    0; no ``max_level`` means the full sum.  Each sum is one
    :func:`_over_power_of` over the blocks of ``w``, at the levels prime to p
    of ``walk_plan(field, bound, w)``, whose depth ``l - l//p`` grows with the
    level ``l``, aligned to the one denominator ``(p-1) * q**T``, ``T`` the
    deepest depth, or ``(p-1) * (q**((p-1)**2) - 1)`` in the periodic case.
    No gcd is taken: a caller normalises once per value it builds."""
    p, q = field.p, field.q
    period = (p - 1) ** 2
    periodic = field.equal_char and max_level is None
    bound = p * (p - 1) if periodic else truncation_bound(field, max_level)
    # The progression's multiples of p hold no block.
    sums = {}
    for w in valuations:
        levels = walk_plan(field, bound, w)[1]
        sums[w] = _over_power_of(q, ((lv - lv // p, 1) for lv in levels if lv % p))
    tres = tres_term(field) if trivial and walk_plan(field, bound)[2] else Fraction(0)
    # A first period's n / q**t times 1 / (1 - q**-period) is the infinite sum.
    top = period if periodic else max((t for _, t in sums.values()), default=0)
    c = p * (q - 1)
    nums = {w: c * n * q ** (top - t) for w, (n, t) in sums.items()}
    return nums, tres, (p - 1) * (q**period - 1 if periodic else q**top)


def _over_power_of(q: int, terms) -> tuple[int, int]:
    """Integers ``(num, top)`` with ``sum(c * q**-d for d, c in terms) ==
    num / q**top``, for ``terms`` in increasing ``d >= 0`` (``top`` is the
    last ``d``, or 0).  Horner's rule keeps every partial sum an integer."""
    num = top = 0
    for d, c in terms:
        num = num * q ** (d - top) + c
        top = d
    return num, top


def per_character_contributions(field: LocalField) -> list[tuple[CharClass, Fraction]]:
    """Contribution of each of the (p-1)^2 characters, in coordinate order,
    expanded from the one :func:`total_mass` report."""
    report = total_mass(field)
    return [(chi, report.contribution(chi)) for chi in enumerate_characters(field)]


def _characters_mass(
    field: LocalField, counts: dict[int, int], trivial: bool, max_level: int | None = None
) -> Fraction:
    """Summed contribution, at levels <= ``max_level`` (all if None), of
    ``counts[w]`` distinct characters of each valuation ``w`` in [0, p-1):
    one integer sum of their valuations' numerators, plus the top-level mass
    if ``trivial`` says the trivial character is among them."""
    nums, tres, den = _valuation_sums(field, max_level, counts, trivial)
    value = Fraction(sum(n * nums[w] for w, n in counts.items()), den)
    return value + tres if trivial else value


def total_mass(field: LocalField) -> MassReport:
    """Full mass report; the ramified total is asserted to be exactly p."""
    p = field.p
    nums, tres, den = _valuation_sums(field, None, range(p - 1))
    total = Fraction((p - 1) * sum(nums.values()), den) + tres
    if total != p:
        raise MassInvariantError(f"ramified mass {describe_rational(total)} != {p} for {field}")
    return MassReport(field, {w: Fraction(n, den) for w, n in nums.items()}, tres, total)


def count_table(
    field: LocalField, max_level: int | None = None, vbar: int | None = None
) -> dict[int, LevelCount]:
    """The rows of :func:`localmass.model.count_rows`, held in a dict keyed
    by level, for callers that index levels or need them all at once."""
    return {rec.level: rec for rec in count_rows(field, max_level, vbar)}


def mass_from_counts(field: LocalField, table: dict[int, LevelCount]) -> Fraction:
    """Rebuild the ramified mass from a full count table (level-0 row excluded),
    as one integer over ``q**top``."""
    num, top = _over_power_of(
        field.q, ((level, rec.extensions) for level, rec in sorted(table.items()) if level > 0)
    )
    return Fraction(num, field.q**top)


def contribution_checksum(field: LocalField) -> tuple[Fraction, Fraction]:
    """Both sides of the closed-form identity equivalent to total mass p.

    Summing the closed-form contribution over the ``p - 1`` valuation offsets
    in equal characteristic and equating the total with p reduces to one
    polynomial identity in q; this evaluates both sides exactly and raises if
    they differ (they never should).  Only ``field.p`` and ``field.q`` enter.
    """
    p, q = field.p, field.q
    if p < 3:
        raise ValueError(f"checksum at p = {p}: defined for primes p >= 3, pass an odd prime")
    m = p - 1
    # lhs = sum over a < p-1 of [(q**((p-2)a) - 1)(q**(m*m) - 1) + (q**((p-2)m) - 1)] / q**(m*a),
    # taken as two sums over the common denominator q**(m(p-2)) with the
    # factors that do not depend on a pulled out.
    lifted, top = _over_power_of(q, ((m * a, q ** ((p - 2) * a) - 1) for a in range(p - 1)))
    plain, _ = _over_power_of(q, ((m * a, 1) for a in range(p - 1)))
    lhs = Fraction((q ** (m * m) - 1) * lifted + (q ** ((p - 2) * m) - 1) * plain, q**top)
    rhs = Fraction((q ** (p - 2) - 1) * (q ** (m * m) - 1), q ** (p - 2) * (q - 1))
    if lhs != rhs:
        raise MassInvariantError(
            f"contribution checksum failed at p={p}, q={q}:"
            f" lhs {describe_rational(lhs)} != rhs {describe_rational(rhs)}"
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Galois-closure filters
# ---------------------------------------------------------------------------
#
# The closure group of a non-cyclic extension is the split extension of the
# image of omega*chi^{-1} by a group of order p, so a filter on the closure
# is a filter on the class xi = omega*chi^{-1} in (Z/(p-1))^2.  In mixed
# characteristic (p, f, e) fixes only the valuation of the cyclotomic class,
# so order and subfield filters need a field that carries its coordinates
# (``LocalField.omega``).


def _omega_coords(field: LocalField) -> tuple[int, int]:
    """The field's cyclotomic coordinates, which the closure filters on xi need."""
    if field.omega is None:
        raise ValueError(
            f"omega class required for p={field.p} f={field.f} e={field.e}: pass the cyclotomic"
            " coordinates as LocalField(..., omega=(a, b)), or --omega-a and --omega-b"
            " on the command line"
        )
    return field.omega


def filter_census(field: LocalField, spec: str) -> tuple[dict[int, int], bool]:
    """``(counts, trivial)``: the characters the ``--filter`` ``spec`` keeps,
    ``counts[w]`` of each valuation ``w``, and whether the trivial one is
    among them.  "cyclic" keeps the cyclotomic character; "unramified-closure"
    the extensions split by an unramified extension, the p - 1 characters of
    its valuation; "group-order=N" those whose closure has tame part of order
    N | p - 1 (N = 2: dihedral of order 2p), which partition the mass p.

    Counted, not listed: the order of xi = (x, y) is the lcm of its
    coordinates' orders, so only the N classes x whose order divides N pass;
    x fixes chi's valuation ``omega_a - x``, and phi(d) of the y have order d.
    """
    m = field.p - 1
    w_omega = cyclotomic_valuation(field)
    if spec == "cyclic":
        return {w_omega: 1}, omega_is_trivial(field)
    if spec == "unramified-closure":
        return {w_omega: m}, w_omega == 0
    name, _, order = spec.partition("=")
    if name != "group-order" or not order.isdecimal():
        raise ValueError(f"unknown filter {spec!r}")
    n = int(order)
    if n < 1 or m % n != 0:
        raise ValueError("order must divide p - 1")
    om = _omega_coords(field)
    orders = {x: m // math.gcd(x, m) for x in range(0, m, m // n)}  # the x of order dividing n
    phi = Counter(orders.values())  # d -> phi(d), how many of them have order d
    passing = {d: sum(k for d2, k in phi.items() if math.lcm(d, d2) == n) for d in phi}
    counts = {(om[0] - x) % m: passing[d] for x, d in orders.items()}
    return counts, math.lcm(*(m // math.gcd(c, m) for c in om)) == n


def subfield_contribution(field: LocalField, subgroup_gens: list[tuple[int, int]]) -> Fraction:
    """Mass of the extensions split by the degree-(p-1)-type subfield of K
    dual to the subgroup generated by ``subgroup_gens`` in (Z/(p-1))^2.

    These are the characters whose class xi = omega*chi^-1 lies in the
    subgroup, counted, not listed: an element (x, y) is one chi, of valuation
    ``omega_a - x``, and the trivial chi exactly when it is omega itself.
    """
    m = field.p - 1
    om = _omega_coords(field)
    subgroup = {(0, 0)}
    frontier = [(a % m, b % m) for a, b in subgroup_gens]
    while frontier:
        g = frontier.pop()
        for s in list(subgroup):
            t = ((s[0] + g[0]) % m, (s[1] + g[1]) % m)
            if t not in subgroup:
                subgroup.add(t)
                frontier.append(t)
    return _characters_mass(field, Counter((om[0] - x) % m for x, _ in subgroup), om in subgroup)


def galois_closure_contribution(field: LocalField, filter_spec: str, census=None) -> Fraction:
    """Mass of the extensions passing one ``--filter`` of the command line:
    the characters :func:`filter_census` keeps (``census``, if built), summed."""
    return _characters_mass(field, *(census or filter_census(field, filter_spec)))


def tame_mass(field: LocalField, pprime: int) -> TameReport:
    """Mass report for degree-p' extensions, p' a prime different from p.

    The relevant module is two-dimensional, so the structure is decided by
    one divisibility: if p' divides q - 1 the p' ramified extensions are each
    their own conjugacy class; otherwise there is a single class of p'
    conjugates.  Either way every ramified extension is tame (c = 0) and the
    mass is exactly p'.  Only ``field.p`` and ``field.q`` enter.
    """
    p, q = field.p, field.q
    if pprime > TAME_PRIME_LIMIT:
        raise ValueError(f"p' = {pprime} exceeds the tame bound {TAME_PRIME_LIMIT}")
    if not is_prime(pprime):
        raise ValueError(f"p' = {pprime} is not prime")
    if pprime == p:
        raise ValueError(
            f"p' = {pprime} is the residue characteristic p = {p}: use the wild-case"
            f" operations (total_mass, or the mass command) for degree {p},"
            f" or pass a prime p' != {p}"
        )
    residue = q % pprime  # once: q = p**f may have millions of bits
    deg = next(d for d in range(1, pprime) if pow(residue, d, pprime) == 1)  # order of q mod p'
    trivial = residue == 1
    return TameReport(
        pprime=pprime,
        p=p,
        q=q,
        deg_kprime=deg,
        omega_trivial=trivial,
        ramified_count=pprime,
        conjugacy_classes=pprime if trivial else 1,
        mass=Fraction(pprime),
    )
