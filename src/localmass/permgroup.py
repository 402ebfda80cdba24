"""Brute-force checks of the degree-p permutation group theory.

Works on honest permutations of {0, ..., p-1} (tuples of images) and keeps
every claim at a scale where exhaustive computation settles it:

* the normalizer of an order-p subgroup of the symmetric group has order
  p(p-1), its quotient by that subgroup is cyclic via the conjugation
  action, and an affine complement realizes the splitting: one scan of the
  symmetric group, ``normalizer_of_cycle``, one product per permutation,
  gives the normalizer, its conjugation character and, as the stabilizer of
  0, the complement;
* Galois's solvability criterion: a transitive subgroup of the degree-p
  symmetric group is solvable iff it contains a unique Sylow p-subgroup;
* a solvable transitive subgroup other than the p-cycle group has exactly p
  subgroups of index p, pairwise intersecting trivially, any two of which
  generate the whole group.

A group past ``INDEX_SEARCH_LIMIT`` elements is never listed: it is held as
a stabilizer chain (``stabchain.StabChain``, Schreier–Sims), which gives its
order, its membership test and, one at a time, its elements.  Solvability is
decided from a group's generators by its derived series, each derived group
a normal closure held as a chain, and a record past the limit reads its
transitivity and Sylow p-count off the chain's stream of elements.  Every
element set is grown by one step, ``extend``: Dimino's coset extension of a
known group by one permutation, each right coset composed by one C-level
gather (``_right_coset``).  Every subgroup is found by one exhaustive
search, ``_subgroups``, which skips each double coset it has tried by
closing it under the group's generators.  It gives, for p <= 5, the
transitive family: the subgroups of the symmetric group containing the
p-cycle, and their conjugates, found as an orbit under conjugation by
generators of the symmetric group.  The search also gives each group's
index-p subgroups, once per conjugacy class, searched from above each Sylow
q-subgroup for a prime q whose part in the index-p order is its part in the
group's: such a subgroup contains a whole Sylow q-subgroup, and those are
one orbit under conjugation by the group's generators, so the search stays
exhaustive while it skips the subgroups below.  For p = 7 a seeded family is
used instead (``SEEDS_7``): the chain between the p-cycle group and its
normalizer, the full symmetric and alternating groups, and the simple group
of order 168 in its degree-7 action; results for p = 7 are labelled with
that scope.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .model import is_prime
from .stabchain import Perm, StabChain, pidentity, pinv, pmul

#: Degrees beyond this make exhaustive verification meaningless on a desk.
MAX_DEGREE = 7

#: Largest group order for which index-p subgroups are enumerated.
INDEX_SEARCH_LIMIT = 130


def pcycle(n: int) -> Perm:
    """The full cycle x -> x + 1 mod n."""
    return tuple((x + 1) % n for x in range(n))


def affine_perm(p: int, mult: int) -> Perm:
    """x -> mult*x mod p."""
    return tuple(mult * x % p for x in range(p))


def _right_coset(group: frozenset[Perm], r: Perm):
    """The right coset ``group∘r``, each product ``h∘r`` one C-level gather
    ``itemgetter(*r)(h)``.  In degree 1, where ``itemgetter`` with one index
    would give a scalar, the only permutation is the identity and the coset
    is ``group``."""
    return map(itemgetter(*r), group) if len(r) > 1 else group


def _coset_closure(
    group: frozenset[Perm],
    gens: list[Perm],
    elems: set[Perm],
    reps: list[Perm],
    limit: int | None = None,
) -> frozenset[Perm]:
    """``elems``, the right cosets ``group∘r`` for r in ``reps``, closed under
    right multiplication by ``gens``.

    Each representative times each generator lies in a known coset or starts
    a new one, which is added whole: ``group∘r∘g`` lies in ``elems`` as soon
    as ``r∘g`` does.  With ``limit`` it stops once it knows more than
    ``limit`` elements and returns those cosets.
    """
    for rep in reps:  # grows while it is walked
        for g in gens:
            if limit is not None and len(elems) > limit:
                return frozenset(elems)
            prod = pmul(rep, g)
            if prod not in elems:
                elems.update(_right_coset(group, prod))
                reps.append(prod)
    return frozenset(elems)


def extend(
    group: frozenset[Perm], gens: list[Perm], new: Perm, limit: int | None = None
) -> frozenset[Perm]:
    """``<group, new>`` for ``group = <gens>``, as a union of right cosets ``group∘r``.

    It is ``group`` closed under right multiplication by ``gens`` and
    ``new``.  With ``limit`` it stops once it knows more than ``limit``
    elements and returns those cosets, whose size alone tells the caller that
    the group is larger than ``limit``.
    """
    return _coset_closure(group, [*gens, new], set(group), [pidentity(len(new))], limit)


def closure(gens, degree: int) -> frozenset[Perm]:
    """Subgroup generated by ``gens``: ``extend`` by each one not yet in it."""
    group = frozenset([pidentity(degree)])
    used: list[Perm] = []
    for g in map(tuple, gens):
        if g not in group:
            group = extend(group, used, g)
            used.append(g)
    return group


def _degree(perms) -> int:
    return len(next(iter(perms)))


def _commutator(a: Perm, b: Perm) -> Perm:
    return pmul(pmul(a, b), pmul(pinv(a), pinv(b)))


def derived_subgroup(gens: list[Perm]) -> tuple[StabChain, list[Perm]]:
    """Commutator subgroup of ``<gens>`` (``gens`` nonempty) as a chain, with
    its generators.

    The normal closure of the generator commutators: each commutator or
    conjugate that does not sift through the chain so far extends it, and
    its conjugates by ``gens`` are queued in turn.
    """
    derived = StabChain(len(gens[0]))
    dgens: list[Perm] = []
    todo = [_commutator(a, b) for a in gens for b in gens]
    while todo:
        x = todo.pop()
        if derived.add(x):
            dgens.append(x)
            todo += [pmul(pmul(g, x), pinv(g)) for g in gens]
    return derived, dgens


def is_solvable(gens: list[Perm]) -> bool:
    """Derived series of ``<gens>`` reaches the trivial group.

    Each derived group is a chain built from the previous one's generators,
    so no element set is built, of ``<gens>`` or of any derived group.  The
    series stops at the trivial group, or at a nontrivial perfect group,
    where every generator sifts through its own derived group.
    """
    while gens:
        derived, dgens = derived_subgroup(gens)
        if derived.order > 1 and all(g in derived for g in gens):  # nontrivial and perfect
            return False
        gens = dgens
    return True


def _is_p_cycle(g: Perm) -> bool:
    """Whether the orbit of 0 under g is every point: in prime degree, whether
    g has order p, since an lcm of cycle lengths below p is not p."""
    x, size = g[0], 1
    while x:
        x, size = g[x], size + 1
    return size == len(g)


class SubgroupRecord(
    namedtuple(
        "SubgroupRecord",
        "elements order transitive solvable sylow_p_count index_p_subgroup_count",
    )
):
    """A subgroup of the degree-p symmetric group with its derived flags.

    ``elements`` is the sorted tuple of its permutations, and
    ``index_p_subgroup_count`` comes from the exhaustive search
    ``subgroups_of_order``; for a group of more than ``INDEX_SEARCH_LIMIT``
    elements (only the 168-element group and the alternating and symmetric
    groups at p = 7 in practice) both are None, as no element set of it is
    held.
    """

    __slots__ = ()

    def element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)


def _double_coset(group: frozenset[Perm], gens: list[Perm], b: Perm) -> frozenset[Perm]:
    """The double coset ``group∘b∘group`` of ``group = <gens>``.

    The right coset ``group∘b`` closed under right multiplication by
    ``gens``: a finite group is the monoid its generators make, so the
    closure is ``group∘b∘group``.  It is found one right coset at a time, in
    |group∘b∘group| products and |gens| more per coset.
    """
    return _coset_closure(group, gens, set(_right_coset(group, b)), [b])


def _subgroups(
    ambient: list[Perm], start: frozenset[Perm], gens: list[Perm], order: int
) -> dict[frozenset[Perm], list[Perm]]:
    """Every subgroup of ``ambient`` (its sorted elements) containing the
    group ``start = <gens>`` whose order divides ``order``, with generators.

    Starting at ``start``, each group G found is extended by one element of
    each double coset GbG in ``ambient`` but G until nothing new appears
    (``_double_coset`` marks the rest of GbG as tried); an extension is
    stopped once past ``order`` elements, and kept only if its order divides
    ``order``.  A subgroup H is reached by adding the elements of H one at a
    time, each group on the way a subgroup of H, so the search is exhaustive
    without any bound on the number of generators H needs.
    """
    found = {start: list(gens)}
    todo = [start]
    while todo:
        group = todo.pop()
        group_gens = found[group]
        tried = set(group)
        for b in ambient:
            if b in tried:
                continue
            tried.update(_double_coset(group, group_gens, b))  # <G, gbh> = <G, b>
            bigger = extend(group, group_gens, b, limit=order)
            if order % len(bigger) == 0 and bigger not in found:
                found[bigger] = group_gens + [b]
                todo.append(bigger)
    return found


def _prime_parts(n: int) -> dict[int, int]:
    """``{q: the largest power of q dividing n}`` for each prime q dividing n."""
    parts: dict[int, int] = {}
    q = 2
    while n > 1:
        while n % q == 0:
            n //= q
            parts[q] = parts.get(q, 1) * q
        q += 1
    return parts


def _grown_subgroup(elems: frozenset[Perm], order: int) -> tuple[frozenset[Perm], list[Perm]]:
    """A subgroup of the group ``elems`` whose order divides ``order``, with
    the generators that grew it.

    ``elems`` is scanned in sorted order, and each x outside the group so far
    is kept if ``<group, x>`` (an extension stopped past ``order`` elements)
    has order dividing ``order``.  An x once rejected would stay rejected,
    since the group only grows.  With ``order = |elems|`` every x outside is
    kept (Lagrange), which gives ``elems`` itself with a generating set.
    """
    group, gens = frozenset([pidentity(_degree(elems))]), []
    for x in sorted(elems):
        if len(group) == order:
            break
        if x not in group:
            bigger = extend(group, gens, x, limit=order)
            if order % len(bigger) == 0:
                group, gens = bigger, [*gens, x]
    return group, gens


def _sylow_subgroup(elems: frozenset[Perm], q: int) -> tuple[frozenset[Perm], list[Perm]]:
    """A Sylow q-subgroup of the group ``elems``, with its generators.

    ``_grown_subgroup`` to the q-part of |elems| ends at a Sylow subgroup: a
    q-subgroup P that is not Sylow has an element x of q-power order in its
    normalizer and outside it, so ``<P, x>`` is a q-group, and x, scanned
    when the group was a subgroup of P, would have been kept.
    """
    q_part = _prime_parts(len(elems)).get(q, 1)
    group, gens = _grown_subgroup(elems, q_part)
    if len(group) != q_part:
        raise AssertionError(
            f"greedy Sylow {q}-subgroup of a group of order {len(elems)} stopped at"
            f" order {len(group)}, expected {q_part}"
        )
    return group, gens


@lru_cache(maxsize=None)
def subgroups_of_order(elems: frozenset[Perm], order: int) -> frozenset[frozenset[Perm]]:
    """All subgroups of the given order, by the exhaustive search ``_subgroups``
    started from each Sylow q-subgroup of the group for one prime q.

    Take a prime q whose part in ``order`` is its part in |G|.  A subgroup H
    of that order has a Sylow q-subgroup of that part, which is Sylow in G,
    so H contains one of G's Sylow q-subgroups.  Those are all conjugate
    (Sylow), so they are the orbit of one of them under conjugation by
    generators of G, and the union of the searches from each misses no H.
    Of several such primes the one with the largest part is taken, to start
    highest in the subgroup lattice.  With none (order 4 in the elementary
    abelian group of order 8, or order 1) the search starts from the trivial
    group.

    Memoized per (group, order): a group's record and
    ``verify_index_p_subgroups`` ask for the same search.
    """
    ambient = sorted(elems)
    whole = _prime_parts(len(elems))
    full = [(part, q) for q, part in _prime_parts(order).items() if whole.get(q) == part]
    if not full:
        starts = [(frozenset([pidentity(_degree(elems))]), [])]
    else:
        sylow, gens = _sylow_subgroup(elems, max(full)[1])
        movers = _grown_subgroup(elems, len(elems))[1]
        starts = [
            (sylow, gens) if conj == sylow else _grown_subgroup(conj, len(conj))
            for conj in _conjugates(sylow, movers)
        ]
    return frozenset(
        sub
        for start, gens in starts
        for sub in _subgroups(ambient, start, gens, order)
        if len(sub) == order
    )


def _record(elements, order: int, solvable: bool) -> SubgroupRecord:
    """The record of a group of ``order`` elements, whose solvability
    ``is_solvable`` has decided from its generators.

    ``elements`` is read once: it is the group's element set when ``order``
    is at most ``INDEX_SEARCH_LIMIT``, else a stream of its elements
    (``StabChain.elements``).  The group is transitive iff the orbit of 0 is
    every point, and its Sylow p-subgroups are its p-cycles' groups, p - 1
    p-cycles each.  An element count other than ``order`` is a bug in the
    chain or the closure, and raises.
    """
    count = n_order_p = 0
    orbit = set()
    for count, g in enumerate(elements, 1):
        n_order_p += _is_p_cycle(g)
        orbit.add(g[0])
    if count != order:
        raise AssertionError(f"{count} elements listed for a group of order {order}")
    degree = len(g)
    sylow = n_order_p // (degree - 1) if degree > 1 and n_order_p else 0
    held = order <= INDEX_SEARCH_LIMIT
    if order % degree != 0:
        idx_count = 0
    else:
        idx_count = len(subgroups_of_order(elements, order // degree)) if held else None
    return SubgroupRecord(
        elements=tuple(sorted(elements)) if held else None,
        order=order,
        transitive=len(orbit) == degree,
        solvable=solvable,
        sylow_p_count=sylow,
        index_p_subgroup_count=idx_count,
    )


def subgroup_closure(gens) -> SubgroupRecord:
    """Generated subgroup with all derived flags; the trivial group of degree
    n is ``[pidentity(n)]``.

    The group's chain comes first.  Its element set is closed only when the
    chain's order is at most ``INDEX_SEARCH_LIMIT``, since the index-p search
    and the normality check read elements only there; a larger group's
    record reads the chain's stream, so no element set of more than
    ``INDEX_SEARCH_LIMIT`` permutations is built (S_7, A_7 and the group of
    order 168 at p = 7)."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("empty generating set: the trivial group of degree n is [pidentity(n)]")
    degree = len(gens[0])
    _require_scale(degree)
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"generator {g} is not a permutation of range({degree})")
    chain = StabChain(degree, gens)
    elements = closure(gens, degree) if chain.order <= INDEX_SEARCH_LIMIT else chain.elements()
    return _record(elements, chain.order, is_solvable(gens))


def _require_scale(n: int) -> None:
    if n > MAX_DEGREE:
        raise ValueError(f"verification scale exceeded: degree {n} > MAX_DEGREE = {MAX_DEGREE}")


def _require_degree(p: int) -> None:
    _require_scale(p)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def normalizer_of_cycle(p: int) -> dict[Perm, int]:
    """Normalizer in the symmetric group of ``<σ>``, σ the p-cycle, with its
    conjugation character: ``{g: a}`` with ``g σ g⁻¹ = σ^a``, in one pass.

    ``g σ g⁻¹ = σ^a`` says ``g∘σ = σ^a∘g``, which at 0 reads
    ``g(1) = g(0) + a``.  So a = g(1) - g(0) mod p is the only candidate, never
    0 since g is one-to-one, and one product checks it.
    """
    powers = [tuple((x + a) % p for x in range(p)) for a in range(p)]  # σ^a: x -> x + a
    out = {}
    for g in itertools.permutations(range(p)):
        a = (g[1] - g[0]) % p
        if g[1:] + g[:1] == pmul(powers[a], g):  # g∘σ == σ^a∘g
            out[g] = a
    return out


def _conjugates(elems: frozenset[Perm], movers: list[Perm] | None = None) -> set[frozenset[Perm]]:
    """The distinct conjugates of a subgroup under the group ``movers``
    generate, by default the symmetric group.

    They are its orbit under conjugation by ``movers``.  The default movers,
    the n-cycle and the transposition (0 1), generate the symmetric group of
    degree n.
    """
    if movers is None:
        n = _degree(elems)
        movers = [pcycle(n), (1, 0, *range(2, n))]
    pairs = [(g, pinv(g)) for g in movers]
    conjugates = {frozenset(elems)}
    todo = list(conjugates)
    for group in todo:  # grows while it is walked
        for g, g_inv in pairs:
            conj = frozenset(pmul(pmul(g, h), g_inv) for h in group)
            if conj not in conjugates:
                conjugates.add(conj)
                todo.append(conj)
    return conjugates


_SIGMA_7 = pcycle(7)

#: Generators of p = 7's seeded family: the chain between the cycle group
#: and its normalizer, plus the known non-solvable transitive groups.  3
#: generates the units mod 7.
SEEDS_7 = (
    (_SIGMA_7,),
    (_SIGMA_7, affine_perm(7, 6)),  # order-2 tame part
    (_SIGMA_7, affine_perm(7, 2)),  # order-3 tame part
    (_SIGMA_7, affine_perm(7, 3)),  # full normalizer
    # (2 6)(4 5) keeps the Fano lines {i, i+1, i+3} mod 7, as the 7-cycle does: order 168
    (_SIGMA_7, (0, 1, 6, 3, 5, 4, 2)),
    (_SIGMA_7, (1, 2, 0, 3, 4, 5, 6)),  # with a 3-cycle: alternating
    (_SIGMA_7, (1, 0, 2, 3, 4, 5, 6)),  # with a transposition: symmetric
)


@lru_cache(maxsize=None)
def transitive_family(p: int) -> tuple[tuple[SubgroupRecord, ...], str]:
    """Transitive subgroups to verify against, and how they were found.

    Returns ``(records, mode)`` with mode "full" (every transitive subgroup,
    p <= 5) or "seeded" (p = 7).  A transitive subgroup of prime degree has
    order divisible by p, so it holds a p-cycle and is conjugate to a group
    containing the standard cycle; the full family is therefore the
    conjugates of the overgroups of that cycle.  Conjugation preserves every
    record field but the element set, so each conjugacy class is recorded
    once.  Memoized: the enumeration is pure.
    """
    _require_degree(p)
    sigma = pcycle(p)
    if p <= 5:
        records = {}
        s_p = list(itertools.permutations(range(p)))  # in sorted order
        for group, gens in _subgroups(s_p, closure([sigma], p), [sigma], len(s_p)).items():
            rec = _record(group, len(group), is_solvable(gens))
            for conj in _conjugates(group):
                records.setdefault(conj, rec._replace(elements=tuple(sorted(conj))))
        return tuple(sorted(records.values(), key=lambda r: r.elements)), "full"
    records = tuple(subgroup_closure(g) for g in SEEDS_7)
    orders = [r.order for r in records]
    if orders != [7, 14, 21, 42, 168, 2520, 5040]:
        raise AssertionError(f"unexpected seeded family orders {orders} at p = {p}")
    return records, "seeded"


def verify_normalizer(p: int) -> dict:
    """Check the order and split cyclic quotient of the cycle normalizer."""
    _require_degree(p)
    character = normalizer_of_cycle(p)
    if len(character) != p * (p - 1):
        raise AssertionError(f"normalizer order {len(character)} != {p * (p - 1)} at p = {p}")
    kernel = {g for g, a in character.items() if a == 1}
    image = sorted(set(character.values()))
    if image != list(range(1, p)) or kernel != closure([pcycle(p)], p):
        raise AssertionError(
            f"conjugation character at p = {p}: image {image}, kernel of order {len(kernel)};"
            f" expected 1..{p - 1} and the cycle group"
        )
    # The stabilizer of 0, the maps x -> a*x, splits the sequence if it is
    # cyclic of order p - 1 and meets the kernel trivially.
    complement = {g for g in character if g[0] == 0}
    meet = len(complement & kernel)
    cyclic = any(closure([g], p) == complement for g in complement)
    if len(complement) != p - 1 or meet != 1 or not cyclic:
        raise AssertionError(
            f"affine complement at p = {p}: order {len(complement)} (expected {p - 1}),"
            f" meets the kernel in {meet} element(s) (expected 1), cyclic={cyclic}"
        )
    return {
        "p": p,
        "normalizer_order": len(character),
        "quotient_cyclic_order": p - 1,
        "complement_order": len(complement),
        "split": True,
    }


def verify_galois_criterion(p: int) -> dict:
    """Solvable <=> unique Sylow p-subgroup, over the verified family."""
    records, mode = transitive_family(p)
    for rec in records:
        if rec.order % p != 0 or rec.order % (p * p) == 0:
            raise AssertionError(
                f"transitive order {rec.order} is not divisible by p = {p} exactly once"
            )
        if rec.solvable != (rec.sylow_p_count == 1):
            raise AssertionError(
                f"criterion fails at p = {p}, order {rec.order}:"
                f" solvable={rec.solvable} but sylow_p_count={rec.sylow_p_count}"
            )
        if rec.solvable:
            # The unique Sylow must be normal: the group sits in its normalizer.
            elems = rec.element_set()
            gen = next(filter(_is_p_cycle, elems))
            sylow = closure([gen], p)
            outside = {pmul(pmul(g, gen), pinv(g)) for g in elems} - sylow
            if outside:
                raise AssertionError(
                    f"solvable group of order {rec.order} at p = {p} not inside its Sylow"
                    f" normalizer: conjugates {sorted(outside)} of {gen} lie outside <{gen}>"
                )
    groups = [{k: v for k, v in rec._asdict().items() if k != "elements"} for rec in records]
    return {"p": p, "enumeration": mode, "transitive_groups": groups, "criterion_holds": True}


def verify_index_p_subgroups(p: int) -> dict:
    """Exactly p index-p subgroups, trivial intersections, pairwise generation.

    Commutative groups (the p-cycle group itself) are skipped: they have a
    single index-p subgroup, the trivial one.  The index-p subgroups of a
    conjugate are the conjugates of its class representative's, with the
    same meets and the same generated orders, so each conjugacy class is
    searched and checked once, at its first record, and its row repeated for
    every conjugate.  The full family holds every conjugate of each group;
    the seeded one holds one group per class.
    """
    records, mode = transitive_family(p)
    rows: dict[frozenset[Perm], dict] = {}  # each checked group and its conjugates -> its row
    for rec in records:
        if not rec.solvable:
            continue
        elems = rec.element_set()
        if elems not in rows:
            row = _index_p_row(elems, p)
            rows.update(dict.fromkeys(_conjugates(elems) if mode == "full" else [elems], row))
    checked = [rows[rec.element_set()] for rec in records if rec.solvable]
    return {"p": p, "enumeration": mode, "groups": checked, "holds": True}


def _index_p_row(elems: frozenset[Perm], p: int) -> dict:
    """``verify_index_p_subgroups``' row for the solvable group ``elems``."""
    order = len(elems)
    if order == p:  # commutative case, excluded by the statement
        return {"order": order, "skipped": "commutative"}
    subs = sorted(subgroups_of_order(elems, order // p), key=sorted)
    if len(subs) != p:
        raise AssertionError(f"p = {p}, order {order}: {len(subs)} index-p subgroups, expected {p}")
    for i, a in enumerate(subs):
        for j, b in enumerate(subs[i + 1 :], i + 1):
            # Both lie in the group and hold the identity: sizes decide.
            meet, generated = len(a & b), len(closure(list(a | b), p))
            if meet != 1 or generated != order:
                raise AssertionError(
                    f"p = {p}, order {order}: index-p subgroups {i} and {j} meet in"
                    f" {meet} element(s) and generate {generated}, expected 1 and {order}"
                )
    return {"order": order, "index_p_subgroups": len(subs)}
