"""Brute-force checks of the degree-p permutation group theory.

Works on honest permutations of {0, ..., p-1} (tuples of images) and keeps
every claim at a scale where exhaustive computation settles it:

* the normalizer of an order-p subgroup of the symmetric group has order
  p(p-1), its quotient by that subgroup is cyclic via the conjugation
  action, and an affine complement realizes the splitting;
* Galois's solvability criterion: a transitive subgroup of the degree-p
  symmetric group is solvable iff it contains a unique Sylow p-subgroup;
* a solvable transitive subgroup other than the p-cycle group has exactly p
  subgroups of index p, pairwise intersecting trivially, any two of which
  generate the whole group.

Every group here is grown by one step, ``extend``: Dimino's coset extension
of a known group by one permutation, and every subgroup is found by one
exhaustive search, ``_subgroups``.  It gives each group's index-p subgroups
and, for p <= 5, the transitive family: the subgroups of the symmetric group
containing the p-cycle, and their conjugates.  For p = 7 a seeded family is
used instead: the chain between the p-cycle group and its normalizer, the
full symmetric and alternating groups, and the simple group of order 168 in
its degree-7 action; results for p = 7 are labelled with that scope.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .model import is_prime

Perm = tuple[int, ...]

#: Degrees beyond this make exhaustive verification meaningless on a desk.
MAX_DEGREE = 7

#: Largest group order for which index-p subgroups are enumerated.
INDEX_SEARCH_LIMIT = 130


def pidentity(n: int) -> Perm:
    return tuple(range(n))


def pmul(a: Perm, b: Perm) -> Perm:
    """Composition a∘b: apply b first."""
    return tuple(map(a.__getitem__, b))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def pcycle(n: int) -> Perm:
    """The full cycle x -> x + 1 mod n."""
    return tuple((x + 1) % n for x in range(n))


def affine_perm(p: int, mult: int, shift: int = 0) -> Perm:
    """x -> mult*x + shift mod p."""
    return tuple((mult * x + shift) % p for x in range(p))


def extend(
    group: frozenset[Perm], gens: list[Perm], new: Perm, limit: int | None = None
) -> frozenset[Perm]:
    """``<group, new>`` for ``group = <gens>``, as a union of right cosets ``group∘r``.

    Each representative times each generator lies in a known coset or starts
    a new one, which is added whole.  With ``limit`` it stops once it knows
    more than ``limit`` elements and returns those cosets, whose size alone
    tells the caller that the group is larger than ``limit``.
    """
    gens = [*gens, new]
    elems = set(group)
    reps = [pidentity(len(new))]
    for rep in reps:  # grows while it is walked
        for g in gens:
            if limit is not None and len(elems) > limit:
                return frozenset(elems)
            prod = pmul(rep, g)
            if prod not in elems:
                elems.update(pmul(h, prod) for h in group)
                reps.append(prod)
    return frozenset(elems)


def _grow(gens, degree: int, limit: int | None = None) -> tuple[frozenset[Perm], list[Perm]]:
    """``extend`` by each of ``gens`` not yet in the group: the group and those used."""
    group = frozenset([pidentity(degree)])
    used: list[Perm] = []
    for g in map(tuple, gens):
        if g not in group:
            group = extend(group, used, g, limit)
            used.append(g)
    return group, used


def closure(gens, degree: int, limit: int | None = None) -> frozenset[Perm]:
    """Subgroup generated by ``gens``; ``limit`` is as for ``extend``."""
    return _grow(gens, degree, limit)[0]


def _degree(perms) -> int:
    return len(next(iter(perms)))


def small_generating_set(elems: frozenset[Perm]) -> list[Perm]:
    """Greedy small generating set for a known subgroup, in sorted order."""
    return _grow(sorted(elems), _degree(elems))[1]


def _commutator(a: Perm, b: Perm) -> Perm:
    return pmul(pmul(a, b), pmul(pinv(a), pinv(b)))


def derived_subgroup(gens: list[Perm]) -> tuple[frozenset[Perm], list[Perm]]:
    """Commutator subgroup of ``<gens>`` (``gens`` nonempty), with its generators.

    The normal closure of the generator commutators: each commutator or
    conjugate outside the group so far extends it (at least doubling it),
    and its conjugates by ``gens`` are queued in turn.
    """
    group = frozenset([pidentity(_degree(gens))])
    dgens: list[Perm] = []
    todo = [_commutator(a, b) for a in gens for b in gens]
    while todo:
        x = todo.pop()
        if x not in group:
            group = extend(group, dgens, x)
            dgens.append(x)
            todo += [pmul(pmul(g, x), pinv(g)) for g in gens]
    return group, dgens


def is_solvable(gens: list[Perm]) -> bool:
    """Derived series of ``<gens>`` reaches the trivial group."""
    while gens:
        derived, dgens = derived_subgroup(gens)
        if len(derived) > 1 and all(g in derived for g in gens):  # nontrivial and perfect
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

    ``elements`` is the sorted tuple of its permutations.
    ``index_p_subgroup_count`` comes from the exhaustive search
    ``subgroups_of_order``; it is None for a group of more than
    ``INDEX_SEARCH_LIMIT`` elements (only the 168-element group and the
    alternating and symmetric groups at p = 7 in practice).
    """

    __slots__ = ()

    def element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "transitive": self.transitive,
            "solvable": self.solvable,
            "sylow_p_count": self.sylow_p_count,
            "index_p_subgroup_count": self.index_p_subgroup_count,
        }


def _subgroups(
    ambient: list[Perm], gens: list[Perm], order: int
) -> dict[frozenset[Perm], list[Perm]]:
    """Every subgroup of ``ambient`` (its sorted elements) containing ``<gens>``
    whose order divides ``order``, with generators.

    Starting at ``<gens>``, each group G found is extended by one element of
    each double coset GbG in ``ambient`` but G until nothing new appears; an
    extension is stopped once past ``order`` elements, and kept only if its
    order divides ``order``.  A subgroup H is reached by adding the elements
    of H one at a time, each group on the way a subgroup of H, so the search
    is exhaustive without any bound on the number of generators H needs.
    """
    start = closure(gens, _degree(ambient))
    found = {start: list(gens)}
    todo = [start]
    while todo:
        group = todo.pop()
        group_gens = found[group]
        tried = set(group)
        for b in ambient:
            if b in tried:
                continue
            tried.update(pmul(pmul(g, b), h) for g in group for h in group)  # <G, gbh> = <G, b>
            bigger = extend(group, group_gens, b, limit=order)
            if order % len(bigger) == 0 and bigger not in found:
                found[bigger] = group_gens + [b]
                todo.append(bigger)
    return found


@lru_cache(maxsize=None)
def subgroups_of_order(elems: frozenset[Perm], order: int) -> frozenset[frozenset[Perm]]:
    """All subgroups of the given order, by the exhaustive search ``_subgroups``.

    Memoized per (group, order): a group's record and
    ``verify_index_p_subgroups`` ask for the same search.
    """
    return frozenset(sub for sub in _subgroups(sorted(elems), [], order) if len(sub) == order)


def is_transitive(elems: frozenset[Perm]) -> bool:
    """A subgroup is transitive iff the orbit of 0 is everything."""
    return {g[0] for g in elems} == set(range(_degree(elems)))


def record_from_elements(elems: frozenset[Perm]) -> SubgroupRecord:
    degree = _degree(elems)
    order = len(elems)
    n_order_p = sum(map(_is_p_cycle, elems))
    sylow = n_order_p // (degree - 1) if degree > 1 and n_order_p else 0
    if order % degree == 0 and order <= INDEX_SEARCH_LIMIT:
        idx_count = len(subgroups_of_order(elems, order // degree))
    elif order % degree != 0:
        idx_count = 0
    else:
        idx_count = None
    return SubgroupRecord(
        elements=tuple(sorted(elems)),
        order=order,
        transitive=is_transitive(elems),
        solvable=is_solvable(small_generating_set(elems)),
        sylow_p_count=sylow,
        index_p_subgroup_count=idx_count,
    )


def subgroup_closure(gens, degree: int | None = None) -> SubgroupRecord:
    """Generated subgroup with all derived flags."""
    gens = [tuple(g) for g in gens]
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = len(gens[0])
    _require_scale(degree)
    return record_from_elements(closure(gens, degree))


def _require_scale(n: int) -> None:
    if n > MAX_DEGREE:
        raise ValueError(f"verification scale exceeded: degree {n} > MAX_DEGREE = {MAX_DEGREE}")


def _require_degree(p: int) -> None:
    _require_scale(p)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    if p == 2:
        return 1
    for g in range(2, p):
        acc, order = g, 1
        while acc != 1:
            acc = acc * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


def normalizer_of_cycle(p: int) -> list[Perm]:
    """Normalizer in the symmetric group of the subgroup generated by the p-cycle."""
    sigma = pcycle(p)
    cycle_group = closure([sigma], p)
    out = []
    for g in itertools.permutations(range(p)):
        if pmul(pmul(g, sigma), pinv(g)) in cycle_group:
            out.append(g)
    return out


def _conjugates(elems: frozenset[Perm]) -> set[frozenset[Perm]]:
    """The distinct conjugates of a subgroup under the symmetric group."""
    conjugates = set()
    for g in itertools.permutations(range(_degree(elems))):
        g_inv = pinv(g)
        conjugates.add(frozenset(pmul(pmul(g, h), g_inv) for h in elems))
    return conjugates


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
        for group in _subgroups(s_p, [sigma], len(s_p)):
            rec = record_from_elements(group)
            for conj in _conjugates(group):
                records.setdefault(conj, rec._replace(elements=tuple(sorted(conj))))
        return tuple(sorted(records.values(), key=lambda r: r.elements)), "full"
    # p == 7: the chain between the cycle group and its normalizer, plus the
    # known non-solvable transitive families.
    tau = affine_perm(p, primitive_root(p))
    seeds = [
        [sigma],
        [sigma, pmul(pmul(tau, tau), tau)],  # order-2 tame part
        [sigma, pmul(tau, tau)],  # order-3 tame part
        [sigma, tau],  # full normalizer
        # (2 6)(4 5) keeps the Fano lines {i, i+1, i+3} mod 7, as sigma does: order 168
        [sigma, (0, 1, 6, 3, 5, 4, 2)],
        [sigma, (1, 2, 0) + tuple(range(3, p))],  # with a 3-cycle: alternating
        [sigma, (1, 0) + tuple(range(2, p))],  # with a transposition: symmetric
    ]
    records = tuple(subgroup_closure(g, p) for g in seeds)
    orders = [r.order for r in records]
    if orders != [7, 14, 21, 42, 168, 2520, 5040]:
        raise RuntimeError(f"unexpected seeded family orders {orders}")
    return records, "seeded"


def verify_normalizer(p: int) -> dict:
    """Check the order and split cyclic quotient of the cycle normalizer."""
    _require_degree(p)
    sigma = pcycle(p)
    cycle_group = closure([sigma], p)
    normalizer = normalizer_of_cycle(p)
    if len(normalizer) != p * (p - 1):
        raise AssertionError(f"normalizer order {len(normalizer)} != {p * (p - 1)}")
    # Conjugation character: g sigma g^-1 = sigma^a defines g -> a.
    power_of = {}
    acc = sigma
    for a in range(1, p):
        power_of[acc] = a
        acc = pmul(acc, sigma)
    image = set()
    kernel = 0
    for g in normalizer:
        a = power_of[pmul(pmul(g, sigma), pinv(g))]
        image.add(a)
        if a == 1:
            kernel += 1
    if image != set(range(1, p)) or kernel != p:
        raise AssertionError("conjugation character is not onto with kernel the cycle group")
    tau = affine_perm(p, primitive_root(p))
    complement = closure([tau], p)
    if len(complement) != p - 1 or (complement & cycle_group) != {pidentity(p)}:
        raise AssertionError("affine complement does not split the sequence")
    return {
        "p": p,
        "normalizer_order": len(normalizer),
        "quotient_cyclic_order": p - 1,
        "complement_order": len(complement),
        "split": True,
    }


def verify_galois_criterion(p: int) -> dict:
    """Solvable <=> unique Sylow p-subgroup, over the verified family."""
    records, mode = transitive_family(p)
    for rec in records:
        if rec.order % p != 0 or rec.order % (p * p) == 0:
            raise AssertionError(f"transitive order {rec.order} not divisible by p exactly once")
        if rec.solvable != (rec.sylow_p_count == 1):
            raise AssertionError(f"criterion fails at order {rec.order}")
        if rec.solvable:
            # The unique Sylow must be normal: the group sits in its normalizer.
            elems = rec.element_set()
            gen = next(filter(_is_p_cycle, elems))
            sylow = closure([gen], p)
            for g in elems:
                if pmul(pmul(g, gen), pinv(g)) not in sylow:
                    raise AssertionError("solvable group not inside its Sylow normalizer")
    return {
        "p": p,
        "enumeration": mode,
        "transitive_groups": [rec.to_json_obj() for rec in records],
        "criterion_holds": True,
    }


def verify_index_p_subgroups(p: int) -> dict:
    """Exactly p index-p subgroups, trivial intersections, pairwise generation.

    Commutative groups (the p-cycle group itself) are skipped: they have a
    single index-p subgroup, the trivial one.
    """
    records, mode = transitive_family(p)
    checked = []
    for rec in records:
        if not rec.solvable:
            continue
        if rec.order == p:  # commutative case, excluded by the statement
            checked.append({"order": rec.order, "skipped": "commutative"})
            continue
        subs = sorted(
            subgroups_of_order(rec.element_set(), rec.order // p), key=sorted
        )
        if len(subs) != p:
            raise AssertionError(f"order {rec.order}: {len(subs)} index-p subgroups, expected {p}")
        ident = pidentity(p)
        for i, a in enumerate(subs):
            for b in subs[i + 1 :]:
                if a & b != {ident}:
                    raise AssertionError("index-p subgroups intersect nontrivially")
                if closure(list(a | b), p) != rec.element_set():
                    raise AssertionError("two index-p subgroups fail to generate")
        checked.append({"order": rec.order, "index_p_subgroups": len(subs)})
    return {"p": p, "enumeration": mode, "groups": checked, "holds": True}
