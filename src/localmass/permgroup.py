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

For p <= 5 the transitive family is enumerated exhaustively: every subgroup
containing the p-cycle is found by growing the cycle group one permutation at
a time, and the rest are its conjugates.  For p = 7 a seeded family is used
instead: the chain between the p-cycle group and its normalizer, the full
symmetric and alternating groups, and the simple group of order 168 in its
degree-7 action; results for p = 7 are labelled with that scope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
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


def closure(gens, degree: int, limit: int | None = None) -> frozenset[Perm]:
    """Subgroup generated by ``gens``, by Cayley-graph search.

    With ``limit`` the search stops as soon as it knows more than ``limit``
    elements and returns that partial set, whose size alone tells the caller
    that the group is larger than ``limit``.
    """
    if limit is None:
        limit = math.factorial(degree)
    ident = pidentity(degree)
    gens = [tuple(g) for g in gens]
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = pmul(g, h)
                if prod not in elems:
                    elems.add(prod)
                    if len(elems) > limit:
                        return frozenset(elems)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(elems)


def small_generating_set(elems: frozenset[Perm], degree: int) -> list[Perm]:
    """Greedy small generating set for a known subgroup."""
    gens: list[Perm] = []
    cur: frozenset[Perm] = frozenset([pidentity(degree)])
    for x in sorted(elems):
        if x not in cur:
            gens.append(x)
            cur = closure(gens, degree)
            if len(cur) == len(elems):
                break
    return gens


def _commutator(a: Perm, b: Perm) -> Perm:
    return pmul(pmul(a, b), pmul(pinv(a), pinv(b)))


def derived_subgroup(gens: list[Perm], degree: int) -> frozenset[Perm]:
    """Commutator subgroup of <gens>: normal closure of generator commutators."""
    ident = pidentity(degree)
    seeds = {_commutator(a, b) for a in gens for b in gens}
    seeds.discard(ident)
    dgens = list(seeds)
    elems = closure(dgens, degree)
    inv_gens = [pinv(g) for g in gens]
    changed = True
    while changed:
        changed = False
        for g, gi in zip(gens, inv_gens):
            for h in list(dgens):
                conj = pmul(pmul(g, h), gi)
                if conj not in elems:
                    dgens.append(conj)
                    elems = closure(dgens, degree)
                    changed = True
    return elems


def is_solvable(gens: list[Perm], degree: int) -> bool:
    """Derived series reaches the trivial group."""
    cur_gens = list(gens)
    cur_order = len(closure(cur_gens, degree))
    while cur_order > 1:
        nxt = derived_subgroup(cur_gens, degree)
        if len(nxt) == cur_order:
            return False
        cur_gens = small_generating_set(nxt, degree)
        cur_order = len(nxt)
    return True


def _order_is_p(g: Perm, p: int) -> bool:
    """Whether g**p is the identity: g has order p or is the identity."""
    acc = g
    for _ in range(p - 1):
        acc = pmul(acc, g)
    return acc == pidentity(p)


@dataclass(frozen=True)
class SubgroupRecord:
    """A subgroup of the degree-p symmetric group with its derived flags.

    ``index_p_subgroup_count`` is None when the group is too large for the
    exhaustive index-p search (only the 168-element group and the alternating
    and symmetric groups at p = 7 in practice).
    """

    elements: tuple[Perm, ...]
    order: int
    transitive: bool
    solvable: bool
    sylow_p_count: int
    index_p_subgroup_count: int | None

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


@lru_cache(maxsize=None)
def subgroups_of_order(
    elems: frozenset[Perm], degree: int, order: int
) -> frozenset[frozenset[Perm]]:
    """All subgroups of the given order, by closure over generator pairs.

    Complete for the orders arising here: every subgroup of the ambient
    groups involved (order <= INDEX_SEARCH_LIMIT) is 2-generated.  Only
    elements whose order divides ``order`` are paired, a pair inside a
    subgroup already found is skipped, and each pair closure stops once it
    exceeds ``order``.  Memoized per (group, order): a group's record and
    ``verify_index_p_subgroups`` ask for the same search.
    """
    listed = [g for g in sorted(elems) if order % len(closure([g], degree, limit=order)) == 0]
    found = []
    for i, a in enumerate(listed):
        holding_a = [sub for sub in found if a in sub]
        for b in listed[i:]:
            if any(b in sub for sub in holding_a):
                continue
            sub = closure([a, b], degree, limit=order)
            if len(sub) == order:
                found.append(sub)
                holding_a.append(sub)
    return frozenset(found)


def is_transitive(elems: frozenset[Perm], degree: int) -> bool:
    """A subgroup is transitive iff the orbit of 0 is everything."""
    return {g[0] for g in elems} == set(range(degree))


def record_from_elements(elems: frozenset[Perm], degree: int) -> SubgroupRecord:
    gens = small_generating_set(elems, degree) or [pidentity(degree)]
    order = len(elems)
    n_order_p = sum(1 for g in elems if _order_is_p(g, degree)) - 1  # identity excluded
    sylow = n_order_p // (degree - 1) if degree > 1 and n_order_p else 0
    if order % degree == 0 and order <= INDEX_SEARCH_LIMIT:
        idx_count = len(subgroups_of_order(elems, degree, order // degree))
    elif order % degree != 0:
        idx_count = 0
    else:
        idx_count = None
    return SubgroupRecord(
        elements=tuple(sorted(elems)),
        order=order,
        transitive=is_transitive(elems, degree),
        solvable=is_solvable(gens, degree),
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
    if degree > MAX_DEGREE:
        raise ValueError("verification scale exceeded")
    return record_from_elements(closure(gens, degree), degree)


def _require_degree(p: int) -> None:
    if p > MAX_DEGREE:
        raise ValueError("verification scale exceeded")
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


def _linear_degree7_gens() -> list[Perm]:
    # The simple group of order 168 acting on the 7 nonzero vectors of F_2^3
    # (vector v+1 encoded in the bits of v+1): a transvection and a basis cycle.
    def bits(v):
        return ((v >> 0) & 1, (v >> 1) & 1, (v >> 2) & 1)

    def unbits(t):
        return t[0] | (t[1] << 1) | (t[2] << 2)

    def apply(mat, v):
        x = bits(v + 1)
        y = tuple(sum(mat[i][j] * x[j] for j in range(3)) % 2 for i in range(3))
        return unbits(y) - 1

    transvection = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    basis_cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    return [tuple(apply(m, v) for v in range(7)) for m in (transvection, basis_cycle)]


def _overgroups(gens: list[Perm], degree: int) -> dict[frozenset[Perm], list[Perm]]:
    """Every subgroup of the symmetric group containing ``<gens>``, with generators.

    Starting at ``<gens>``, each group found is extended by every permutation
    outside it until nothing new appears.  A subgroup H containing ``<gens>``
    is reached by adding the elements of H one at a time, so the search is
    exhaustive without any bound on the number of generators H needs.
    """
    start = closure(gens, degree)
    found = {start: list(gens)}
    todo = [start]
    while todo:
        group = todo.pop()
        group_gens = found[group]
        tried = set(group)
        for b in itertools.permutations(range(degree)):
            if b in tried:
                continue
            tried.update(pmul(g, b) for g in group)  # <G, gb> = <G, b>
            bigger = closure(group_gens + [b], degree)
            if bigger not in found:
                found[bigger] = group_gens + [b]
                todo.append(bigger)
    return found


def _conjugates(elems: frozenset[Perm], degree: int) -> set[frozenset[Perm]]:
    """The distinct conjugates of a subgroup under the symmetric group."""
    conjugates = set()
    for g in itertools.permutations(range(degree)):
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
        for group in _overgroups([sigma], p):
            rec = record_from_elements(group, p)
            for conj in _conjugates(group, p):
                records.setdefault(conj, replace(rec, elements=tuple(sorted(conj))))
        return tuple(sorted(records.values(), key=lambda r: r.elements)), "full"
    # p == 7: the chain between the cycle group and its normalizer, plus the
    # known non-solvable transitive families.
    tau = affine_perm(p, primitive_root(p))
    seeds = [
        [sigma],
        [sigma, pmul(pmul(tau, tau), tau)],  # order-2 tame part
        [sigma, pmul(tau, tau)],  # order-3 tame part
        [sigma, tau],  # full normalizer
        _linear_degree7_gens(),
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
            gen = next(g for g in elems if g != pidentity(p) and _order_is_p(g, p))
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
            subgroups_of_order(rec.element_set(), p, rec.order // p), key=sorted
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
