"""Permutations of ``range(n)`` as tuples of images, and stabilizer chains
of the groups they generate.

A stabilizer chain (Sims 1970; Seress, *Permutation Group Algorithms*,
2003) gives a group's order and a membership test without listing its
elements, and lists them, when asked, one at a time.  ``localmass.permgroup``
holds every group of more than ``INDEX_SEARCH_LIMIT`` elements this way.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

Perm = tuple[int, ...]


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


class StabChain:
    """A stabilizer chain (Sims 1970) of a group of permutations of
    ``range(degree)``, with base 0, 1, ..., degree - 1; deterministic
    Schreier–Sims.

    Level k holds the strong generators that fix 0, ..., k-1 and a
    transversal: the orbit of k under them, each image x mapped to a coset
    representative u, an element of the group with u(k) = x.  Every element
    is one product u_0∘u_1∘...∘u_{degree-1} of representatives, so the order
    is the product of the orbit lengths, and a permutation lies in the group
    iff sifting it through the levels leaves the identity.  No element set
    is built: the chain of S_7 holds 28 representatives, identities
    included.
    """

    __slots__ = ("degree", "strong", "transversals")

    def __init__(self, degree: int, gens=()):
        ident = pidentity(degree)
        self.degree = degree
        self.strong: list[list[Perm]] = [[] for _ in range(degree)]
        self.transversals: list[dict[int, Perm]] = [{k: ident} for k in range(degree)]
        for g in gens:
            self.add(g)

    @property
    def order(self) -> int:
        return math.prod(map(len, self.transversals))

    def _sift(self, g: Perm, level: int = 0) -> tuple[Perm, int]:
        """``(h, k)``: g stripped by one representative at each of the levels
        ``level``, ..., k-1, where k is the first level whose orbit misses
        h(k), or ``degree`` when every level is passed, and h is then the
        identity."""
        for k in range(level, self.degree):
            x = g[k]
            if x != k:
                u = self.transversals[k].get(x)
                if u is None:
                    return g, k
                g = pmul(pinv(u), g)
        return g, self.degree

    def __contains__(self, g: Perm) -> bool:
        return self._sift(g)[1] == self.degree

    def add(self, g: Perm) -> bool:
        """Grow the group by g; whether g was outside it."""
        h, k = self._sift(g)
        if k == self.degree:
            return False
        self._extend(h, 0, k)
        return True

    def _extend(self, s: Perm, low: int, high: int) -> None:
        """Make s, an element fixing 0, ..., high-1, a strong generator of
        the levels ``high`` down to ``low``.

        At each level every pair (generator t, representative u) is placed
        once: t∘u starts a new representative if it moves k outside the
        orbit, and the pairs of that one are queued; otherwise the Schreier
        generator u_{t(x)}⁻¹∘t∘u (x = u(k)), which fixes 0, ..., k, is sifted
        from level k+1 and what is left extends the deeper levels.  Once
        every pair passes, the products of representatives are the group
        (Schreier's lemma, level by level from the deepest).
        """
        for k in range(high, low - 1, -1):
            strong, transversal = self.strong[k], self.transversals[k]
            strong.append(s)
            todo = [(s, u) for u in transversal.values()]
            while todo:
                t, u = todo.pop()
                tu = pmul(t, u)
                v = transversal.get(tu[k])
                if v is None:
                    transversal[tu[k]] = tu
                    todo += [(t2, tu) for t2 in strong]
                    continue
                h, j = self._sift(pmul(pinv(v), tu), k + 1)
                if j < self.degree:
                    self._extend(h, k + 1, j)

    def elements(self):
        """Every element once, each built when it is read, so one is alive
        at a time: the inverses (u_0∘...∘u_{degree-1})⁻¹, which run over the
        group since it is closed under inversion."""
        levels = [list(map(pinv, t.values())) for t in self.transversals if len(t) > 1]
        return _products(levels) if levels else iter([pidentity(self.degree)])


def _products(levels: list[list[Perm]]):
    """Every product x∘w, w from ``levels[0]`` and x from
    ``_products(levels[1:])``, the deepest level's permutations themselves.

    Each x is repeated once per w and met by the cycle of w's gathers
    ``itemgetter(*w)``, so the stream is C-level iterators, one per level;
    nothing runs in Python per element.
    """
    if len(levels) == 1:
        return iter(levels[0])
    gathers = [itemgetter(*w) for w in levels[0]]
    each_repeated = map(itertools.repeat, _products(levels[1:]), itertools.repeat(len(gathers)))
    return map(itemgetter.__call__, itertools.cycle(gathers), itertools.chain.from_iterable(each_repeated))
