"""Right-angled Coxeter groups, ShortLex normal forms and Davis-complex balls.

Generators are the vertices of a complex's 1-skeleton, one involution per
vertex, with commuting relations along edges.  Words are tuples of
generator indices; the normal form is the ShortLex least word for the
element, built one letter at a time.  The breadth-first search over the
group records each element's right descents as it meets them.
"""

from collections import Counter
from typing import NamedTuple, Optional

from .complexes import scan_nonadjacent_pairs


class ResourceLimitError(ValueError):
    """A construction would exceed its configured size bound."""


class Racg:
    """Right-angled Coxeter group on generators 0..n-1."""

    def __init__(self, generators, commuting_pairs):
        self.n = int(generators)
        self.commuting = [set() for _ in range(self.n)]
        for (u, v) in commuting_pairs:
            if u == v:
                raise ValueError("generator %d cannot commute with itself" % u)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("generator pair (%d,%d) out of range" % (u, v))
            self.commuting[u].add(v)
            self.commuting[v].add(u)
        self.commuting = tuple(frozenset(s) for s in self.commuting)

    def __repr__(self):
        edges = sum(len(s) for s in self.commuting) // 2
        return "Racg(%d generators, %d commuting pairs)" % (self.n, edges)

    # -- word arithmetic -------------------------------------------------

    def normal_form(self, word):
        """ShortLex least word for the group element.

        Reduced words are the orderings of the element's heap (Viennot
        1986), and the normal form is its greedy, least ordering.  Each
        letter g of ``word`` moves left past the trailing letters that
        commute with it.  If it stops on g, the two cancel; otherwise it
        settles after the letter that stopped it, before the first later
        letter greater than g.
        """
        out = []
        for g in word:
            if not 0 <= g < self.n:
                raise ValueError("letter %r is not a generator" % (g,))
            commuting = self.commuting[g]
            i = len(out)
            while i and out[i - 1] in commuting:
                i -= 1
            if i and out[i - 1] == g:
                del out[i - 1]
            else:
                while i < len(out) and out[i] < g:
                    i += 1
                out.insert(i, g)
        return tuple(out)

    def ball_sizes(self, radius):
        """Sphere sizes |S_0| .. |S_radius|, counted over ``ball`` up to the
        first empty sphere."""
        return sphere_sizes(self.ball(radius), radius)

    def ball(self, radius, max_vertices=None):
        """Every normal form of length <= radius, mapped to its right
        descents (the s with len(w s) < len(w)); ResourceLimitError as soon
        as more than ``max_vertices`` (when given) are found.  Stops at the
        first empty sphere: a finite group has no longer elements.

        The descents of a word are the generators that reach it from the
        previous sphere, and its other generators are exactly those that
        lengthen it, so each word is extended by those only.
        """
        sphere = {(): frozenset()}
        ball = dict(sphere)
        for _ in range(radius):
            if not sphere:
                break
            nxt = {}
            for w, descents in sphere.items():
                for g in range(self.n):
                    if g in descents:
                        continue
                    nf = self.normal_form(w + (g,))
                    if nf in nxt:
                        nxt[nf].add(g)
                        continue
                    nxt[nf] = {g}
                    if max_vertices is not None and len(ball) + len(nxt) > max_vertices:
                        raise ResourceLimitError(
                            "ball of radius %d exceeds the bound of %d vertices"
                            % (radius, max_vertices))
            sphere = {w: frozenset(d) for w, d in nxt.items()}
            ball.update(sphere)
        return ball

    # no command calls this: the brute-force Davis oracle does, and perfbench traces it
    def min_coset_rep(self, word, parabolic):
        """ShortLex least element of word * W_J by greedy descent."""
        cur = self.normal_form(word)
        gens = sorted(parabolic)
        improved = True
        while improved:
            improved = False
            for s in gens:
                cand = self.normal_form(cur + (s,))
                if (len(cand), cand) < (len(cur), cur):
                    cur = cand
                    improved = True
                    break
        return cur


def racg_from_skeleton(complex_):
    """RACG with one generator per vertex and commuting pairs per edge."""
    return Racg(complex_.vertex_count, complex_.faces(1))


def sphere_sizes(words, radius):
    """How many of the normal forms ``words`` have each length 0..radius,
    ending at the first empty sphere: a finite group has no longer elements."""
    sizes = Counter(map(len, words))
    last = min(max(radius, 0), max(sizes, default=-1) + 1)
    return [sizes[k] for k in range(last + 1)]


class DavisBall:
    """Finite ball in the Davis complex of a RACG over a complex K.

    Cells are the cosets wW_J, J a simplex of K (Davis 2008), stored as
    (w, J) with w the shortest element, so J misses the right descents
    D_R(w) (Bjorner-Brenti 2005), which ``Racg.ball`` returns.  The ball
    of radius r keeps the cells with len(w) + |J| <= r; g is interior when
    len(g) + |J - D_R(g)| <= r for every J.
    """

    def __init__(self, group, complex_, radius, max_vertices):
        self.group = group
        self.base = complex_
        self.radius = int(radius)
        self._descents = group.ball(self.radius, max_vertices=max_vertices)
        self.vertices = frozenset(self._descents)
        faces_by_dim = [complex_.faces(d)
                        for d in range(min(complex_.dim() + 1, self.radius))]
        cells = [(w, J) for w, descents in self._descents.items()
                 for faces in faces_by_dim[:self.radius - len(w)]
                 for J in faces if descents.isdisjoint(J)]
        self.cells = tuple(sorted(cells, key=lambda c: (len(c[1]), c[1], c[0])))

    def f_vector(self):
        sizes = Counter(len(J) for _, J in self.cells)
        return tuple([len(self.vertices)]
                     + [sizes[d] for d in range(1, max(sizes, default=0) + 1)])

    def interior_vertices(self):
        """Vertices whose whole star in the Davis complex lies in the ball."""
        facets = [set(f) for f in self.base.facets]
        return sorted(w for w, descents in self._descents.items()
                      if all(len(w) + len(f - descents) <= self.radius for f in facets))

    def to_json(self):
        return {
            "ground": self.base.vertex_count,
            "radius": self.radius,
            "vertex_words": sorted(list(w) for w in self.vertices),
            "cells": [{"J": list(J), "coset": list(rep)} for rep, J in self.cells],
        }


def davis_ball(group, complex_, radius, max_vertices=200000):
    """The Davis ball of the given radius, refused before any work when the
    radius is negative or not below ``max_vertices`` (an infinite group has
    more than ``radius`` vertices in that ball)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius >= max_vertices:
        raise ResourceLimitError("radius %d is not below the bound of %d vertices"
                                 % (radius, max_vertices))
    return DavisBall(group, complex_, radius, max_vertices=max_vertices)


class CapraceReport(NamedTuple):
    passes: bool
    witness: Optional[tuple]  # the least (sorted 5-vertex tuple, "3-points" | "edge-point")
    count: int


def caprace_criterion(complex_):
    """Scan for full subcomplexes forbidden by the relative-hyperbolicity test.

    Forbidden: a full 5-vertex subcomplex isomorphic to the suspension of
    3 points, or of (edge and a point).  The suspension points are a
    non-adjacent pair and the other three vertices lie in their common
    neighbourhood; ``scan_nonadjacent_pairs`` counts them and keeps the
    least.
    """
    scan = scan_nonadjacent_pairs(complex_)
    return CapraceReport(not scan.caprace_witness_count, scan.caprace_witness,
                         scan.caprace_witness_count)
