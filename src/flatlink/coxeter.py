"""Right-angled Coxeter groups, ShortLex normal forms and Davis-complex balls.

Generators are the vertices of a complex's 1-skeleton, one involution per
vertex, with commuting relations along edges.  Words are tuples of
generator indices; the normal form is the ShortLex least word for the
element, computed with the piling (heap of pieces) representation.
"""

from typing import NamedTuple

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
        self._blockers = tuple(
            frozenset(set(range(self.n)) - self.commuting[g] - {g})
            for g in range(self.n))

    def commutes(self, a, b):
        return b in self.commuting[a]

    def __repr__(self):
        edges = sum(len(s) for s in self.commuting) // 2
        return "Racg(%d generators, %d commuting pairs)" % (self.n, edges)

    # -- word arithmetic -------------------------------------------------

    def normal_form(self, word):
        """ShortLex least word for the group element.

        Piles: each generator keeps a stack holding 1 for its own letters
        and 0 for blockers from non-commuting letters.  A letter cancels
        when its own pile shows an unblocked copy on top; the normal form
        is read off by repeatedly taking the least available generator.
        """
        piles = [[] for _ in range(self.n)]
        count = 0
        for g in word:
            if not 0 <= g < self.n:
                raise ValueError("letter %r is not a generator" % (g,))
            pile = piles[g]
            if pile and pile[-1] == 1:
                pile.pop()
                for j in self._blockers[g]:
                    piles[j].pop()
                count -= 1
            else:
                pile.append(1)
                for j in self._blockers[g]:
                    piles[j].append(0)
                count += 1

        out = []
        positions = [0] * self.n  # read piles bottom-up
        lengths = [len(p) for p in piles]
        for _ in range(count):
            for g in range(self.n):
                if positions[g] < lengths[g] and piles[g][positions[g]] == 1:
                    out.append(g)
                    positions[g] += 1
                    for j in self._blockers[g]:
                        positions[j] += 1
                    break
            else:
                raise AssertionError("piling invariant broken")
        return tuple(out)

    def ball_sizes(self, radius):
        """Sphere sizes |S_0| .. |S_radius|, counted over ``ball``."""
        return sphere_sizes(self.ball(radius), radius)

    def ball(self, radius, max_vertices=None):
        """All normal forms of length <= radius; ResourceLimitError as soon
        as more than ``max_vertices`` (when given) are found.  Stops at the
        first empty sphere: a finite group has no longer elements."""
        sphere = {()}
        seen = {()}
        for _ in range(radius):
            if not sphere:
                break
            nxt = set()
            for w in sphere:
                for g in range(self.n):
                    nf = self.normal_form(w + (g,))
                    if nf not in seen and len(nf) == len(w) + 1:
                        nxt.add(nf)
                        if max_vertices is not None and len(seen) + len(nxt) > max_vertices:
                            raise ResourceLimitError(
                                "ball of radius %d exceeds the bound of %d vertices"
                                % (radius, max_vertices))
            seen |= nxt
            sphere = nxt
        return seen

    def right_descents(self, word):
        """Generators s with len(word * s) < len(word), for a normal-form word:
        those with no blocker after their last letter, which can move to the end."""
        descents = set()
        later = set()
        for g in reversed(word):
            if self._blockers[g].isdisjoint(later):
                descents.add(g)
            later.add(g)
        return frozenset(descents)

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
    """How many of the normal forms ``words`` have each length 0..radius."""
    sizes = [0] * (max(radius, 0) + 1)
    for w in words:
        sizes[len(w)] += 1
    return sizes


class DavisBall:
    """Finite ball in the Davis complex of a RACG over a complex K.

    Cells are the cosets wW_J, J a simplex of K (Davis 2008), stored as
    (w, J) with w the shortest element, so J misses the right descents
    D_R(w) (Bjorner-Brenti 2005).  The ball of radius r keeps the cells
    with len(w) + |J| <= r; g is interior when len(g) + |J - D_R(g)| <= r
    for every J.
    """

    def __init__(self, group, complex_, radius, max_vertices=200000):
        self.group = group
        self.base = complex_
        self.radius = int(radius)
        self.vertices = frozenset(group.ball(self.radius, max_vertices=max_vertices))
        self._descents = {w: group.right_descents(w) for w in self.vertices}
        faces_by_dim = [complex_.faces(d) for d in range(complex_.dim() + 1)]
        cells = [(w, J) for w, descents in self._descents.items()
                 for faces in faces_by_dim[:self.radius - len(w)]
                 for J in faces if descents.isdisjoint(J)]
        self.cells = tuple(sorted(cells, key=lambda c: (len(c[1]), c[1], c[0])))

    def cells_of_dim(self, d):
        return [c for c in self.cells if len(c[1]) == d]

    def f_vector(self):
        top = max((len(J) for _, J in self.cells), default=0)
        counts = [len(self.vertices)]
        counts += [len(self.cells_of_dim(d)) for d in range(1, top + 1)]
        return tuple(counts)

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
    witnesses: tuple  # ((sorted 5-vertex tuple, "3-points" | "edge-point"), ...)


def caprace_criterion(complex_):
    """Scan for full subcomplexes forbidden by the relative-hyperbolicity test.

    Forbidden: a full 5-vertex subcomplex isomorphic to the suspension of
    3 points, or of (edge and a point).  The suspension points are a
    non-adjacent pair and the other three vertices lie in their common
    neighbourhood; ``scan_nonadjacent_pairs`` finds them.
    """
    witnesses = scan_nonadjacent_pairs(complex_).caprace_witnesses
    return CapraceReport(not witnesses, witnesses)
