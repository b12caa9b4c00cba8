"""Links as edge cycles in a triangulated homology 3-sphere or as signed
planar diagrams; exact pairwise linking numbers by two independent methods;
the obstruction classification over the linking matrix.

The simplicial method is purely homological: Lk(i, j) is the class of
component i, as a multiple of the meridian of j, in the first homology of
the complement of j, which is infinite cyclic.  The meridian circles the
first edge of j, one step per signed tetrahedron through it, and is
refused unless the steps close up.  If j is a full subcomplex, its
complement deformation-retracts onto the full subcomplex spanned by the
other vertices (Rourke-Sanderson, Introduction to Piecewise-Linear
Topology, on derived neighbourhoods).  Squares of a flag complex are full;
a component that is not is made full by starring the faces its vertices
span beyond the cycle: its chords, and the triangle a 3-cycle spans
(stellar subdivision, which keeps the PL sphere and its orientation).
"""

from collections import deque
from enum import Enum
from itertools import combinations, permutations
from typing import NamedTuple

from .complexes import _parity, _stellar_subdivision
from .homology import IntegerMatrix, is_homology_3sphere, smith_normal_form


def _ints(seq):
    """Whether ``seq`` is a list or tuple of plain ints (bool is not one)."""
    return isinstance(seq, (list, tuple)) and all(type(x) is int for x in seq)


class EdgeCycleLink:
    """Disjoint oriented edge cycles in an ambient simplicial complex."""

    def __init__(self, ambient, components, orientations=None):
        self.ambient = ambient
        if (not isinstance(components, (list, tuple))
                or any(not isinstance(c, (list, tuple)) for c in components)):
            raise ValueError("components must be a list of vertex-id lists")
        self.components = tuple(tuple(c) for c in components)
        if orientations is None:
            orientations = (1,) * len(self.components)
        if (not isinstance(orientations, (list, tuple))
                or any(type(o) is not int or o not in (1, -1) for o in orientations)):
            raise ValueError("orientations must be a list of +1 or -1")
        self.orientations = tuple(orientations)
        if len(self.orientations) != len(self.components):
            raise ValueError("one orientation per component required")
        seen = set()
        for ci, comp in enumerate(self.components):
            for v in comp:
                if type(v) is not int or not 0 <= v < ambient.vertex_count:
                    raise ValueError("component %d names %r, not a vertex id in "
                                     "range(%d)" % (ci, v, ambient.vertex_count))
            if len(comp) < 3 or len(set(comp)) != len(comp):
                raise ValueError("component %d must have >= 3 distinct vertices" % ci)
            for k in range(len(comp)):
                u, v = comp[k], comp[(k + 1) % len(comp)]
                if v not in ambient.neighbors(u):
                    raise ValueError("component %d uses non-edge (%d,%d)" % (ci, u, v))
            overlap = seen & set(comp)
            if overlap:
                raise ValueError("components share vertex %d" % min(overlap))
            seen |= set(comp)

    def __len__(self):
        return len(self.components)

    def to_json(self):
        return {"components": [list(c) for c in self.components],
                "orientations": list(self.orientations)}

    @classmethod
    def from_json(cls, ambient, data):
        if not isinstance(data, dict) or "components" not in data:
            raise ValueError("link JSON needs 'components'")
        return cls(ambient, data["components"], data.get("orientations"))


class PlanarDiagram:
    """Signed crossing data of a link diagram.

    Only what linking numbers need is stored: each crossing records which
    component passes over, which under, and its sign; ``order`` lists each
    component's crossings in traversal order.  Planarity is not certified.
    """

    def __init__(self, m, crossings, order):
        if (type(m) is not int or not isinstance(crossings, (list, tuple))
                or not all(_ints(c) and len(c) == 3 for c in crossings)
                or not isinstance(order, (list, tuple)) or not all(map(_ints, order))):
            raise ValueError("diagram needs an integer m, (over, under, sign) "
                             "integer triples and lists of crossing indices")
        self.m = m
        self.crossings = tuple(tuple(c) for c in crossings)
        self.order = tuple(tuple(comp) for comp in order)
        if self.m < 0:
            raise ValueError("component count must be non-negative")
        for idx, (over, under, sign) in enumerate(self.crossings):
            if not (0 <= over < self.m and 0 <= under < self.m):
                raise ValueError("crossing #%d names a component out of range" % idx)
            if sign not in (1, -1):
                raise ValueError("crossing #%d has sign %r, expected +1/-1" % (idx, sign))
        if len(self.order) != self.m:
            raise ValueError("need a traversal order for each component")
        visits = {}
        for ci, comp in enumerate(self.order):
            for c in comp:
                if not 0 <= c < len(self.crossings):
                    raise ValueError("component %d visits unknown crossing %d" % (ci, c))
                visits.setdefault(c, []).append(ci)
        for idx, (over, under, _) in enumerate(self.crossings):
            if sorted(visits.get(idx, [])) != sorted((over, under)):
                raise ValueError("crossing #%d must be visited once by each strand" % idx)

    def to_json(self):
        return {"m": self.m,
                "crossings": [{"over": o, "under": u, "sign": s}
                              for o, u, s in self.crossings],
                "order": [list(c) for c in self.order]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError("diagram JSON must be an object")
        for key in ("m", "crossings", "order"):
            if key not in data:
                raise ValueError("diagram JSON needs %r" % key)
        if (not isinstance(data["crossings"], list)
                or not all(isinstance(c, dict) for c in data["crossings"])):
            raise ValueError("diagram 'crossings' must be a list of objects")
        crossings = [(c["over"], c["under"], c["sign"]) for c in data["crossings"]]
        return cls(data["m"], crossings, data["order"])


class LinkingMatrix:
    """Symmetric integer matrix of pairwise linking numbers, zero diagonal."""

    def __init__(self, entries):
        if not isinstance(entries, (list, tuple)) or not all(map(_ints, entries)):
            raise ValueError("linking matrix entries must be integers, row by row")
        self.entries = tuple(tuple(row) for row in entries)
        self.m = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != self.m:
                raise ValueError("linking matrix must be square")
            if row[i] != 0:
                raise ValueError("diagonal entries are 0 by convention")
            for j in range(self.m):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("linking matrix must be symmetric")

    @classmethod
    def from_pairs(cls, m, pairs):
        data = [[0] * m for _ in range(m)]
        for (i, j), v in pairs.items():
            data[i][j] = v
            data[j][i] = v
        return cls(data)

    def off_diagonal(self):
        return [self.entries[i][j] for i in range(self.m)
                for j in range(i + 1, self.m)]

    def negated(self):
        return LinkingMatrix([[-x for x in row] for row in self.entries])

    def permuted(self, perm):
        return LinkingMatrix([[self.entries[perm[i]][perm[j]] for j in range(self.m)]
                              for i in range(self.m)])

    def equivalent_to(self, other):
        """Equality up to simultaneous component permutation and global sign."""
        if not isinstance(other, LinkingMatrix) or self.m != other.m:
            return False
        for perm in permutations(range(self.m)):
            p = self.permuted(perm)
            if p == other or p.negated() == other:
                return True
        return False

    def to_json(self):
        return {"m": self.m, "entries": [list(r) for r in self.entries]}

    def __eq__(self, other):
        return isinstance(other, LinkingMatrix) and self.entries == other.entries

    def __repr__(self):
        return "LinkingMatrix(%r)" % (list(map(list, self.entries)),)


def diagram_linking_matrix(diagram):
    """Half the signed count of crossings between each pair of components."""
    sums = {}
    for over, under, sign in diagram.crossings:
        if over == under:
            continue
        key = (min(over, under), max(over, under))
        sums[key] = sums.get(key, 0) + sign
    pairs = {}
    for key, total in sums.items():
        if total % 2:
            raise ValueError(
                "inter-component crossing signs for pair %r sum to the odd %d; "
                "malformed diagram" % (key, total))
        pairs[key] = total // 2
    return LinkingMatrix.from_pairs(diagram.m, pairs)


class ObstructionVerdict(Enum):
    LINKING_OBSTRUCTION = "LinkingObstruction"
    ZERO_MATRIX_NEEDS_CERTIFICATE = "ZeroMatrixNeedsCertificate"
    MIXED_NEEDS_ISOTOPY_CHECK = "MixedNeedsIsotopyCheck"
    NO_OBSTRUCTION_DETECTED = "NoObstructionDetected"


class ObstructionReport(NamedTuple):
    verdict: ObstructionVerdict
    explanation: str


def obstruction_report(matrix, nontrivial_certificate=None):
    """Classify a linking matrix against the great-circle constraint.

    Decision table, first match wins: an entry of magnitude >= 2 obstructs
    outright; an all-zero matrix obstructs only with a nontriviality
    certificate; a mix of zeros and units needs an isotopy comparison,
    again settled by the certificate; all-unit matrices are undecided by
    linking numbers alone.
    """
    if not isinstance(matrix, LinkingMatrix):
        matrix = LinkingMatrix(matrix)
    off = matrix.off_diagonal()
    if not off:
        return ObstructionReport(
            ObstructionVerdict.NO_OBSTRUCTION_DETECTED,
            "fewer than two components: pairwise linking analysis is vacuous "
            "(empty matrix)")
    big = [(i, j) for i in range(matrix.m) for j in range(i + 1, matrix.m)
           if abs(matrix.entries[i][j]) >= 2]
    if big:
        i, j = big[0]
        return ObstructionReport(
            ObstructionVerdict.LINKING_OBSTRUCTION,
            "Lk(%d,%d) = %d has magnitude >= 2, impossible for a great circle "
            "link whose pairwise linking numbers are +-1" % (i, j, matrix.entries[i][j]))
    if all(x == 0 for x in off):
        if nontrivial_certificate:
            return ObstructionReport(
                ObstructionVerdict.LINKING_OBSTRUCTION,
                "all pairwise linking numbers are 0 and the link is certified "
                "non-trivial: the components cannot be realized as great circles")
        return ObstructionReport(
            ObstructionVerdict.ZERO_MATRIX_NEEDS_CERTIFICATE,
            "all pairwise linking numbers are 0; obstruction requires a "
            "certificate that the link is non-trivial")
    if any(x == 0 for x in off):
        if nontrivial_certificate:
            return ObstructionReport(
                ObstructionVerdict.LINKING_OBSTRUCTION,
                "linking numbers mix 0 and +-1 and the configuration is "
                "certified not isotopic to a great circle link")
        return ObstructionReport(
            ObstructionVerdict.MIXED_NEEDS_ISOTOPY_CHECK,
            "linking numbers mix 0 and +-1; deciding the obstruction needs an "
            "isotopy-class comparison beyond the matrix")
    return ObstructionReport(
        ObstructionVerdict.NO_OBSTRUCTION_DETECTED,
        "all pairwise linking numbers are +-1, consistent with a great circle "
        "link; linking numbers alone cannot decide")


# -- simplicial linking numbers --------------------------------------------

def _cycle_chain(cycle, factor=1):
    """The 1-chain of a cycle of distinct vertices, as {sorted edge: +-factor}."""
    return {(u, v) if u < v else (v, u): factor if u < v else -factor
            for u, v in zip(cycle, cycle[1:] + cycle[:1])}


def _meridian(facets_signed, a, b):
    """The link circle of the edge (a, b), oriented by the right-hand rule:
    each tetrahedron (a, b, w, x) of sign s adds the step w -> x with
    coefficient s times the parity of (a, b, w, x).  The steps of a
    consistent orientation close up; an empty chain, one with a boundary,
    and one that closes up into more than one circle are refused."""
    chain = {}
    boundary = {}
    succ = {}  # tail -> head of each step, read in its direction
    for f, s in facets_signed:
        if a in f and b in f:
            w, x = (v for v in f if v != a and v != b)
            chain[(w, x)] = c = s * _parity((a, b, w, x))
            boundary[x] = boundary.get(x, 0) + c
            boundary[w] = boundary.get(w, 0) - c
            tail, head = (w, x) if c > 0 else (x, w)
            succ[tail] = head if tail not in succ else None
    if not chain:
        raise ValueError("(%d,%d) is not an edge of the ambient complex" % (a, b))
    if any(boundary.values()):
        raise ValueError("meridian of (%d,%d) is not a cycle: inconsistent orientation" % (a, b))
    # a cycle is one circle when a walk from any vertex, one step leaving
    # each, takes every step before it returns
    start = cur = next(iter(succ))
    for steps in range(1, len(chain) + 1):
        cur = succ[cur]
        if cur is None or cur == start:
            break
    if cur != start or steps != len(chain):
        raise ValueError("edge link of (%d,%d) is not a single circle" % (a, b))
    return chain


class LinkingInternalError(RuntimeError):
    """An exact solve contradicted the homology-sphere invariants."""


def _class_multiples(edges, triangles, generator, targets):
    """Solve [target] = lambda * [generator] in H_1 of a complex, per target.

    ``edges``/``triangles`` describe the complex; generator and targets are
    1-cycles as {sorted edge: coefficient}.  Verifies that H_1 is infinite
    cyclic and that the generator generates; anything else aborts loudly.
    A spanning-forest gauge makes the non-tree edges the coordinates of
    the cycles, and the triangle boundaries span the relations.  One
    ``smith_normal_form`` of the relations carries every cycle through its
    row operations and returns its one free coordinate, its class in
    H_1 = Z.
    """
    # spanning forest over the 1-skeleton
    adj = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    tree = set()
    visited = set()
    for root in adj:
        if root in visited:
            continue
        visited.add(root)
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in visited:
                    visited.add(y)
                    tree.add((x, y) if x < y else (y, x))
                    queue.append(y)
    coord = {}
    for e in edges:
        if e not in tree:
            coord[e] = len(coord)

    def project(chain):
        return {coord[e]: c for e, c in chain.items() if c and e in coord}

    relations = IntegerMatrix(len(coord), len(triangles))
    for cid, (a, b, c) in enumerate(triangles):  # a forest never holds all three sides
        sides = (((b, c), 1), ((a, c), -1), ((a, b), 1))
        relations.columns[cid] = {coord[e]: s for e, s in sides if e in coord}
    snf = smith_normal_form(relations, carried=[project(generator)]
                            + [project(t) for t in targets])
    torsion = [d for d in snf.invariants if d != 1]
    if torsion:
        raise LinkingInternalError(
            "complement H_1 has torsion %r; ambient is not a homology sphere" % (torsion,))
    if relations.rows - snf.rank() != 1:
        raise LinkingInternalError(
            "complement H_1 has rank %d, expected 1" % (relations.rows - snf.rank()))
    (h,), *ys = snf.carried
    if h not in (1, -1):
        raise LinkingInternalError(
            "meridian class is %d times a generator of H_1, expected a unit" % h)
    return [y * h for (y,) in ys]


def _skeleton(facets_signed):
    """Edge and triangle sets of an oriented facet list."""
    edges = set()
    triangles = set()
    for (a, b, c, d), _ in facets_signed:
        edges.update(((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
        triangles.update(((a, b, c), (a, b, d), (a, c, d), (b, c, d)))
    return edges, triangles


def _spanned_faces(cycle, edges, triangles):
    """The faces that keep a cycle from being full: its chords, the edges
    between two of its vertices that are not cycle edges, and for a 3-cycle
    the triangle it spans, if that is a face."""
    ordered = tuple(sorted(cycle))
    steps = {(u, v) if u < v else (v, u) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    faces = [e for e in combinations(ordered, 2) if e in edges and e not in steps]
    if len(cycle) == 3 and ordered in triangles:
        faces.append(ordered)
    return faces


class _Complements:
    """Complements of the components of a link, each made full by starring
    the faces in ``starred``: every chord of a component and the triangle a
    3-cycle spans.  Starring a face keeps every face that does not contain
    it, and no listed face contains a cycle edge or another listed face, so
    the components stay as they are."""

    def __init__(self, sigma, link, orientation=None):
        if link.ambient is not sigma and link.ambient != sigma:
            raise ValueError("link does not reference this ambient complex")
        if orientation is None:
            report = is_homology_3sphere(sigma)
            if not report.is_homology_sphere:
                raise ValueError(
                    "ambient is not a verified homology 3-sphere: %s" % report.note)
            orientation = report.manifold.orientation
        facets_signed = sorted(orientation.items())
        self.orientations = link.orientations
        self.components = link.components
        edges, triangles = _skeleton(facets_signed)
        self.starred = tuple(face for c in self.components
                             for face in _spanned_faces(c, edges, triangles))
        if self.starred:
            facets_signed = _stellar_subdivision(facets_signed, self.starred,
                                                 sigma.vertex_count)
            edges, triangles = _skeleton(facets_signed)
            if any(_spanned_faces(c, edges, triangles) for c in self.components):
                raise LinkingInternalError("a component is not full after starring")
        self.facets_signed = facets_signed
        self.edges = sorted(edges)
        self.triangles = sorted(triangles)

    def column(self, j, others):
        """{i: Lk(i, j)} for each i in ``others``, from one elimination over
        the complement of j, the full subcomplex on the other vertices.  The
        meridian circles the first edge of j (reversed with j); a cycle with an
        edge outside the complement, such as a meridian touching j, is refused."""
        removed = set(self.components[j])
        edges = [e for e in self.edges if e[0] not in removed and e[1] not in removed]
        triangles = [t for t in self.triangles if t[0] not in removed
                     and t[1] not in removed and t[2] not in removed]

        a, b = self.components[j][0], self.components[j][1]
        if self.orientations[j] < 0:
            a, b = b, a
        meridian = _meridian(self.facets_signed, a, b)
        targets = [_cycle_chain(self.components[i], self.orientations[i])
                   for i in others]
        if not set(edges).issuperset(e for chain in [meridian] + targets for e in chain):
            raise LinkingInternalError("cycle leaves the complement subcomplex")
        return dict(zip(others, _class_multiples(edges, triangles, meridian, targets)))


def linking_matrix(sigma, link, orientation=None):
    """All pairwise linking numbers of an edge-cycle link.

    Lk(i, j) and Lk(j, i) come from different eliminations, so every entry
    is checked for symmetry.
    """
    complements = _Complements(sigma, link, orientation)
    m = len(link)
    columns = [complements.column(j, [i for i in range(m) if i != j])
               for j in range(m)]
    pairs = {}
    for i in range(m):
        for j in range(i + 1, m):
            value, other = columns[j][i], columns[i][j]
            if other != value:
                raise LinkingInternalError(
                    "linking number asymmetry: Lk(%d,%d)=%d but Lk(%d,%d)=%d"
                    % (i, j, value, j, i, other))
            pairs[(i, j)] = value
    return LinkingMatrix.from_pairs(m, pairs)
