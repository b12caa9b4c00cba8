"""Exact integer chain complexes, Smith normal form, 3-manifold checks and
the hypothesis chain of the obstruction.

Everything here is over the integers with unbounded precision; no floating
point.  Matrices are stored by columns, one {row: value} dict per cell,
from the builders to the elimination.  One Smith normal form serves the
homology checks and the linking-number solves in ``links``.  A sparse kernel,
``eliminate_unit_pivots``, pivots on +-1 entries (the reduction scheme of
Dumas-Heckenbach-Saunders-Welker, 2003), singleton rows and columns first
through a queue, then the shortest column with a unit entry, pivoting in
its shortest row.  It stops when no unit entry is left or, checked every
64 pivots, when fill-in passes 30% of the live block.  Euclid steps
diagonalise the dense core that is left, and the gcd/lcm merge
``_merged_torsion``, the one torsion merge in the package, turns the
diagonal into invariant factors.  Vectors can be carried through the row
operations of both eliminations, which reads off their classes in the
cokernel; no transform matrices are built.

``homology`` reduces top-down with clearing (Chen-Kerber 2011; Bauer-
Kerber-Reininghaus 2014): before d_d it zeroes the columns that are pivot
rows P of the d_{d+1} elimination.  Unit pivots give det d_{d+1}[P,Q] = +-1,
so d_d d_{d+1} = 0 puts those columns in the integer span of the others:
the column lattice of d_d, its rank and its invariant factors stay.  A
certified 3-manifold's d_3 is not eliminated: the face-table triangles its
orientation walk crossed, in the order found, make d_3 on them and the
facets after the first triangular with a +-1 diagonal, and the orientation
spans ker d_3, so rank d_3 = T - 1 and every invariant factor is 1.

``check_hypotheses`` runs the whole chain once, next to the homology-sphere
check it ends in: flag, isolated squares, closed orientable 3-manifold,
homology 3-sphere, Caprace criterion.  ``verify``, ``obstruct`` and the
type verifier all read its one report.
"""

import heapq
from collections import Counter, deque
from itertools import combinations
from math import gcd
from types import MappingProxyType
from typing import NamedTuple, Optional

from .complexes import has_isolated_squares, is_flag, scan_nonadjacent_pairs


class IntegerMatrix:
    """Sparse integer matrix, ``columns`` = {col: {row: value}} with no zeros
    and no empty columns; ``entries`` is a read-only {(row, col): value} view."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, entries=None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.columns = {}
        for (i, j), v in dict(entries or ()).items():
            self.set(i, j, v)

    @property
    def entries(self):
        return MappingProxyType({(i, j): v for j, col in self.columns.items()
                                 for i, v in col.items()})

    def set(self, i, j, v):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d,%d) out of bounds" % (i, j))
        if v:
            self.columns.setdefault(j, {})[i] = int(v)
        elif self.columns.get(j, {}).pop(i, 0) and not self.columns[j]:
            del self.columns[j]

    def get(self, i, j):
        return self.columns.get(j, {}).get(i, 0)

    def nnz(self):
        return sum(map(len, self.columns.values()))

    def __matmul__(self, other):
        """The product, one column of ``other`` at a time."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = IntegerMatrix(self.rows, other.cols)
        mine = self.columns
        for j, col in other.columns.items():
            acc = {}
            for k, w in col.items():
                for i, v in mine.get(k, {}).items():
                    if i in acc:
                        acc[i] += v * w
                    else:
                        acc[i] = v * w
            if any(acc.values()):
                out.columns[j] = {i: v for i, v in acc.items() if v}
        return out

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.columns == other.columns)

    def __repr__(self):
        return "IntegerMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, self.nnz())


class SmithNormalForm(NamedTuple):
    invariants: tuple  # d_1 | d_2 | ... , all positive
    pivot_rows: tuple = ()  # rows eliminated by sparse unit pivots, in pivot order
    carried: tuple = ()  # per carried vector, its rows - rank free coordinates

    def rank(self):
        return len(self.invariants)


def _dense_diagonal(a, n):
    """Diagonalise a dense list of rows in place by Euclid steps.

    An entry of least absolute value (ties by position) moves to (t, t);
    floor division reduces its column and its row, and if a smaller
    remainder is left the search starts again from t.  Entries past column
    n are carried vectors: the row operations (swap, subtract) act on them,
    the pivot search and the column operations do not.  Returns the
    absolute diagonal entries, not yet a divisibility chain; the rows past
    them are then the zero rows of the diagonal form.
    """
    m = len(a)
    diagonal = []
    t = 0
    while True:
        best = None
        for i in range(t, m):
            for j, x in enumerate(a[i][t:n], t):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            return diagonal
        _, i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a[t:]:  # rows above t are zero in the live columns
                row[t], row[j] = row[j], row[t]
        top = a[t]
        pivot = top[t]
        nonzeros = [(j, x) for j, x in enumerate(top) if x]
        for ak in a[t + 1:]:  # row k -= q * row t
            q = ak[t] // pivot
            if q:
                for j, x in nonzeros:
                    ak[j] -= q * x
        column = [(ak, ak[t]) for ak in a[t:] if ak[t]]
        for j in range(t + 1, n):  # col j -= q * col t
            q = top[j] // pivot
            if q:
                for ak, x in column:
                    ak[j] -= q * x
        if any(ak[t] for ak in a[t + 1:]) or any(top[t + 1:n]):
            continue
        diagonal.append(abs(pivot))
        t += 1


def eliminate_unit_pivots(rows, cols, carried=()):
    """Sparse unit-pivot elimination in place; returns the pivot rows.

    ``rows`` is {row: {col: value}} and ``cols`` the same entries as
    {col: {row: value}}, with no zeros and no empty dicts.  A pivot is a
    +-1 entry (i, j): column operations clear row i, row operations clear
    column j, and row i and column j leave both dicts, each pivot standing
    for one invariant factor 1.  Singleton rows and columns, which cause
    no fill-in, go first through a queue.  Otherwise the pivot is the unit
    entry in the shortest row (ties by index) of the shortest column with
    one, from a heap of (length, column) pairs built when the queue first
    runs dry.  A pivot pushes the columns of row i that it leaves with two
    or more entries; stale pairs are skipped, and a column without a unit
    entry leaves the heap until a pivot changes it.  Every carried vector
    ({row: value}) goes through the same row operations and drops its
    pivot coordinates, so it keeps its class in the cokernel.  The
    elimination stops when no unit entry is left, or when fill-in passes
    30% of the live block, checked every 64 pivots; what is left in
    ``rows``/``cols`` is the core.
    """
    pivots = []
    nnz = sum(len(r) for r in rows.values())
    queue = deque([("r", i) for i in sorted(rows) if len(rows[i]) == 1]
                  + [("c", j) for j in sorted(cols) if len(cols[j]) == 1])
    heap = None
    while True:
        if queue:
            kind, key = queue.popleft()
            line = (rows if kind == "r" else cols).get(key)
            if line is None or len(line) != 1:
                continue
            i, j = (key, next(iter(line))) if kind == "r" else (next(iter(line)), key)
            if rows[i][j] not in (1, -1):
                continue
        else:
            if heap is None:
                heap = [(len(c), j) for j, c in cols.items()]
                heapq.heapify(heap)
            while heap:
                length, j = heapq.heappop(heap)
                if len(cols.get(j, ())) == length:
                    units = [(len(rows[k]), k) for k, v in cols[j].items() if v in (1, -1)]
                    if units:
                        i = min(units)[1]
                        break
            else:
                return pivots

        row_i = rows.pop(i)
        col_j = cols.pop(j)
        s = row_i.pop(j)
        del col_j[i]
        nnz -= 1 + len(row_i) + len(col_j)
        # column operations: col j2 -= v * s * col j clears row i
        for j2, v in row_i.items():
            factor = v * s
            col_j2 = cols[j2]
            del col_j2[i]
            for k, vkj in col_j.items():
                had = k in col_j2
                new = col_j2.get(k, 0) - factor * vkj
                if new:
                    col_j2[k] = new
                    rows[k][j2] = new
                    nnz += not had
                elif had:
                    del col_j2[k]
                    del rows[k][j2]
                    nnz -= 1
            if not col_j2:
                del cols[j2]
            elif len(col_j2) == 1:
                queue.append(("c", j2))
            elif heap is not None:
                heapq.heappush(heap, (len(col_j2), j2))
        # row operations: row k -= vkj * s * row i clears column j
        moving = [(vec, vec.pop(i)) for vec in carried if i in vec]
        for k, vkj in col_j.items():
            factor = vkj * s
            for vec, vi in moving:
                new = vec.get(k, 0) - factor * vi
                if new:
                    vec[k] = new
                else:
                    vec.pop(k, None)
            row_k = rows[k]
            del row_k[j]
            if not row_k:
                del rows[k]
            elif len(row_k) == 1:
                queue.append(("r", k))
        pivots.append(i)
        if len(pivots) % 64 == 0 and rows and nnz * 10 > 3 * len(rows) * len(cols):
            return pivots


def _merged_torsion(coefficients):
    """Invariant factors of the direct sum of the groups Z/c, c > 1.

    The summands are counted per value, ``Counter(coefficients)``, so a
    Counter may be passed as it is.  While two values a, b exist where
    neither divides the other, Z/a + Z/b = Z/gcd + Z/lcm moves min(count)
    copies of each to gcd and lcm; the values left divide one another, and
    sorted they are the invariant factors.
    """
    counts = Counter(coefficients)
    while True:
        counts = Counter({c: m for c, m in counts.items() if c > 1 and m > 0})
        pair = next(((a, b) for a in counts for b in counts if a < b and b % a), None)
        if pair is None:
            return tuple(sorted(counts.elements()))
        a, b = pair
        k, g = min(counts[a], counts[b]), gcd(a, b)
        counts.update({a: -k, b: -k, g: k, a // g * b: k})


def smith_normal_form(matrix, *, carried=()):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    ``eliminate_unit_pivots`` reduces the matrix and ``_dense_diagonal``
    diagonalises its core; ``_merged_torsion`` turns the diagonal into
    invariant factors, on copies of the columns.  The rows of the unit
    pivots come back as ``pivot_rows``.  Each carried vector ({row: value}, left unchanged)
    goes through the row operations of both.  It comes back in
    ``carried`` as its coordinates on the rows - rank zero rows of the
    diagonal form, its image in the free part of the cokernel: first the
    zero rows of the dense core, which also holds every row a carried
    vector touches, then the empty rows, on which it is 0.
    """
    cols = {j: dict(col) for j, col in matrix.columns.items()}
    rows = {}
    for j, col in cols.items():
        for i, val in col.items():
            rows.setdefault(i, {})[j] = val
    carried = [dict(vec) for vec in carried]
    pivots = eliminate_unit_pivots(rows, cols, carried)
    ci = {c: k for k, c in enumerate(sorted(cols))}
    n = len(ci)
    dense = []
    for r in sorted(set(rows).union(*carried)):
        out = [0] * n + [vec.get(r, 0) for vec in carried]
        for c, val in rows.get(r, {}).items():
            out[ci[c]] = val
        dense.append(out)
    diagonal = _dense_diagonal(dense, n)
    torsion = _merged_torsion(diagonal)
    rank = len(pivots) + len(diagonal)
    empty = (0,) * (matrix.rows - len(pivots) - len(dense))
    free = tuple(tuple(row[n + k] for row in dense[len(diagonal):]) + empty
                 for k in range(len(carried)))
    return SmithNormalForm((1,) * (rank - len(torsion)) + torsion, tuple(pivots), free)


class HomologyProfile:
    """Betti ranks and torsion coefficients per dimension."""

    def __init__(self, groups):
        self.groups = tuple((int(rank), tuple(int(t) for t in torsion))
                            for rank, torsion in groups)
        for rank, torsion in self.groups:
            if rank < 0 or any(t < 2 for t in torsion):
                raise ValueError("invalid homology group data")
            for a, b in zip(torsion, torsion[1:]):
                if b % a:
                    raise ValueError("torsion coefficients must divide in order")

    def betti(self, d):
        return self.groups[d][0] if 0 <= d < len(self.groups) else 0

    def torsion(self, d):
        return self.groups[d][1] if 0 <= d < len(self.groups) else ()

    def to_json(self):
        return {"H": [{"rank": r, "torsion": list(t)} for r, t in self.groups]}

    def __eq__(self, other):
        return isinstance(other, HomologyProfile) and self.groups == other.groups

    def __repr__(self):
        parts = ["+".join(["Z^%d" % rank if rank > 1 else "Z"] * bool(rank)
                          + ["Z/%d" % t for t in torsion]) or "0"
                 for rank, torsion in self.groups]
        return "H(" + ", ".join(parts) + ")"


class ChainComplex:
    """Integer chain complex on bases of the given sizes.

    boundaries[d] maps d-chains to (d-1)-chains, for every d in 1..dim;
    d_(d-1) d_d is checked to vanish, one column of d_d at a time.
    """

    def __init__(self, cell_counts, boundaries):
        self.cell_counts = tuple(int(c) for c in cell_counts)
        self.boundaries = dict(boundaries)
        self.dim = len(self.cell_counts) - 1
        for d, mat in self.boundaries.items():
            if not 1 <= d <= self.dim:
                raise ValueError("boundary map in dimension %d out of range" % d)
            if mat.rows != self.cell_counts[d - 1] or mat.cols != self.cell_counts[d]:
                raise ValueError("boundary %d has shape %dx%d, expected %dx%d" % (
                    d, mat.rows, mat.cols, self.cell_counts[d - 1], self.cell_counts[d]))
        for d in range(1, self.dim + 1):
            if d not in self.boundaries:
                raise ValueError("boundary map in dimension %d is missing" % d)
            if d > 1 and (self.boundaries[d - 1] @ self.boundaries[d]).columns:
                raise ValueError("boundary of boundary is nonzero in dim %d" % d)

    def boundary(self, d):
        return self.boundaries[d]


def homology(chain_complex, top_pivots=None):
    """Integral homology H_d = ker d_d / im d_{d+1}, exactly.

    Top-down with clearing, see above; relies on d_d d_{d+1} = 0, which
    ``ChainComplex`` always checks.  The cleared copy shares the boundary's columns.
    ``top_pivots``, rows of the top boundary with a +-1 minor and rank their
    count, such as a manifold's ``tree``, skip its elimination; not checked.
    """
    top = chain_complex.dim - (top_pivots is not None)
    ranks = {top + 1: len(top_pivots or ())}
    torsions = {}
    cleared = frozenset(top_pivots or ())
    for d in range(top, 0, -1):
        mat = chain_complex.boundary(d)
        kept = IntegerMatrix(mat.rows, mat.cols)
        kept.columns = {j: col for j, col in mat.columns.items() if j not in cleared}
        snf = smith_normal_form(kept)
        ranks[d] = snf.rank()
        torsions[d] = tuple(t for t in snf.invariants if t > 1)
        cleared = frozenset(snf.pivot_rows)
    groups = []
    for d in range(chain_complex.dim + 1):
        n_d = chain_complex.cell_counts[d]
        betti = n_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
        groups.append((betti, torsions.get(d + 1, ())))
    return HomologyProfile(groups)


def simplicial_chain_complex(complex_):
    """Chain complex of a simplicial complex, faces ordered lexicographically:
    up to dimension 3 the bases are the face table's, face -> position.

    Boundary signs follow the position parity of the omitted vertex.
    """
    index = [complex_._faces_small[d] if d <= 3 else
             {f: i for i, f in enumerate(complex_.faces(d))} for d in range(complex_.dim() + 1)]
    boundaries = {}
    for d in range(1, len(index)):
        mat = IntegerMatrix(len(index[d - 1]), len(index[d]))
        lower = index[d - 1].__getitem__
        signs = [(-1) ** (d - k) for k in range(d + 1)]  # k-th omits position d - k
        mat.columns = {j: dict(zip(map(lower, combinations(f, d)), signs))
                       for j, f in enumerate(index[d])}
        boundaries[d] = mat
    return ChainComplex(list(map(len, index)), boundaries)


class Manifold3Report(NamedTuple):
    """With the orientation comes ``tree``, the positions of the T - 1
    triangles the orientation walk crossed to reach each facet after the
    first: the pivots of d_3 that ``homology`` clears with (see above)."""
    pseudomanifold: bool
    vertex_links_are_2spheres: bool
    orientable: bool
    orientation: Optional[MappingProxyType]  # read-only facet -> +-1, least facet positive
    failures: tuple
    tree: Optional[tuple]  # triangle positions, in the order the walk crossed them

    @property
    def passed(self):
        return self.pseudomanifold and self.vertex_links_are_2spheres and self.orientable


def _link_is_2sphere(pairs, degree):
    """The link of a vertex v of a pure 3-complex, every triangle through v
    in two tetrahedra, is a 2-sphere.  ``pairs`` holds, per triangle through
    v, its two (tetrahedron, sign) entries of the triangle table: the link's
    edges, each between the two link triangles it bounds, the tetrahedra
    through v.  The link is then a closed surface S' with vertices
    pinched together; it is a 2-sphere when its triangles are connected
    through edges and chi = degree - edges + triangles = 2, since
    chi(S') = chi + (copies - vertices) <= 2 leaves no pinch (two 2-spheres
    glued at two points have chi = 2 and connected vertices, but not
    connected triangles)."""
    across = {}
    for (a, _), (b, _) in pairs:
        across.setdefault(a, []).append(b)
        across.setdefault(b, []).append(a)
    seen = {pairs[0][0][0]}
    stack = [pairs[0][0][0]]
    while stack:
        for i in across[stack.pop()]:
            if i not in seen:
                seen.add(i)
                stack.append(i)
    return len(seen) == len(across) and degree - len(pairs) + len(across) == 2


def is_closed_orientable_3manifold(complex_):
    """Certify a closed orientable 3-manifold combinatorially.

    Checks: pure of dimension 3 (errors otherwise), every triangle in
    exactly two tetrahedra, every vertex link a 2-sphere, and a consistent
    facet orientation.  All three read one table, triangle position in the
    face table -> the tetrahedra through it, in one loop: a triangle with
    two tetrahedra is an edge of the dual graph and of the link of each of
    its vertices, and a vertex on any other triangle fails.  One
    sign-propagating walk over the dual graph then orients the facets and
    records the ``tree``.  The walk goes on past an orientation mismatch
    (recording the first) and counts the facets it reaches.  The tetrahedra
    at a vertex whose link is a 2-sphere are connected through triangles,
    so if it misses some while every link is one, the complex is
    disconnected: an error.  A connected complex whose dual graph is not,
    such as two 3-spheres wedged at a vertex or glued along a square, fails
    at a vertex link instead.  The orientation, a read-only mapping, is
    normalized so the lexicographically least facet is positive.
    """
    if not complex_.facets or not complex_.is_pure(3):
        raise ValueError("complex is not pure 3-dimensional")

    failures = []
    facets = complex_.facets
    triangles = complex_._faces_small[2]
    tri_to_facets = {}  # triangle position -> [(facet index, sign of the triangle in it)]
    for idx, f in enumerate(facets):
        for t, sign in zip(combinations(f, 3), (-1, 1, -1, 1)):
            tri_to_facets.setdefault(triangles[t], []).append((idx, sign))

    tris = list(triangles)
    pseudo = True
    dual = [[] for _ in facets]
    links = [[] for _ in range(complex_.vertex_count)]  # v -> its triangles' owners
    bad = set()  # the vertices of triangles in other than two tetrahedra
    for p, owners in tri_to_facets.items():
        if len(owners) != 2:
            if pseudo:
                pseudo = False
                failures.append("triangle %r lies in %d tetrahedra" % (tris[p], len(owners)))
            bad.update(tris[p])
            continue
        (a, e_a), (b, e_b) = owners
        dual[a].append((b, p, e_a * e_b))
        dual[b].append((a, p, e_a * e_b))
        for v in tris[p]:
            links[v].append(owners)

    links_ok = True
    for v, pairs in enumerate(links):
        if v in bad or not _link_is_2sphere(pairs, len(complex_.neighbors(v))):
            links_ok = False
            failures.append("link of vertex %d is not a 2-sphere" % v)
            break

    orientable = False
    orientation = tree = None
    if pseudo:
        signs = {0: 1}  # facet 0, the lexicographically least, is positive
        crossed = []  # the triangle crossed to reach each facet after facet 0
        stack = [0]
        consistent = True
        while stack:
            cur = stack.pop()
            for nb, tri, same in dual[cur]:
                # induced orientations on the shared triangle must be opposite
                want = -signs[cur] * same
                if nb not in signs:
                    signs[nb] = want
                    crossed.append(tri)
                    stack.append(nb)
                elif signs[nb] != want and consistent:
                    consistent = False
                    failures.append("orientation mismatch across triangle %r" % (tris[tri],))
        if len(signs) != len(facets):
            if links_ok:
                raise ValueError("complex is not connected")
        elif consistent:
            orientable, tree = True, tuple(crossed)
            orientation = MappingProxyType({facets[i]: s for i, s in signs.items()})

    return Manifold3Report(pseudo, links_ok, orientable, orientation, tuple(failures), tree)


class SphereReport(NamedTuple):
    is_homology_sphere: bool
    profile: Optional[HomologyProfile]  # None when the manifold check fails
    manifold: Manifold3Report
    note: str


S3_PROFILE = HomologyProfile([(1, ()), (0, ()), (0, ()), (1, ())])


def is_homology_3sphere(complex_):
    """Verify the integral homology of the 3-sphere, once per complex.

    Runs the closed-orientable-3-manifold check once and returns its
    report as ``manifold``; when it fails, the answer is no and the
    homology is not computed (``profile`` is None), else its ``tree`` gives
    ``homology`` the pivots of d_3.  The report is kept on the complex
    object for later calls; an equal complex loaded again is certified
    again.  Non-pure input, and disconnected input whose vertex links are
    all 2-spheres, raise ValueError on every call.  Simple connectivity is
    NOT checked; a true result certifies a homology 3-sphere only.
    """
    if complex_._sphere_report is not None:
        return complex_._sphere_report
    manifold = is_closed_orientable_3manifold(complex_)
    profile = (homology(simplicial_chain_complex(complex_), manifold.tree)
               if manifold.passed else None)
    ok = profile == S3_PROFILE
    note = ("not a closed orientable 3-manifold: %s" % (manifold.failures,)
            if not manifold.passed else "homology differs from S^3" if not ok
            else "homology matches S^3; simple connectivity is NOT checked")
    complex_._sphere_report = report = SphereReport(ok, profile, manifold, note)
    return report


class HypothesisReport(NamedTuple):
    """The chain's checks, verdict and squares; ``is_homology_3sphere(K)`` orients K."""
    checks: dict      # results and failure witnesses, in the order --human prints them
    passed: bool
    squares: list     # sorted canonical Squares


def check_hypotheses(complex_):
    """The hypothesis chain of the obstruction, each check run once.

    In order: flag, isolated squares, closed orientable 3-manifold,
    homology 3-sphere, Caprace criterion.  One scan of the non-adjacent
    pairs yields both the squares and the Caprace witnesses; a failed
    criterion reports the least witness and their count.  The complex is
    certified once, its report kept on it.  Simple connectivity is NOT
    checked.  A complex above dimension 3 is refused with ValueError before
    any check: the paper's K is 3-dimensional.
    """
    if complex_.dim() > 3:
        raise ValueError("complex has dimension %d; the hypothesis checks need "
                         "dimension at most 3" % complex_.dim())
    checks = {}
    flag = is_flag(complex_)
    checks["is_flag"] = flag.is_flag
    if not flag.is_flag:
        checks["flag_witness"] = list(flag.witness)
    scan = scan_nonadjacent_pairs(complex_)
    checks["square_count"] = len(scan.squares)
    isolated = has_isolated_squares(scan.squares)
    checks["has_isolated_squares"] = isolated.has_isolated_squares
    if not isolated.has_isolated_squares:
        checks["isolated_offending_vertex"] = isolated.offending_vertex
    manifold_ok = sphere_ok = False
    try:
        sphere = is_homology_3sphere(complex_)
        manifold_ok = sphere.manifold.passed
        if not manifold_ok:
            checks["manifold_failures"] = list(sphere.manifold.failures)
        else:
            sphere_ok = sphere.is_homology_sphere
            checks["homology_profile"] = sphere.profile.to_json()
            checks["simple_connectivity"] = "not checked (homology sphere only)"
    except ValueError as exc:
        checks["manifold_error"] = str(exc)
    checks["is_closed_orientable_3manifold"] = manifold_ok
    checks["is_homology_3sphere"] = sphere_ok
    checks["caprace_criterion"] = not scan.caprace_witness_count
    if scan.caprace_witness_count:
        vertices, kind = scan.caprace_witness
        checks["caprace_witness"] = {"vertices": list(vertices), "type": kind}
        checks["caprace_witness_count"] = scan.caprace_witness_count
    passed = (flag.is_flag and isolated.has_isolated_squares and sphere_ok
              and not scan.caprace_witness_count)
    return HypothesisReport(checks, passed, scan.squares)
