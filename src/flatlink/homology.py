"""Exact integer chain complexes, Smith normal form and 3-manifold checks.

Everything here is over the integers with unbounded precision; no floating
point.  One sparse kernel, ``eliminate_unit_pivots``, serves the Smith
normal form and the linking-number solves in ``links`` (the reduction
scheme of Dumas-Heckenbach-Saunders-Welker, 2003).  It pivots on +-1
entries, singleton rows and columns first through a queue, then by least
Markowitz cost, optionally carrying vectors through its row operations.
It stops when no unit entry is left or, checked every 64 pivots, when
fill-in passes 30% of the live block; a dense textbook elimination
finishes the core.

``homology`` reduces top-down with clearing (Chen-Kerber 2011; Bauer-
Kerber-Reininghaus 2014): before d_d it zeroes the columns that are pivot
rows P of the d_{d+1} elimination.  Unit pivots give det d_{d+1}[P,Q] = +-1,
so d_d d_{d+1} = 0 puts those columns in the integer span of the others:
the column lattice of d_d, its rank and its invariant factors stay.
"""

import heapq
from collections import deque
from itertools import combinations
from typing import NamedTuple, Optional

from .complexes import vertex_link


class IntegerMatrix:
    """Sparse integer matrix; no stored zeros, exact arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.entries = {}
        if entries:
            for (i, j), v in dict(entries).items():
                self.set(i, j, v)

    def set(self, i, j, v):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d,%d) out of bounds" % (i, j))
        if v:
            self.entries[(i, j)] = int(v)
        else:
            self.entries.pop((i, j), None)

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def nnz(self):
        return len(self.entries)

    @classmethod
    def from_dense(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        m = cls(rows, cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m.set(i, j, v)
        return m

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def transpose(self):
        m = IntegerMatrix(self.cols, self.rows)
        for (i, j), v in self.entries.items():
            m.entries[(j, i)] = v
        return m

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = IntegerMatrix(self.rows, other.cols)
        acc = {}
        for (i, k), v in self.entries.items():
            for (j, w) in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        for key, v in acc.items():
            if v:
                out.entries[key] = v
        return out

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return "IntegerMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, self.nnz())


class SmithNormalForm(NamedTuple):
    invariants: tuple  # d_1 | d_2 | ... , all positive
    U: Optional[IntegerMatrix]  # U @ M @ V has the invariants on the diagonal
    V: Optional[IntegerMatrix]
    pivot_rows: tuple = ()  # rows eliminated by sparse unit pivots, in pivot order

    def rank(self):
        return len(self.invariants)

    def diagonal_matrix(self, rows, cols):
        d = IntegerMatrix(rows, cols)
        for k, v in enumerate(self.invariants):
            d.set(k, k, v)
        return d


def _dense_snf(dense, m, n, want_transforms):
    """Textbook Smith elimination on a dense list-of-lists copy.

    Pivot rule: minimal absolute value, ties by fewest nonzeros in the
    pivot's row plus column, then lexicographic position.
    """
    a = [row[:] for row in dense]
    u = [[int(i == j) for j in range(m)] for i in range(m)] if want_transforms else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if want_transforms else None

    def row_op(i, k, q):  # row k -= q * row i
        ai, ak = a[i], a[k]
        for j in range(n):
            if ai[j]:
                ak[j] -= q * ai[j]
        if u is not None:
            ui, uk = u[i], u[k]
            for j in range(m):
                if ui[j]:
                    uk[j] -= q * ui[j]

    def col_op(j, l, q):  # col l -= q * col j
        for i in range(m):
            if a[i][j]:
                a[i][l] -= q * a[i][j]
        if v is not None:
            for i in range(n):
                if v[i][j]:
                    v[i][l] -= q * v[i][j]

    def swap_rows(i, k):
        if i != k:
            a[i], a[k] = a[k], a[i]
            if u is not None:
                u[i], u[k] = u[k], u[i]

    def swap_cols(j, l):
        if j != l:
            for row in a:
                row[j], row[l] = row[l], row[j]
            if v is not None:
                for row in v:
                    row[j], row[l] = row[l], row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            ai = a[i]
            for j in range(t, n):
                x = ai[j]
                if x:
                    r_nnz = sum(1 for y in ai[t:] if y)
                    c_nnz = sum(1 for k in range(t, m) if a[k][j])
                    key = (abs(x), r_nnz + c_nnz, i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        return best

    invariants = []
    t = 0
    while True:
        best = find_pivot(t)
        if best is None:
            break
        _, pi, pj = best
        swap_rows(t, pi)
        swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)

        restart = False
        while True:
            pivot = a[t][t]
            moved = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x:
                    q = x // pivot  # remainder in [0, pivot)
                    if q:
                        row_op(t, i, q)
                    if a[i][t]:
                        swap_rows(t, i)  # strictly smaller positive pivot
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, n):
                x = a[t][j]
                if x:
                    q = x // pivot
                    if q:
                        col_op(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        moved = True
                        break
            if moved:
                continue
            # row t and column t are clear; enforce divisibility of the rest
            pivot = a[t][t]
            fix = None
            for i in range(t + 1, m):
                if any(a[i][j] % pivot for j in range(t + 1, n)):
                    fix = i
                    break
            if fix is None:
                break
            row_op(fix, t, -1)  # pull the offending row into the pivot row
            restart = True
            break
        if restart:
            continue
        invariants.append(a[t][t])
        t += 1

    return invariants, u, v


def eliminate_unit_pivots(rows, cols, carried=()):
    """Sparse unit-pivot elimination in place; returns the pivot rows.

    ``rows`` is {row: {col: value}} and ``cols`` the same entries as
    {col: {row: value}}, with no zeros and no empty dicts.  A pivot is a
    +-1 entry (i, j): column operations clear row i, row operations clear
    column j, and row i and column j leave both dicts, each pivot standing
    for one invariant factor 1.  Singleton rows and columns, which cause
    no fill-in, go first through a queue; otherwise the unit entry of least
    Markowitz cost (|row| - 1) * (|column| - 1) is taken from a lazy heap.
    Every carried vector ({row: value}) goes through the same row
    operations and drops its pivot coordinates, so it keeps its class in
    the cokernel.  The elimination stops when no unit entry is left, or
    when fill-in passes 30% of the live block, checked every 64 pivots;
    what is left in ``rows``/``cols`` is the core.
    """
    pivots = []
    nnz = sum(len(r) for r in rows.values())
    queue = deque([("r", i) for i in sorted(rows) if len(rows[i]) == 1]
                  + [("c", j) for j in sorted(cols) if len(cols[j]) == 1])
    heap = None

    def push_units(k):
        rk = rows[k]
        cost = len(rk) - 1
        for j, val in rk.items():
            if val in (1, -1):
                heapq.heappush(heap, (cost * (len(cols[j]) - 1), k, j))

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
                heap = []
                for k in rows:
                    push_units(k)
            while heap:
                cost, i, j = heapq.heappop(heap)
                if i not in rows or rows[i].get(j) not in (1, -1):
                    continue
                cur = (len(rows[i]) - 1) * (len(cols[j]) - 1)
                if cur > cost:
                    heapq.heappush(heap, (cur, i, j))
                    continue
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
                continue
            if len(row_k) == 1:
                queue.append(("r", k))
            if heap is not None:
                push_units(k)
        pivots.append(i)
        if len(pivots) % 64 == 0 and rows and nnz * 10 > 3 * len(rows) * len(cols):
            return pivots


def smith_normal_form(matrix, want_transforms=False):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    With ``want_transforms`` the unimodular U (rows x rows) and
    V (cols x cols) with U @ M @ V diagonal are returned as well; that
    path uses the dense algorithm throughout, which is fine at the sizes
    transforms are requested for.  Otherwise ``eliminate_unit_pivots``
    reduces the matrix, the dense algorithm finishes its core, and the
    rows of the unit pivots come back as ``pivot_rows``.
    """
    m, n = matrix.rows, matrix.cols
    if want_transforms:
        inv, u, v = _dense_snf(matrix.to_dense(), m, n, True)
        return SmithNormalForm(tuple(inv), IntegerMatrix.from_dense(u),
                               IntegerMatrix.from_dense(v))
    rows = {}
    cols = {}
    for (i, j), val in matrix.entries.items():
        rows.setdefault(i, {})[j] = val
        cols.setdefault(j, {})[i] = val
    pivots = eliminate_unit_pivots(rows, cols)
    live_rows = sorted(rows)
    ci = {c: k for k, c in enumerate(sorted(cols))}
    dense = [[0] * len(ci) for _ in live_rows]
    for out, r in zip(dense, live_rows):
        for c, val in rows[r].items():
            out[ci[c]] = val
    inv, _, _ = _dense_snf(dense, len(live_rows), len(ci), False)
    return SmithNormalForm(tuple([1] * len(pivots) + sorted(inv)), None, None,
                           tuple(pivots))


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
        parts = []
        for rank, torsion in self.groups:
            bits = []
            if rank:
                bits.append("Z^%d" % rank if rank > 1 else "Z")
            bits.extend("Z/%d" % t for t in torsion)
            parts.append("+".join(bits) if bits else "0")
        return "H(" + ", ".join(parts) + ")"


class ChainComplex:
    """Integer chain complex with labelled bases.

    boundaries[d] maps dimension-d chains to dimension-(d-1) chains;
    the composition of consecutive boundaries is checked to vanish.
    """

    def __init__(self, cell_counts, boundaries, labels=None, check=True):
        self.cell_counts = tuple(int(c) for c in cell_counts)
        self.boundaries = dict(boundaries)
        self.labels = labels or {}
        self.dim = len(self.cell_counts) - 1
        for d, mat in self.boundaries.items():
            if not 1 <= d <= self.dim:
                raise ValueError("boundary map in dimension %d out of range" % d)
            if mat.rows != self.cell_counts[d - 1] or mat.cols != self.cell_counts[d]:
                raise ValueError("boundary %d has shape %dx%d, expected %dx%d" % (
                    d, mat.rows, mat.cols, self.cell_counts[d - 1], self.cell_counts[d]))
        if check:
            for d in range(2, self.dim + 1):
                lower = self.boundaries.get(d - 1)
                upper = self.boundaries.get(d)
                if lower is not None and upper is not None:
                    prod = lower @ upper
                    if prod.nnz():
                        raise ValueError("boundary of boundary is nonzero in dim %d" % d)

    def boundary(self, d):
        mat = self.boundaries.get(d)
        if mat is None:
            rows = self.cell_counts[d - 1] if d - 1 >= 0 and d - 1 <= self.dim else 0
            cols = self.cell_counts[d] if 0 <= d <= self.dim else 0
            return IntegerMatrix(max(rows, 0), max(cols, 0))
        return mat


def homology(chain_complex):
    """Integral homology H_d = ker d_d / im d_{d+1}, exactly.

    Top-down with clearing, see above; relies on d_d d_{d+1} = 0, which
    ``ChainComplex`` checks by default.
    """
    ranks = {}
    torsions = {}
    cleared = frozenset()
    for d in range(chain_complex.dim, 0, -1):
        mat = chain_complex.boundary(d)
        if cleared:
            kept = IntegerMatrix(mat.rows, mat.cols)
            kept.entries = {ij: v for ij, v in mat.entries.items() if ij[1] not in cleared}
            mat = kept
        snf = smith_normal_form(mat)
        ranks[d] = snf.rank()
        torsions[d] = tuple(t for t in snf.invariants if t > 1)
        cleared = frozenset(snf.pivot_rows)
    groups = []
    for d in range(chain_complex.dim + 1):
        n_d = chain_complex.cell_counts[d]
        betti = n_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
        groups.append((betti, torsions.get(d + 1, ())))
    return HomologyProfile(groups)


def simplicial_chain_complex(complex_, check=True):
    """Chain complex of a simplicial complex, faces ordered lexicographically.

    Boundary signs follow the position parity of the omitted vertex.
    """
    dim = complex_.dim()
    faces = {d: complex_.faces(d) for d in range(dim + 1)}
    index = {d: {f: i for i, f in enumerate(faces[d])} for d in range(dim + 1)}
    boundaries = {}
    for d in range(1, dim + 1):
        mat = IntegerMatrix(len(faces[d - 1]), len(faces[d]))
        for j, f in enumerate(faces[d]):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                mat.entries[(index[d - 1][sub], j)] = 1 if pos % 2 == 0 else -1
        boundaries[d] = mat
    counts = [len(faces[d]) for d in range(dim + 1)]
    return ChainComplex(counts, boundaries, labels=faces, check=check)


class Manifold3Report(NamedTuple):
    pseudomanifold: bool
    vertex_links_are_2spheres: bool
    orientable: bool
    orientation: Optional[dict]  # facet -> +-1, lexicographically least facet positive
    failures: tuple

    @property
    def passed(self):
        return self.pseudomanifold and self.vertex_links_are_2spheres and self.orientable


def _link_is_2sphere(complex_, v):
    link = vertex_link(complex_, v)
    if not link.facets or not link.is_pure(2):
        return False
    # closed surface: every edge in exactly two triangles
    edge_count = {}
    for f in link.facets:
        for e in combinations(f, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    if any(c != 2 for c in edge_count.values()):
        return False
    # connected
    adj = {}
    for f in link.facets:
        for a, b in combinations(f, 2):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != link.vertex_count:
        return False
    return link.euler_characteristic() == 2


def is_closed_orientable_3manifold(complex_):
    """Certify a closed orientable 3-manifold combinatorially.

    Checks: pure of dimension 3 and connected (errors otherwise), every
    triangle in exactly two tetrahedra, every vertex link a 2-sphere, and
    a consistent facet orientation found by sign propagation across the
    dual graph.  The orientation is normalized so the lexicographically
    least facet is positive.
    """
    if not complex_.facets or not complex_.is_pure(3):
        raise ValueError("complex is not pure 3-dimensional")

    failures = []
    facets = complex_.facets
    tri_to_facets = {}
    for idx, f in enumerate(facets):
        for t in combinations(f, 3):
            tri_to_facets.setdefault(t, []).append(idx)

    pseudo = True
    for t, owners in tri_to_facets.items():
        if len(owners) != 2:
            pseudo = False
            failures.append("triangle %r lies in %d tetrahedra" % (t, len(owners)))
            break

    # connectivity through the dual graph
    n_f = len(facets)
    dual = [[] for _ in range(n_f)]
    if pseudo:
        for t, (a, b) in tri_to_facets.items():
            dual[a].append((b, t))
            dual[b].append((a, t))
        seen = {0}
        stack = [0]
        while stack:
            for nb, _ in dual[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n_f:
            raise ValueError("complex is not connected")

    links_ok = True
    for v in range(complex_.vertex_count):
        if not _link_is_2sphere(complex_, v):
            links_ok = False
            failures.append("link of vertex %d is not a 2-sphere" % v)
            break

    orientable = False
    orientation = None
    if pseudo:
        signs = {0: 1}
        stack = [0]
        consistent = True
        while stack and consistent:
            cur = stack.pop()
            for nb, tri in dual[cur]:
                # induced orientations on the shared triangle must be opposite
                rel = _relative_sign(facets[cur], facets[nb], tri)
                want = -signs[cur] * rel
                if nb in signs:
                    if signs[nb] != want:
                        consistent = False
                        failures.append("orientation mismatch across triangle %r" % (tri,))
                        break
                else:
                    signs[nb] = want
                    stack.append(nb)
        if consistent and len(signs) == n_f:
            orientable = True
            if signs[0] < 0:  # lexicographically least facet positive
                signs = {k: -v for k, v in signs.items()}
            orientation = {facets[i]: s for i, s in signs.items()}

    return Manifold3Report(pseudo, links_ok, orientable, orientation, tuple(failures))


def _relative_sign(facet_a, facet_b, tri):
    """+1 when the two facets induce the same orientation on their shared triangle."""
    pos_a = facet_a.index(next(x for x in facet_a if x not in tri))
    pos_b = facet_b.index(next(x for x in facet_b if x not in tri))
    return 1 if (pos_a + pos_b) % 2 == 0 else -1


class SphereReport(NamedTuple):
    is_homology_sphere: bool
    profile: Optional[HomologyProfile]  # None when the manifold check fails
    manifold: Manifold3Report
    note: str


S3_PROFILE = HomologyProfile([(1, ()), (0, ()), (0, ()), (1, ())])


def is_homology_3sphere(complex_):
    """Verify the integral homology of the 3-sphere.

    Runs the closed-orientable-3-manifold check once and returns its
    report as ``manifold``; when it fails, the answer is no and the
    homology is not computed (``profile`` is None).  Non-pure and
    disconnected input raise ValueError.  Simple connectivity is NOT
    checked; a true result certifies a homology 3-sphere only.
    """
    manifold = is_closed_orientable_3manifold(complex_)
    if not manifold.passed:
        return SphereReport(False, None, manifold, "not a closed orientable "
                            "3-manifold: %s" % (manifold.failures,))
    profile = homology(simplicial_chain_complex(complex_))
    ok = profile == S3_PROFILE
    return SphereReport(
        ok, profile, manifold,
        "homology matches S^3; simple connectivity is NOT checked" if ok
        else "homology differs from S^3")
