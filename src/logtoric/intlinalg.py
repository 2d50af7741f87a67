"""Exact integer linear algebra: Hermite/Smith normal forms and
finitely presented abelian groups.

Everything here works over arbitrary-precision Python ints.  No floats,
ever: the geometry downstream is exact and HNF pivots overflow fixed
width integers on very ordinary inputs.

Matrices are immutable tuples of tuples of ints, row major.  A matrix
``m`` is read as the map ``Z^cols -> Z^rows`` sending ``x`` to ``m @ x``.

Every Hermite form runs one echelon routine, ``_echelon``: with the
transform as trailing entries of the rows in ``hermite_normal_form``,
without it in ``HermiteBasis`` (the reduction basis), ``det`` and ``rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import index


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    @staticmethod
    def from_rows(rows_list) -> "IntMatrix":
        """The matrix with the given rows; an entry that is not an integer
        (a float, a string) raises ``ValueError``, it is never rounded."""
        rows_list = [int_entries(r, "matrix entry") for r in rows_list]
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if rows_list else 0
        if any(len(r) != ncols for r in rows_list):
            raise ValueError("ragged rows")
        return IntMatrix(nrows, ncols, tuple(rows_list))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return IntMatrix(self.cols, 0, ((),) * self.cols)
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = tuple(
            tuple(sum(a * b for a, b in zip(r, c)) for c in ot)
            for r in self.entries
        )
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec) -> tuple:
        """m @ vec for a length-``cols`` integer vector."""
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(r, vec)) for r in self.entries)

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def int_entries(values, what: str) -> tuple:
    """``values`` as a tuple of ints, each read by ``operator.index``: an
    entry that is not an integer (a float, a string) raises ``ValueError``
    naming it as ``what``; it is never truncated."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(type(x), "__index__"))
        raise ValueError(f"{what} {bad!r} is not an integer") from None


def primitive(vec):
    """Divide an integer vector by the gcd of its entries.

    The zero vector has no primitive representative.
    """
    vec = int_entries(vec, "vector entry")
    g = gcd(*vec)
    if g == 0:
        raise ValueError("nonzero required")
    return vec if g == 1 else tuple(x // g for x in vec)


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _add_row(m, dst, src, c):
    if c:
        m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]


def _echelon(h, ncols):
    """Bring the rows ``h`` (lists, changed in place) to row Hermite
    normal form in their first ``ncols`` entries; any further entries of a
    row (a transform, say) take part in every row operation.

    The form is row echelon with positive pivots and the entries above
    each pivot reduced to ``0 <= entry < pivot``.  Returns the pivot
    column of each nonzero row, in order, and the determinant (±1) of the
    row operations: each swap and each negation flips it.
    """
    nrows = len(h)
    pivots = []
    sign = 1
    for col in range(ncols):
        t = len(pivots)
        if t == nrows:
            break
        # move a nonzero entry of least magnitude up, then gcd out the
        # column below it; a nonzero remainder is smaller, so this ends
        while True:
            nz = [i for i in range(t, nrows) if h[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(h[i][col]))
            if i_min != t:
                _swap_rows(h, t, i_min)
                sign = -sign
            if len(nz) == 1:
                break
            p = h[t][col]
            for i in range(t + 1, nrows):
                if h[i][col] != 0:
                    _add_row(h, i, t, -(h[i][col] // p))
        if not nz:  # nothing at or below row t: no pivot in this column
            continue
        if h[t][col] < 0:
            _negate_row(h, t)
            sign = -sign
        p = h[t][col]
        for i in range(t):
            # floor division: leaves 0 <= remainder < p
            _add_row(h, i, t, -(h[i][col] // p))
        pivots.append(col)
    return pivots, sign


def hermite_normal_form(m: IntMatrix):
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``H = U @ m``, ``U`` unimodular, ``H`` in
    row echelon form with positive pivots and entries above each pivot
    reduced to ``0 <= entry < pivot``.  ``U`` is carried as the trailing
    block of the rows ``[m | I]``.
    """
    k = m.cols
    rows = [list(r) + list(e) for r, e in zip(m.entries, IntMatrix.identity(m.rows).entries)]
    _echelon(rows, k)
    H = IntMatrix.from_rows([r[:k] for r in rows]) if rows else IntMatrix.zero(0, k)
    U = IntMatrix.from_rows([r[k:] for r in rows]) if rows else IntMatrix.zero(0, 0)
    return H, U


class HermiteBasis:
    """The nonzero rows of the Hermite normal form of ``rows``, with their
    pivot columns, built without a transform.

    ``reduce`` gives the canonical representative of a vector modulo the
    lattice the rows span (Cohen, §2.4.2): each pivot entry is brought
    into ``0 <= entry < pivot``, in row order.
    """

    __slots__ = ("rows", "_pivots")

    def __init__(self, rows):
        h = [list(r) for r in rows]
        self._pivots = _echelon(h, len(h[0]) if h else 0)[0]
        self.rows = tuple(tuple(r) for r in h[: len(self._pivots)])

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec) -> tuple:
        out = list(vec)
        for lead, row in zip(self._pivots, self.rows):
            c = out[lead] // row[lead]
            if c:
                for j in range(lead, len(out)):
                    out[j] -= c * row[j]
        return tuple(out)


def _add_col(mat, dst, src, c):
    if c:
        for row in mat:
            row[dst] += c * row[src]


def _swap_cols(mat, i, j):
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _diagonalize(d, u, v, nr, nc, start):
    """Diagonalize the trailing block of d from position ``start`` by
    unimodular row ops (mirrored in u) and column ops (mirrored in v)."""
    t = start
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            _swap_rows(d, t, bi)
            _swap_rows(u, t, bi)
        if bj != t:
            _swap_cols(d, t, bj)
            _swap_cols(v, t, bj)
        # clear row and column t; a nonzero remainder becomes the new,
        # strictly smaller pivot, so this loop terminates
        while True:
            p = d[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if d[i][t] != 0:
                    q = d[i][t] // p
                    _add_row(d, i, t, -q)
                    _add_row(u, i, t, -q)
                    if d[i][t] != 0:
                        _swap_rows(d, t, i)
                        _swap_rows(u, t, i)
                        dirty = True
                        p = d[t][t]
            for j in range(t + 1, nc):
                if d[t][j] != 0:
                    q = d[t][j] // p
                    _add_col(d, j, t, -q)
                    _add_col(v, j, t, -q)
                    if d[t][j] != 0:
                        _swap_cols(d, t, j)
                        _swap_cols(v, t, j)
                        dirty = True
                        p = d[t][t]
            if not dirty:
                break
        if d[t][t] < 0:
            _negate_row(d, t)
            _negate_row(u, t)
        t += 1


def smith_normal_form(m: IntMatrix):
    """Smith normal form ``D = U @ m @ V`` with the divisibility chain.

    ``U`` and ``V`` are unimodular; ``D`` is diagonal with nonnegative
    entries ``d_1 | d_2 | ...``.
    """
    d = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    _diagonalize(d, u, v, nr, nc, 0)

    # enforce the divisibility chain d_i | d_{i+1}: fold the offender
    # into column i and rediagonalize from i.  Each pass replaces d_i by
    # gcd(d_i, d_{i+1}), so the loop terminates.
    k = min(nr, nc)
    while True:
        violation = None
        for i in range(k - 1):
            a, b = d[i][i], d[i + 1][i + 1]
            if a != 0 and b % a != 0:
                violation = i
                break
        if violation is None:
            break
        _add_col(d, violation, violation + 1, 1)
        _add_col(v, violation, violation + 1, 1)
        _diagonalize(d, u, v, nr, nc, violation)

    D = IntMatrix.from_rows(d) if d else IntMatrix.zero(0, nc)
    U = IntMatrix.from_rows(u) if u else IntMatrix.zero(0, 0)
    V = IntMatrix.from_rows(v) if v else IntMatrix.zero(0, 0)
    return D, U, V


def det(m: IntMatrix) -> int:
    """Determinant of a square integer matrix, exactly: the product of the
    Hermite pivots, signed by the transform."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    h = [list(r) for r in m.entries]
    pivots, sign = _echelon(h, m.cols)
    if len(pivots) < m.rows:
        return 0
    return sign * prod(h[t][t] for t in range(m.rows))


def rank(m: IntMatrix) -> int:
    return len(HermiteBasis(m.entries))


class LatticeSolver:
    """Solve ``sum_j x_j columns[j] = target`` modulo the lattice spanned by
    ``lattice``, for many targets.

    The Hermite normal form of the stacked vectors (columns first, lattice
    generators after) is computed once; each ``solve`` is back-substitution
    on its echelon rows.  ``H = U @ stacked``, so a combination of the
    rows of ``H`` pulls back through ``U`` to coefficients on the stacked
    vectors, of which the first ``len(columns)`` are returned.
    """

    def __init__(self, columns, lattice=()):
        self._ncols = len(columns)
        h, u = hermite_normal_form(IntMatrix.from_rows(list(columns) + list(lattice)))
        self._width = h.cols if h.rows else None  # None: no stacked vectors
        self._pivots = []  # (lead, echelon row, U row cut to the columns)
        self._kernel = []
        for row, urow in zip(h.entries, u.entries):
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is None:
                self._kernel.append(urow)
            else:
                self._pivots.append((lead, row, urow[: self._ncols]))

    def solve(self, target):
        """Coefficients on the columns, or None if the target is no
        combination of them modulo the lattice."""
        if self._width is not None and len(target) != self._width:
            raise ValueError("shape mismatch")
        residue = list(int_entries(target, "target entry"))
        x = [0] * self._ncols
        for lead, row, urow in self._pivots:
            c, rem = divmod(residue[lead], row[lead])
            if rem:
                return None
            if c:
                for j in range(lead, len(residue)):
                    residue[j] -= c * row[j]
                for j, v in enumerate(urow):
                    x[j] += c * v
        if any(residue):
            return None
        return tuple(x)

    def kernel(self):
        """Rows spanning the integer relations among the stacked vectors
        (coefficients on the columns, then on the lattice generators)."""
        return list(self._kernel)


def kernel_basis(m: IntMatrix):
    """Rows spanning the integer kernel ``{x : m @ x = 0}``.

    The returned lattice is saturated (it is the full kernel of the map,
    not an index-d sublattice).
    """
    return LatticeSolver(m.transpose().entries).kernel()


def solve_integer(m: IntMatrix, target):
    """One integer solution ``x`` of ``m @ x = target``, or None."""
    if len(target) != m.rows:
        raise ValueError("shape mismatch")
    return LatticeSolver(m.transpose().entries).solve(target)


@dataclass(frozen=True)
class FPAbelianGroup:
    """Finitely presented abelian group `Z^ngens / row span of relations`.

    The Smith normal form of the relation matrix is computed once per
    group; rank and torsion read off its diagonal.
    """

    ngens: int
    relations: IntMatrix  # each row is one relation among the generators

    def __post_init__(self):
        if self.relations.cols != self.ngens and self.relations.rows != 0:
            raise ValueError("relation width must equal generator count")

    @classmethod
    def from_rows(cls, ngens: int, rows) -> "FPAbelianGroup":
        """Z^ngens modulo the span of ``rows``, which may be empty."""
        return cls(ngens, IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, ngens))

    @cached_property
    def _snf_diagonal(self):
        """The Smith diagonal of the relations cut to the columns that
        some relation touches.  A zero column adds no invariant factor,
        and without it a group with no relations is a 0 x 0 form, not
        an n x n column transform."""
        rel = self.relations.entries
        used = [j for j, col in enumerate(zip(*rel)) if any(col)]
        d, _, _ = smith_normal_form(IntMatrix.from_rows([[row[j] for j in used] for row in rel]))
        return d.diagonal()

    @property
    def rank(self) -> int:
        diag = self._snf_diagonal
        nonzero = sum(1 for x in diag if x != 0)
        return self.ngens - nonzero

    @property
    def torsion(self):
        """Invariant factors > 1, in divisibility order."""
        return tuple(x for x in self._snf_diagonal if x > 1)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def invariants(self):
        return (self.rank, self.torsion)

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"
