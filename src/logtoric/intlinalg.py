"""Exact integer linear algebra: Hermite/Smith normal forms and
finitely presented abelian groups.

Everything here works over arbitrary-precision Python ints.  No floats,
ever: the geometry downstream is exact and HNF pivots overflow fixed
width integers on very ordinary inputs.

Matrices are immutable tuples of tuples of ints, row major.  A matrix
``m`` is read as the map ``Z^cols -> Z^rows`` sending ``x`` to ``m @ x``.

Every Hermite form runs one echelon engine, ``_echelon``, on sparse rows
(dicts column -> nonzero entry); the transform of ``hermite_normal_form``
and ``LatticeSolver`` rides along as trailing keys ``ncols + i``.
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
    def from_rows(rows_list, cols=0) -> "IntMatrix":
        """The matrix with these rows, ``cols`` wide if there are none; an
        entry that is not an integer (a float, a string) raises ``ValueError``, unrounded."""
        rows_list = [int_entries(r, "matrix entry") for r in rows_list]
        nrows = len(rows_list)
        ncols = len(rows_list[0]) if rows_list else cols
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


def _sparse(row) -> dict:
    """A dense row as a dict column -> nonzero entry."""
    return {j: x for j, x in enumerate(row) if x}


def _dense(row, lo, hi) -> tuple:
    """Entries ``lo .. hi - 1`` of a sparse row, as a tuple."""
    out = [0] * (hi - lo)
    for j, x in row.items():
        if lo <= j < hi:
            out[j - lo] = x
    return tuple(out)


def _add_multiple(dst, src, c):
    """``dst += c * src`` on sparse rows, ``c`` nonzero."""
    for j, x in src.items():
        if y := dst.get(j, 0) + c * x:
            dst[j] = y
        else:
            del dst[j]


def _echelon(h, ncols):
    """Bring the sparse rows ``h`` (dicts column -> nonzero entry, changed
    in place) to row Hermite normal form in the columns below ``ncols``; a
    larger key (a transform, say) takes part in every row operation.

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
            nz = [i for i in range(t, nrows) if col in h[i]]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(h[i][col]))
            if i_min != t:
                h[t], h[i_min] = h[i_min], h[t]
                sign = -sign
            if len(nz) == 1:
                break
            p = h[t][col]
            for i in range(t + 1, nrows):
                if col in h[i]:
                    _add_multiple(h[i], h[t], -(h[i][col] // p))
        if not nz:  # nothing at or below row t: no pivot in this column
            continue
        if h[t][col] < 0:
            h[t] = {j: -x for j, x in h[t].items()}
            sign = -sign
        p = h[t][col]
        for i in range(t):
            # floor division: leaves 0 <= remainder < p
            c = h[i].get(col, 0) // p
            if c:
                _add_multiple(h[i], h[t], -c)
        pivots.append(col)
    return pivots, sign


def hermite_normal_form(m: IntMatrix):
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``H = U @ m``, ``U`` unimodular, ``H`` in
    row echelon form with positive pivots and entries above each pivot
    reduced to ``0 <= entry < pivot``.  Row ``i`` carries row ``i`` of
    ``U`` as its keys ``m.cols + i``.
    """
    k, n = m.cols, m.rows
    rows = [_sparse(r) | {k + i: 1} for i, r in enumerate(m.entries)]
    _echelon(rows, k)
    H = IntMatrix(n, k, tuple(_dense(r, 0, k) for r in rows))
    U = IntMatrix(n, n, tuple(_dense(r, k, k + n) for r in rows))
    return H, U


class HermiteBasis:
    """The nonzero rows of the Hermite normal form of ``rows``, with their
    pivot columns, built without a transform.

    ``reduce`` gives the canonical representative of a vector modulo the
    lattice the rows span (Cohen, §2.4.2): each pivot entry is brought
    into ``0 <= entry < pivot``, in row order.  Ragged rows raise
    ``ValueError``.
    """

    __slots__ = ("rows", "_pivot_rows")

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        h = list(map(_sparse, rows))
        self._pivot_rows = tuple(zip(_echelon(h, width)[0], h))
        self.rows = tuple(_dense(r, 0, width) for _, r in self._pivot_rows)

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec) -> tuple:
        out = list(vec)
        for lead, row in self._pivot_rows:
            c = out[lead] // row[lead]
            if c:
                for j, x in row.items():
                    out[j] -= c * x
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
            d[t], d[bi] = d[bi], d[t]
            u[t], u[bi] = u[bi], u[t]
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
                    d[i] = [a - q * b for a, b in zip(d[i], d[t])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[t])]
                    if d[i][t] != 0:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
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
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
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

    return IntMatrix.from_rows(d, nc), IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def det(m: IntMatrix) -> int:
    """Determinant of a square integer matrix, exactly: the product of the
    Hermite diagonal (a zero on it when the rank is short), signed by the
    transform."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    h = list(map(_sparse, m.entries))
    sign = _echelon(h, m.cols)[1]
    return sign * prod(h[t].get(t, 0) for t in range(m.rows))


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
        m = IntMatrix.from_rows(list(columns) + list(lattice))
        k = m.cols
        self._width = k if m.rows else None  # None: no stacked vectors
        rows = [_sparse(r) | {k + i: 1} for i, r in enumerate(m.entries)]
        pivots, _ = _echelon(rows, k)
        # each pivot row whole: its echelon row below key k, its U row after
        self._k, self._pivots = k, list(zip(pivots, rows))
        self._kernel = [_dense(row, k, k + m.rows) for row in rows[len(pivots) :]]

    def solve(self, target):
        """Coefficients on the columns, or None if the target is no
        combination of them modulo the lattice."""
        if self._width is not None and len(target) != self._width:
            raise ValueError("shape mismatch")
        residue = list(int_entries(target, "target entry"))
        x = [0] * self._ncols
        k, cut = self._k, self._k + self._ncols  # U's keys on the columns
        for lead, row in self._pivots:
            c, rem = divmod(residue[lead], row[lead])
            if rem:
                return None
            if c:
                for j, v in row.items():
                    if j < k:
                        residue[j] -= c * v
                    elif j < cut:
                        x[j - k] += c * v
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
        return cls(ngens, IntMatrix.from_rows(rows, ngens))

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
