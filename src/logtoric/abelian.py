"""Quotients of Z^n by many sparse relations.

The colimit groups glue hundreds of Chow presentations with one
transition relation per generator and edge; almost every relation has a
±1 pivot, so the presentation collapses by substitution to a small
dense core where Smith normal form is cheap.  The eliminations are kept
so arbitrary vectors can be pushed down to core coordinates exactly.

The pivot rule is fixed, because the core columns define the chain bases
downstream: the lowest alive row with a ±1 entry, at its smallest ±1
column.  The search starts from a pointer to the lowest alive row, and
each column lists the rows it has entered (append-only, stale entries
skipped), so no pivot re-sorts the rows or the columns.

Every solve modulo a relation lattice, here and in the cubical complex,
goes through ``intlinalg.LatticeSolver``: one Hermite normal form of the
stacked vectors, then back-substitution per right-hand side.
"""

from __future__ import annotations


from .intlinalg import (
    FPAbelianGroup,
    IntMatrix,
    LatticeSolver,
    hermite_normal_form,
    hnf_reduce,
    kernel_basis,
)


class Presentation:
    """Z^ngens modulo sparse relation rows (dicts column -> value)."""

    def __init__(self, ngens: int, rows):
        self.ngens = ngens
        self._eliminations = []  # (col, {col2: coeff}) meaning e_col = sum coeff*e_col2
        self._simplify([dict(r) for r in rows])

    def _simplify(self, rows):
        rows = [r for r in (self._clean(r) for r in rows) if r]
        # column -> the rows it entered, in order; an entry is stale once
        # the column has left that row, and is skipped when visited
        col_rows = {}
        for ri, r in enumerate(rows):
            for c in r:
                col_rows.setdefault(c, []).append(ri)
        alive = [True] * len(rows)
        lowest = 0  # no alive row lies below it
        eliminated_cols = set()
        while True:
            while lowest < len(rows) and not alive[lowest]:
                lowest += 1
            pick = None
            for ri in range(lowest, len(rows)):
                if alive[ri]:
                    c = min((c for c, v in rows[ri].items() if v == 1 or v == -1), default=None)
                    if c is not None:
                        pick = (ri, c)
                        break
            if pick is None:
                break
            ri, c = pick
            r = rows[ri]
            sign = r[c]
            # e_c = -sign * (rest of the row)
            expr = {c2: -sign * v for c2, v in r.items() if c2 != c}
            self._eliminations.append((c, expr))
            eliminated_cols.add(c)
            alive[ri] = False
            for other in col_rows.pop(c):
                if not alive[other]:
                    continue
                row_o = rows[other]
                k = row_o.pop(c, 0)
                if not k:
                    continue
                for c2, v in expr.items():
                    x = row_o.get(c2)
                    if x is None:  # c2 enters the row
                        row_o[c2] = k * v
                        col_rows[c2].append(other)
                        continue
                    x += k * v
                    if x:
                        row_o[c2] = x
                    else:
                        del row_o[c2]
                if not row_o:
                    alive[other] = False

        self.core_cols = sorted(
            set(range(self.ngens)) - eliminated_cols
        )
        self._col_pos = {c: i for i, c in enumerate(self.core_cols)}
        self.core_rows = [
            tuple(r.get(c, 0) for c in self.core_cols)
            for r, a in zip(rows, alive)
            if a
        ]
        if self.core_rows:
            h, _ = hermite_normal_form(IntMatrix.from_rows(self.core_rows))
            self._reduction = [r for r in h.entries if any(r)]
        else:
            self._reduction = []

    @property
    def eliminations(self):
        """The unit-pivot substitutions in the order they were made, as
        ``(col, {col2: coeff})`` pairs meaning e_col = sum coeff * e_col2."""
        return tuple(self._eliminations)

    @staticmethod
    def _clean(r):
        return {c: v for c, v in r.items() if v}

    # -- vectors ---------------------------------------------------------

    def to_core(self, vec):
        """Push a sparse or dense vector down to core coordinates."""
        if isinstance(vec, dict):
            work = dict(vec)
        else:
            work = {i: v for i, v in enumerate(vec) if v}
        for c, expr in self._eliminations:
            k = work.pop(c, 0)
            if k:
                for c2, v in expr.items():
                    work[c2] = work.get(c2, 0) + k * v
                    if work[c2] == 0:
                        del work[c2]
        out = [0] * len(self.core_cols)
        for c, v in work.items():
            out[self._col_pos[c]] = v
        return tuple(out)

    def normal_form(self, vec):
        return hnf_reduce(self.to_core(vec), self._reduction)

    def is_zero(self, vec) -> bool:
        return not any(self.normal_form(vec))

    def group(self) -> FPAbelianGroup:
        return FPAbelianGroup.from_rows(len(self.core_cols), self.core_rows)

    def relation_lattice_rows(self):
        """Basis rows of the relation lattice in core coordinates."""
        return list(self._reduction)

    def solve_combination(self, vectors, targets):
        """For each target, integer coefficients x with sum x_i vectors_i
        = target in this quotient, or None.  The vectors are factored
        once for all targets; vectors and targets may be sparse dicts."""
        solver = LatticeSolver([self.to_core(v) for v in vectors], self._reduction)
        return [solver.solve(self.to_core(t)) for t in targets]


def kernel_mod_lattice(matrix_rows, lattice_rows, ncols):
    """Basis of ``{v in Z^ncols : M v lies in the lattice}``, in Hermite
    normal form.

    ``matrix_rows`` are the rows of M; the lattice is spanned by
    ``lattice_rows`` (in the target).  Used for chain groups (kernels
    into quotient groups).
    """
    if not matrix_rows:
        return list(IntMatrix.identity(ncols).entries)
    # kernel of [M | -lattice generators]; its M-parts span the kernel
    aug = [
        tuple(row) + tuple(-l[i] for l in lattice_rows)
        for i, row in enumerate(matrix_rows)
    ]
    vparts = [k[:ncols] for k in kernel_basis(IntMatrix.from_rows(aug))]
    if not vparts:
        return []
    h, _ = hermite_normal_form(IntMatrix.from_rows(vparts))
    return [tuple(r) for r in h.entries if any(r)]
