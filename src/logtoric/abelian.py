"""Quotients of Z^n by many sparse relations.

The colimit groups glue hundreds of Chow presentations with one
transition relation per generator and edge; almost every relation has a
±1 pivot, so the presentation collapses by substitution to a small
dense core where Smith normal form is cheap.  The eliminations are kept,
with each generator's image in the core, so arbitrary vectors can be
pushed down to core coordinates exactly.

The pivot rule is fixed, because the core columns define the chain bases
downstream: the lowest alive row with a ±1 entry, at its smallest ±1
column.  The loop is left-looking: it takes the rows in order and reduces
each through the *forms* of the eliminated columns, a form being the
column's expression over the columns still alive, stamped with the pivot
count at its last refresh.  A stale form is refreshed through the forms
of its own columns (path compression, by an explicit loop).  A reduced
row with no ±1 entry is deferred; after every pivot the deferred rows are
retried in row order, from the front again after each pivot among them,
before the next new row.  Given the pivots made so far a row's reduced
content is unique, so this makes the pivots of the right-looking loop
that rewrites every alive row at each pivot, without the rewriting.  At
the end each eliminated generator gets its image, its form over the core
columns, and ``to_core`` sums the images of a vector's generators.

Every solve modulo a relation lattice, here and in the cubical complex,
goes through ``intlinalg.LatticeSolver``: one Hermite normal form of the
stacked vectors, then back-substitution per right-hand side.  Every
normal form reduces the core image through ``intlinalg.HermiteBasis``,
the Hermite rows of the core relations with their pivot columns.
"""

from __future__ import annotations


from .intlinalg import (
    FPAbelianGroup,
    HermiteBasis,
    IntMatrix,
    LatticeSolver,
    int_entries,
    kernel_basis,
)


def _substitute(combo, forms):
    """The sparse combination ``combo`` with each column that has a form
    replaced by that form (one level), zeros dropped."""
    out = {}
    for c, k in combo.items():
        f = forms.get(c)
        if f is None:
            out[c] = out.get(c, 0) + k
        else:
            for c2, v in f.items():
                out[c2] = out.get(c2, 0) + k * v
    return {c: v for c, v in out.items() if v}


class Presentation:
    """Z^ngens modulo sparse relation rows (dicts column -> value)."""

    def __init__(self, ngens: int, rows):
        self.ngens = ngens
        rows = list(rows)
        for r in rows:
            for c in r:
                if not 0 <= c < ngens:
                    raise ValueError(f"relation column {c} is not in range({ngens})")
            int_entries(r.values(), "relation entry")  # raises on a non-integer
        self._simplify(rows)

    def _simplify(self, rows):
        # forms[c]: e_c over the columns alive when stamps[c] was the pivot
        # count; its columns eliminated since then are substituted on demand
        forms, stamps = {}, {}
        eliminations = []
        deferred = []  # reduced rows with no ±1 entry, in row order

        def fresh(c):
            """Bring the form of c, and every form it needs, up to date."""
            n = len(eliminations)
            stack = [c]
            while stack:
                d = stack[-1]
                if stamps[d] == n:
                    stack.pop()
                    continue
                stale = [c2 for c2 in forms[d] if c2 in forms and stamps[c2] != n]
                if stale:
                    stack += stale
                    continue
                forms[d] = _substitute(forms[d], forms)
                stamps[d] = n
                stack.pop()

        def reduce(r):
            eliminated = [c for c in r if c in forms]
            if not eliminated:
                return r
            for c in eliminated:
                fresh(c)
            return _substitute(r, forms)

        def pivot(r):
            """Eliminate r's smallest ±1 column, if it has one."""
            c = min((c for c, v in r.items() if v == 1 or v == -1), default=None)
            if c is None:
                return False
            sign = r[c]
            # e_c = -sign * (rest of the row)
            expr = {c2: -sign * r[c2] for c2 in sorted(r) if c2 != c}
            eliminations.append((c, expr))
            forms[c] = expr
            stamps[c] = len(eliminations)
            return True

        for r in rows:
            r = reduce(self._clean(r))
            if not r:
                continue
            if not pivot(r):
                deferred.append(r)
                continue
            # the lowest deferred row that now has a ±1 entry is the next
            # pivot; after it, the rows before it may have gained one too
            i = 0
            while i < len(deferred):
                r = reduce(deferred[i])
                if not r:
                    del deferred[i]
                elif pivot(r):
                    del deferred[i]
                    i = 0
                else:
                    deferred[i] = r
                    i += 1

        # images in reverse elimination order: each form's eliminated
        # columns were eliminated later, so their images are complete
        images = {}
        for c, _ in reversed(eliminations):
            images[c] = _substitute(forms[c], images)
        self._eliminations = eliminations
        self.core_cols = sorted(set(range(self.ngens)) - images.keys())
        pos = {c: i for i, c in enumerate(self.core_cols)}
        # generator -> its image as (core position, coefficient) pairs
        self._images = {c: ((i, 1),) for c, i in pos.items()}
        for c, img in images.items():
            self._images[c] = tuple((pos[c2], v) for c2, v in img.items())
        self.core_rows = [tuple(r.get(c, 0) for c in self.core_cols) for r in deferred]
        self._basis = HermiteBasis(self.core_rows)

    @property
    def eliminations(self):
        """The unit-pivot substitutions in the order they were made, as
        ``(col, {col2: coeff})`` pairs meaning e_col = sum coeff * e_col2,
        each expression sorted by column."""
        return tuple(self._eliminations)

    @staticmethod
    def _clean(r):
        return {c: v for c, v in r.items() if v}

    # -- vectors ---------------------------------------------------------

    def to_core(self, vec):
        """Push a sparse or dense vector down to core coordinates: the sum
        of each generator's image, computed once by the elimination."""
        out = [0] * len(self.core_cols)
        for c, k in vec.items() if isinstance(vec, dict) else enumerate(vec):
            if k:
                for i, v in self._images[c]:
                    out[i] += k * v
        return tuple(out)

    def to_core_sparse(self, vec):
        """``to_core`` of a sparse vector, kept sparse: a dict core
        position -> nonzero coefficient."""
        out = {}
        for c, k in vec.items():
            for i, v in self._images[c]:
                out[i] = out.get(i, 0) + k * v
        return {i: v for i, v in out.items() if v}

    def normal_form(self, vec):
        return self.reduce_core(self.to_core(vec))

    def reduce_core(self, core_vec):
        """The normal form of a vector already in core coordinates."""
        return self._basis.reduce(core_vec)

    def is_zero(self, vec) -> bool:
        return not any(self.normal_form(vec))

    def group(self) -> FPAbelianGroup:
        return FPAbelianGroup.from_rows(len(self.core_cols), self.core_rows)

    def relation_lattice_rows(self):
        """Basis rows of the relation lattice in core coordinates."""
        return list(self._basis.rows)

    def solve_combination(self, vectors, targets):
        """For each target, integer coefficients x with sum x_i vectors_i
        = target in this quotient, or None.  The vectors are factored
        once for all targets; vectors and targets may be sparse dicts."""
        solver = LatticeSolver([self.to_core(v) for v in vectors], self._basis.rows)
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
    kernel = kernel_basis(IntMatrix.from_rows(aug))
    return list(HermiteBasis(k[:ncols] for k in kernel).rows)
