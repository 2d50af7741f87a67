import random

import pytest

from logtoric.abelian import Presentation, kernel_mod_lattice
from logtoric.intlinalg import IntMatrix, hermite_normal_form


def test_presentation_basic_invariants():
    # Z^3 / (x0 = x1, 2 x2 = 0) = Z + Z/2
    p = Presentation(3, [{0: 1, 1: -1}, {2: 2}])
    assert p.group().invariants() == (1, (2,))
    assert p.is_zero({0: 1, 1: -1})
    assert not p.is_zero({2: 1})
    assert p.is_zero({2: 2})
    assert p.normal_form({0: 1}) == p.normal_form({1: 1})


def test_presentation_chained_substitution():
    # a chain of identifications all the way down
    rows = [{i: 1, i + 1: -1} for i in range(9)]
    p = Presentation(10, rows)
    assert p.group().invariants() == (1, ())
    assert p.normal_form({0: 1}) == p.normal_form({9: 1})
    assert p.is_zero({0: 3, 9: -3})


def test_presentation_no_unit_pivot():
    # Z^2 / (2x0 + 4x1) keeps a non-unit core
    p = Presentation(2, [{0: 2, 1: 4}])
    assert p.group().invariants() == (1, (2,))


def test_solve_combination():
    p = Presentation(2, [{0: 2, 1: -2}])
    # target (1,1): x*(1,0) + y*(0,1); modulo (2,-2): (1,1) = (1,0)+(0,1)
    [sol] = p.solve_combination([{0: 1}, {1: 1}], [{0: 1, 1: 1}])
    assert sol is not None
    x, y = sol
    got = {0: x, 1: y}
    diff = {0: got.get(0, 0) - 1, 1: got.get(1, 0) - 1}
    assert p.is_zero(diff)
    # no combination of (2,0) makes (1,0) even modulo the relation lattice
    assert p.solve_combination([{0: 2}], [{0: 1}]) == [None]


def test_kernel_mod_lattice():
    # M: Z^2 -> Z^1, (a, b) -> a + 2b; lattice 5Z
    ker = kernel_mod_lattice([(1, 2)], [(5,)], 2)
    # kernel contains (-2,1) and (5,0)
    m = IntMatrix.from_rows(ker).transpose()
    from logtoric.intlinalg import solve_integer

    assert solve_integer(m, (-2, 1)) is not None
    assert solve_integer(m, (5, 0)) is not None
    assert solve_integer(m, (1, 0)) is None


def test_kernel_mod_lattice_empty_matrix():
    ker = kernel_mod_lattice([], [], 3)
    assert len(ker) == 3


# -- unit-pivot elimination against the re-sorting reference --------------------


def _reference_simplify(ngens, rows):
    """The elimination as first written: at every pivot, scan the alive
    rows in sorted order and each row's columns in sorted order for the
    first ±1 entry.  Returns (eliminations, core_cols, core_rows)."""
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    rows = [r for r in rows if r]
    eliminations = []
    col_rows = {}
    for ri, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(ri)
    alive = set(range(len(rows)))
    eliminated_cols = set()
    while True:
        pick = None
        for ri in sorted(alive):
            r = rows[ri]
            for c in sorted(r):
                if abs(r[c]) == 1:
                    pick = (ri, c)
                    break
            if pick:
                break
        if pick is None:
            break
        ri, c = pick
        r = rows[ri]
        sign = r[c]
        expr = {c2: -sign * v for c2, v in r.items() if c2 != c}
        eliminations.append((c, expr))
        eliminated_cols.add(c)
        alive.discard(ri)
        for other in list(col_rows.get(c, ())):
            if other == ri or other not in alive:
                continue
            row_o = rows[other]
            k = row_o.pop(c, 0)
            if k:
                for c2, v in expr.items():
                    row_o[c2] = row_o.get(c2, 0) + k * v
                    if row_o[c2] == 0:
                        del row_o[c2]
                    else:
                        col_rows.setdefault(c2, set()).add(other)
            if not row_o:
                alive.discard(other)
        col_rows.pop(c, None)
    core_cols = sorted(set(range(ngens)) - eliminated_cols)
    core_rows = [tuple(rows[ri].get(c, 0) for c in core_cols) for ri in sorted(alive) if rows[ri]]
    return eliminations, core_cols, core_rows


def _assert_matches_reference(ngens, rows):
    want_elims, want_cols, want_rows = _reference_simplify(ngens, [dict(r) for r in rows])
    p = Presentation(ngens, rows)
    # dict order is part of the output: it fixes the order of to_core's sums
    assert [(c, list(e.items())) for c, e in p.eliminations] == [
        (c, list(e.items())) for c, e in want_elims
    ]
    assert p.core_cols == want_cols
    assert list(p.core_rows) == want_rows
    if want_rows:
        h, _ = hermite_normal_form(IntMatrix.from_rows(want_rows))
        assert p.relation_lattice_rows() == [r for r in h.entries if any(r)]
    else:
        assert p.relation_lattice_rows() == []
    return p


def test_elimination_lowest_row_gains_a_unit_from_a_later_pivot():
    # row 0 has no ±1 entry; row 1's pivot e0 = e1 + e2 turns it into
    # -e1 + 2 e2, and the next pivot is row 0 again
    rows = [{0: 2, 1: -3}, {0: 1, 1: -1, 2: -1}, {2: 3, 3: 5}]
    p = _assert_matches_reference(4, rows)
    assert [c for c, _ in p.eliminations] == [0, 1]


def test_elimination_rows_that_cancel_to_empty():
    rows = [{0: 1, 1: -1}, {0: 2, 1: -2}, {1: 1, 0: -1}, {2: 4}]
    p = _assert_matches_reference(3, rows)
    assert p.core_rows == [(0, 4)]


def test_elimination_column_leaves_a_row_and_enters_again():
    # e0 = -e1 cancels column 1 out of row 1; e4 = -7 e5 - 3 e1 brings it
    # back, so row 1 is listed twice under column 1 when e1 = -e6 is made
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 2, 4: 2}, {4: 1, 5: 7, 1: 3}, {1: 1, 6: 1}]
    p = _assert_matches_reference(7, rows)
    assert [c for c, _ in p.eliminations] == [0, 4, 1]
    assert (p.core_cols, p.core_rows) == ([2, 3, 5, 6], [(2, 0, -14, 6)])


@pytest.mark.parametrize("seed", range(6))
def test_elimination_matches_reference_on_seeded_sparse_rows(seed):
    rng = random.Random(7000 + seed)
    values = [1, -1, 1, -1, 2, -2, 3, -3, 0]
    for _ in range(40):
        ngens = rng.randint(1, 30)
        rows = [
            {rng.randrange(ngens): rng.choice(values) for _ in range(rng.randint(0, 5))}
            for _ in range(rng.randint(0, 40))
        ]
        _assert_matches_reference(ngens, rows)
