import itertools
import random
import sys
from fractions import Fraction

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


def _integral_span(rows, vec):
    """Is ``vec`` an integer combination of the linearly independent
    ``rows``?  Rational elimination, then an integrality check."""
    cols = len(vec)
    # solve x @ rows = vec: one equation per coordinate, one unknown per row
    aug = [[Fraction(r[k]) for r in rows] + [Fraction(vec[k])] for k in range(cols)]
    lead = 0
    for j in range(len(rows)):
        p = next((i for i in range(lead, cols) if aug[i][j]), None)
        assert p is not None, "rows must be independent"
        aug[lead], aug[p] = aug[p], aug[lead]
        aug[lead] = [x / aug[lead][j] for x in aug[lead]]
        for i in range(cols):
            if i != lead and aug[i][j]:
                f = aug[i][j]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[lead])]
        lead += 1
    if any(aug[i][-1] for i in range(lead, cols)):
        return False
    return all(aug[i][-1].denominator == 1 for i in range(lead))


def _rational_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("seed", range(4))
def test_kernel_mod_lattice_with_a_lattice_matches_enumeration_in_a_box(seed):
    # Oracle: in the box [-3, 3]^ncols, v is a combination of the returned
    # basis exactly when M v lies in the lattice, both read by rational
    # elimination with an integrality check.
    rng = random.Random(1500 + seed)
    for _ in range(12):
        ncols, nrows = rng.randint(1, 3), rng.randint(1, 3)
        matrix = [tuple(rng.randint(-3, 3) for _ in range(ncols)) for _ in range(nrows)]
        while True:
            lattice = [
                tuple(rng.choice([2, 3, 4]) * rng.randint(-2, 2) for _ in range(nrows))
                for _ in range(rng.randint(1, nrows))
            ]
            if _rational_rank(lattice) == len(lattice):
                break
        basis = kernel_mod_lattice(matrix, lattice, ncols)
        assert _rational_rank(basis) == len(basis)
        for v in itertools.product(range(-3, 4), repeat=ncols):
            image = tuple(sum(a * x for a, x in zip(row, v)) for row in matrix)
            assert _integral_span(basis, v) == _integral_span(lattice, image), (
                matrix, lattice, v,
            )


# -- unit-pivot elimination against the re-sorting reference --------------------


def _reference_simplify(ngens, rows):
    """The elimination as first written: at every pivot, scan the alive
    rows in sorted order and each row's columns in sorted order for the
    first ±1 entry.  Returns (eliminations, core_cols, core_rows), each
    expression sorted by column."""
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
    eliminations = [(c, dict(sorted(expr.items()))) for c, expr in eliminations]
    return eliminations, core_cols, core_rows


def _assert_matches_reference(ngens, rows):
    want_elims, want_cols, want_rows = _reference_simplify(ngens, [dict(r) for r in rows])
    p = Presentation(ngens, rows)
    # each expression is emitted sorted by column, so its order is checked too
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


def _seeded_presentations(rng, max_row_len):
    values = [1, -1, 1, -1, 2, -2, 3, -3, 0]
    for _ in range(40):
        ngens = rng.randint(1, 30)
        rows = [
            {rng.randrange(ngens): rng.choice(values) for _ in range(rng.randint(0, max_row_len))}
            for _ in range(rng.randint(0, 40))
        ]
        yield ngens, rows


@pytest.mark.parametrize("seed", range(6))
def test_elimination_matches_reference_on_seeded_sparse_rows(seed):
    for ngens, rows in _seeded_presentations(random.Random(7000 + seed), 5):
        _assert_matches_reference(ngens, rows)


def _oracle_to_core(eliminations, core_cols, vec):
    """Substitute the eliminations one by one, in the order they were made."""
    work = dict(vec) if isinstance(vec, dict) else dict(enumerate(vec))
    for c, expr in eliminations:
        k = work.pop(c, 0)
        for c2, v in expr.items():
            work[c2] = work.get(c2, 0) + k * v
    assert not any(v for c, v in work.items() if c not in core_cols)
    return tuple(work.get(c, 0) for c in core_cols)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_row_len", [5, 25])
def test_to_core_matches_substitution_oracle(seed, max_row_len):
    rng = random.Random(7100 + seed)
    non_free = 0
    for ngens, rows in _seeded_presentations(rng, max_row_len):
        want_elims, want_cols, want_rows = _reference_simplify(ngens, [dict(r) for r in rows])
        p = Presentation(ngens, rows)
        non_free += bool(want_rows)
        vectors = [{g: 1} for g in range(ngens)]
        vectors += [[rng.randint(-5, 5) for _ in range(ngens)] for _ in range(3)]
        vectors += [{rng.randrange(ngens): rng.randint(-5, 5) for _ in range(4)} for _ in range(3)]
        for vec in vectors:
            assert p.to_core(vec) == _oracle_to_core(want_elims, want_cols, vec)
    assert non_free >= 10  # the cores are not all free


def test_elimination_long_chain_needs_no_recursion():
    # e_i = e_{i+1} for 5000 links; the last row reaches back to e_0, so its
    # form is refreshed through the whole chain at once
    n = 5000
    rows = [{i: 1, i + 1: -1} for i in range(n)] + [{0: 2}]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        p = Presentation(n + 1, rows)
    finally:
        sys.setrecursionlimit(limit)
    assert p.eliminations == tuple((i, {i + 1: 1}) for i in range(n))
    assert (p.core_cols, p.core_rows) == ([n], [(2,)])
    assert p.to_core({0: 1, 17: 3}) == (4,)
    assert p.group().invariants() == (0, (2,))


def test_elimination_hub_column_matches_reference():
    # column 0 sits in 1000 rows; the chain rows between them eliminate it
    # as +(column 1), then column 1 as +(column 2), and so on, so the later
    # rows and the deferred ones reduce through the whole chain of forms
    rng = random.Random(7200)
    hub_rows = [
        {
            0: rng.choice([2, -2, 3]),
            rng.randrange(1, 60): rng.choice([2, -3]),
            60 + i: rng.choice([1, -1, 1, 2]),
        }
        for i in range(1000)
    ]
    chain = [{i: 1, i + 1: -1} for i in range(59)]
    rows = hub_rows[:500] + chain + hub_rows[500:]
    p = _assert_matches_reference(1060, rows)
    assert set(range(60)) <= {c for c, _ in p.eliminations}
    assert len(p.core_rows) > 200


def test_elimination_row_deferred_twice_before_it_gains_a_unit():
    # row 0 has no ±1 entry, and still none after e1 = e2 + e3 (3 e2 + 3 e3
    # + 2 e5); e3 = -e5 leaves it 3 e2 - e5, so e5 is the next pivot, ahead
    # of row 3's pivot on e2
    rows = [{5: 2, 1: 3}, {1: 1, 2: -1, 3: -1}, {3: 1, 5: 1}, {2: 1, 4: 1}]
    p = _assert_matches_reference(6, rows)
    assert [c for c, _ in p.eliminations] == [1, 3, 5, 2]


@pytest.mark.parametrize("column", [5, -1])
def test_presentation_rejects_a_column_out_of_range(column):
    with pytest.raises(ValueError, match="not in range"):
        Presentation(2, [{0: 2, column: 3}])


def test_presentation_rejects_an_entry_that_is_not_an_integer():
    # the core row (1.5, 2) would be built, and only .group() would raise
    with pytest.raises(ValueError, match=r"^relation entry 1\.5 is not an integer$"):
        Presentation(2, [{0: 1.5, 1: 2}])
