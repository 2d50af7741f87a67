import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logtoric.intlinalg import (
    FPAbelianGroup,
    HermiteBasis,
    IntMatrix,
    LatticeSolver,
    cokernel,
    det,
    hermite_normal_form,
    kernel_basis,
    lattice_member,
    primitive,
    rank,
    smith_normal_form,
    solve_integer,
)


def is_unimodular(u):
    return abs(det(u)) == 1


def test_hnf_identity():
    m = IntMatrix.identity(2)
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == m


def test_hnf_zero():
    m = IntMatrix.zero(3, 2)
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == IntMatrix.identity(3)


def test_hnf_small():
    # Oracle: H must equal U @ m, U unimodular, H echelon with reduced
    # entries above positive pivots.  Expected H computed by hand from
    # elementary row reduction of [[2,4],[6,8]].
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert is_unimodular(u)
    assert h == IntMatrix.from_rows([[2, 0], [0, 4]])


def test_snf_hand_reduction():
    # diag(2,3) -> diag(1,6): reduce by hand with elementary ops.
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    d, u, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert d == IntMatrix.from_rows([[1, 0], [0, 6]])


def test_snf_identity_and_1x1():
    d, u, v = smith_normal_form(IntMatrix.identity(3))
    assert d == IntMatrix.identity(3)
    d, u, v = smith_normal_form(IntMatrix.from_rows([[2]]))
    assert d == IntMatrix.from_rows([[2]])


@pytest.mark.parametrize(
    "vec,expected",
    [
        ((2, 4), (1, 2)),
        ((1, 0, 0), (1, 0, 0)),
        ((-6, 9), (-2, 3)),
    ],
)
def test_primitive(vec, expected):
    assert primitive(vec) == expected


def test_primitive_zero_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        primitive((0, 0))


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2]])).invariants() == (0, (2,))
    # zero map Z^0 -> Z^2
    assert cokernel(IntMatrix.zero(2, 0)).invariants() == (2, ())
    # relations diag(1,6) on Z^2: oracle via SNF by hand, Z/6
    assert cokernel(IntMatrix.from_rows([[1, 0], [0, 6]])).invariants() == (0, (6,))


def _random_matrix(rng, max_dim=4, lo=-6, hi=6):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
    )


def test_randomized_transform_identities():
    rng = random.Random(20260401)
    for _ in range(60):
        m = _random_matrix(rng)
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert is_unimodular(u)
        d, u2, v2 = smith_normal_form(m)
        assert u2 @ m @ v2 == d
        assert is_unimodular(u2)
        assert is_unimodular(v2)
        diag = [x for x in d.diagonal() if x != 0]
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert all(x >= 0 for x in d.diagonal())
        assert d.is_diagonal()


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=80, deadline=None)
def test_snf_properties(rows):
    m = IntMatrix.from_rows(rows)
    d, u, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [x for x in d.diagonal() if x != 0]
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=60, deadline=None)
def test_cokernel_rank_vs_rational_rank(rows):
    m = IntMatrix.from_rows(rows)
    assert cokernel(m).rank == m.rows - rank(m)


def test_kernel_and_solve():
    m = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    k = ker[0]
    assert m.apply(k) == (0, 0)
    assert primitive(k) in ((1, -2, 1), (-1, 2, -1))

    assert solve_integer(m, (3, 3)) is not None
    x = solve_integer(m, (3, 3))
    assert m.apply(x) == (3, 3)
    # 2x = (1,) has no integer solution
    assert solve_integer(IntMatrix.from_rows([[2]]), (1,)) is None


def test_kernel_and_solve_on_zero_row_matrix():
    # Z^3 -> Z^0: everything is in the kernel, and 0 has the zero solution
    m = IntMatrix.zero(0, 3)
    assert m.transpose() == IntMatrix.zero(3, 0)
    assert kernel_basis(m) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert solve_integer(m, ()) == (0, 0, 0)


def test_lattice_solver_modulo_lattice():
    # 2 x = t modulo 3Z: solvable for every t, with x = 2t mod 3 up to 3Z
    solver = LatticeSolver([(2,)], [(3,)])
    for t in range(-4, 5):
        (x,) = solver.solve((t,))
        assert (2 * x - t) % 3 == 0
    assert LatticeSolver([(2,)], [(4,)]).solve((1,)) is None
    # the kernel holds the relations among column and lattice generator
    (k,) = solver.kernel()
    assert 2 * k[0] + 3 * k[1] == 0 and k != (0, 0)


def test_lattice_member():
    basis = [(2, 0), (0, 3)]
    assert lattice_member(basis, (4, 3))
    assert not lattice_member(basis, (1, 0))
    assert lattice_member([], (0, 0))
    assert not lattice_member([], (1, 0))


@pytest.mark.parametrize("target", [(1,), (1, 0, 0)])
def test_lattice_solver_rejects_a_target_of_the_wrong_width(target):
    with pytest.raises(ValueError, match="shape mismatch"):
        LatticeSolver([(1, 0)]).solve(target)
    with pytest.raises(ValueError, match="shape mismatch"):
        LatticeSolver([(2, 0)], [(0, 3)]).solve(target)
    with pytest.raises(ValueError, match="shape mismatch"):
        lattice_member([(1, 0)], target)
    assert LatticeSolver([(1, 0)]).solve((1, 0)) == (1,)


# -- the Hermite basis and the signed determinant, against references -----------


def _hnf_reduce_reference(coords, reduction):
    """The reducer ``HermiteBasis.reduce`` replaced: each row's leading
    index is found again on every call."""
    coords = list(coords)
    for row in reduction:
        lead = next(j for j, x in enumerate(row) if x != 0)
        if coords[lead] != 0:
            c = coords[lead] // row[lead]
            if c:
                for j in range(lead, len(coords)):
                    coords[j] -= c * row[j]
    return tuple(coords)


def _seeded_rows(rng):
    """A random matrix as a list of rows: sometimes zero, sometimes with a
    row that is a combination of two others."""
    nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
    bound = rng.choice([1, 3, 9, 40])
    rows = [
        [rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    kind = rng.random()
    if kind < 0.1:
        rows = [[0] * ncols for _ in rows]
    elif kind < 0.4 and nrows >= 3:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, ncols


@pytest.mark.parametrize("seed", range(4))
def test_hermite_basis_matches_hermite_normal_form_and_reference_reduce(seed):
    rng = random.Random(1300 + seed)
    seen_deficient = seen_zero = 0
    for _ in range(250):
        rows, ncols = _seeded_rows(rng)
        m = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, ncols)
        h, _ = hermite_normal_form(m)
        nonzero = [r for r in h.entries if any(r)]
        basis = HermiteBasis(rows)
        assert list(basis.rows) == nonzero
        assert len(basis) == len(nonzero) == rank(m)
        seen_zero += not nonzero
        seen_deficient += 0 < len(nonzero) < len(rows)
        for _ in range(4):
            vec = [rng.randint(-60, 60) for _ in range(ncols)]
            reduced = basis.reduce(vec)
            assert reduced == _hnf_reduce_reference(vec, nonzero)
            # the normal form is canonical: adding a lattice vector keeps it
            shifted = list(vec)
            for row in rows:
                c = rng.randint(-3, 3)
                shifted = [x + c * y for x, y in zip(shifted, row)]
            assert basis.reduce(shifted) == reduced
    assert seen_zero and seen_deficient


def test_hermite_basis_of_no_rows_reduces_nothing():
    basis = HermiteBasis([])
    assert (basis.rows, len(basis), basis.reduce((3, -1))) == ((), 0, (3, -1))
    assert HermiteBasis([(0, 0), (0, 0)]).rows == ()


def _laplace_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


@pytest.mark.parametrize("n", range(6))
def test_signed_det_matches_laplace_expansion(n):
    rng = random.Random(1400 + n)
    signs = set()
    for _ in range(80):
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.2:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        m = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, 0)
        want = _laplace_det(rows)
        assert det(m) == want
        signs.add((want > 0) - (want < 0))
    assert signs == ({1} if n == 0 else {-1, 0, 1})


def test_group_repr():
    g = FPAbelianGroup(3, IntMatrix.from_rows([[2, 0, 0]]))
    assert g.invariants() == (2, (2,))
    assert repr(g) == "Z + Z + Z/2"


def test_group_from_rows_factors_once_per_group(monkeypatch):
    import logtoric.intlinalg as intlinalg

    calls = []
    snf = intlinalg.smith_normal_form
    monkeypatch.setattr(
        intlinalg, "smith_normal_form", lambda m: calls.append(m) or snf(m)
    )
    assert FPAbelianGroup.from_rows(3, []).invariants() == (3, ())
    g = FPAbelianGroup.from_rows(3, [(2, 0, 0), (0, 4, 2)])
    assert (g.rank, g.torsion, g.invariants()) == (1, (2, 2), (1, (2, 2)))
    assert len(calls) == 2
    # an equal group is its own object, factored again: no process-wide table
    assert FPAbelianGroup.from_rows(3, [(2, 0, 0), (0, 4, 2)]).rank == 1
    assert len(calls) == 3


@st.composite
def _lattice_problem(draw):
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-4, 4)] * dim)
    cols = draw(st.lists(vec, max_size=3))
    lattice = draw(st.lists(vec, max_size=2))
    # half the targets are combinations, so both answers get exercised
    if draw(st.booleans()):
        target = draw(vec)
    else:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(cols + lattice),
                               max_size=len(cols + lattice)))
        target = tuple(
            sum(c * v[k] for c, v in zip(coeffs, cols + lattice)) for k in range(dim)
        )
    return dim, cols, lattice, target


@given(_lattice_problem())
@settings(max_examples=150, deadline=None)
def test_lattice_solver_against_sympy(problem):
    # Oracle: t lies in the span of the columns and the lattice exactly when
    # appending it leaves the nonzero invariant factors unchanged.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    dim, cols, lattice, target = problem

    def factors(vectors):
        m = sympy.Matrix.zeros(dim, len(vectors))
        for j, v in enumerate(vectors):
            for k in range(dim):
                m[k, j] = v[k]
        return [f for f in invariant_factors(m, domain=sympy.ZZ) if f != 0]

    solver = LatticeSolver(cols, lattice)
    x = solver.solve(target)
    solvable = factors(cols + lattice) == factors(cols + lattice + [target])
    assert (x is not None) == solvable
    if x is not None:
        residue = tuple(
            sum(c * v[k] for c, v in zip(x, cols)) - target[k] for k in range(dim)
        )
        assert lattice_member(lattice, residue)
        # the solver agrees with a fresh solve of the stacked system
        stacked = cols + lattice
        m = IntMatrix.zero(dim, 0)
        if stacked:
            m = IntMatrix.from_rows(stacked).transpose()
        assert x == solve_integer(m, target)[: len(cols)]
