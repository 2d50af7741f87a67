from logtoric.abelian import Presentation, kernel_mod_lattice
from logtoric.intlinalg import IntMatrix


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
