"""Exact linear algebra, checked against sympy and the oracles of
``tests/oracles.py`` as independent oracles, and against hand-solved
systems."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles
from conftest import engine_cone
from oracles import AffineSolutionSpace, LinearEquation, box_vertices, point, residual, solve_affine
from pseudobe import linalg
from pseudobe.linalg import ConsistencyAlarmError, format_fraction, parse_fraction

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals)
def test_fraction_addition_cross_multiplication(x, y):
    # independent oracle: a/b + c/d = (ad + cb) / bd, reduced
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    total = x + y
    assert total == F(a * d + c * b, b * d)
    assert total.denominator > 0
    import math

    assert math.gcd(abs(total.numerator), total.denominator) == 1


@given(rationals)
def test_fraction_round_trip(x):
    assert parse_fraction(format_fraction(x)) == x


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1/0", ".5", "1/2.0", "1 / 2", ""])
def test_parse_fraction_rejects_non_rational_forms(text):
    # output is always p/q, so a decimal or exponent input is refused, not guessed
    with pytest.raises(ValueError):
        parse_fraction(text)


def test_parse_fraction_forms():
    assert parse_fraction(" -3/6 ") == F(-1, 2)
    assert parse_fraction("+4") == 4


def test_format_fraction_integer():
    assert format_fraction(F(4, 2)) == "2"
    assert format_fraction(F(1, 3)) == "1/3"
    assert format_fraction(F(-1, 3)) == "-1/3"


def _eq(coeffs, rhs):
    return LinearEquation(tuple(F(c) for c in coeffs), F(rhs))


def _integer(row):
    """The rational ``row`` times the lcm of its denominators."""
    scale = math.lcm(*(F(v).denominator for v in row))
    return tuple(int(v * scale) for v in row)


def test_solve_single_variable():
    space = solve_affine([_eq([1], 1)], 1)
    assert space.dimension == 0
    assert space.particular == (F(1),)


def test_solve_inconsistent():
    eqs = [_eq([1, 1], 1), _eq([1, 1], 2)]
    assert solve_affine(eqs, 2) is None
    # the integer RREF of the augmented rows pivots on the right-hand side
    assert linalg._integer_rref([(1, 1, 1), (1, 1, 2)])[1] == [0, 2]


@st.composite
def rational_systems(draw):
    """Random rational systems padded with repeated, scaled and negated
    copies of their rows, zero rows and 0 = c rows; possibly no rows."""
    n = draw(st.integers(0, 4))
    row = st.tuples(st.lists(rationals, min_size=n, max_size=n), rationals)
    rows = draw(st.lists(row, max_size=4))
    scales = st.sampled_from([F(1), F(-1), F(2), F(-3, 2)])
    if rows:
        copies = draw(st.lists(st.tuples(st.sampled_from(rows), scales), max_size=4))
        rows += [([k * c for c in cs], k * b) for (cs, b), k in copies]
    rows += [([F(0)] * n, draw(st.sampled_from([F(0), F(1), F(-2, 3)])))] * draw(st.integers(0, 2))
    return n, [_eq(cs, b) for cs, b in draw(st.permutations(rows))]


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_solve_affine_integer_path_matches_fraction_audit(system):
    # the RREF depends only on the row space, so the integer elimination of
    # the augmented rows cleared of denominators, over its pivots, is the
    # Fraction RREF of the rows as given; the Fraction solution space has
    # one direction per column without a pivot
    n, eqs = system
    augmented = [(*eq.coeffs, eq.rhs) for eq in eqs]
    int_rows, pivots = linalg._integer_rref([_integer(row) for row in augmented])
    frac_rows = [[F(v, row[c]) for v in row] for row, c in zip(int_rows, pivots)]
    assert (frac_rows, pivots) == oracles.rref(augmented)
    space = solve_affine(eqs, n)
    assert (space is None) == (n in pivots)
    if space is not None:
        assert space.dimension == n - len(pivots)
        assert all(residual(eq, space.particular) == 0 for eq in eqs)


@st.composite
def integer_matrices(draw):
    """Random integer rows padded with repeated, scaled, negated and zero
    rows; possibly no rows."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * n), max_size=4))
    if rows:
        scales = st.sampled_from([1, -1, 2, -3])
        copies = draw(st.lists(st.tuples(st.sampled_from(rows), scales), max_size=4))
        rows += [tuple(k * v for v in r) for r, k in copies]
    rows += [(0,) * n] * draw(st.integers(0, 2))
    return n, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_integer_rref_over_its_pivots_is_the_fraction_rref(matrix):
    # the integer rows are the RREF rows times their (possibly negative)
    # pivot entries
    _, rows = matrix
    int_rows, pivots = linalg._integer_rref(list(rows))
    frac_rows, frac_pivots = oracles.rref(rows)
    assert pivots == frac_pivots
    assert all(type(v) is int for row in int_rows for v in row)
    assert [[F(v, row[c]) for v in row] for row, c in zip(int_rows, pivots)] == frac_rows


def test_solve_underdetermined():
    # x + y = 1 over 2 vars: line of dimension 1
    space = solve_affine([_eq([1, 1], 1)], 2)
    assert space.dimension == 1
    p = point(space, (F(1, 3),))
    assert p[0] + p[1] == 1


def test_residuals_are_exactly_zero():
    eqs = [
        _eq([2, -3, 1], 5),
        _eq([1, 1, 1], 6),
    ]
    space = solve_affine(eqs, 3)
    for lam in [(F(0),), (F(7, 3),), (F(-5, 2),)]:
        pt = point(space, lam)
        for eq in eqs:
            assert residual(eq, pt) == 0


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_solve_affine_matches_sympy_rank(rows):
    # the state polytope's dimension is the number of variables less the
    # rank of the integer RREF, which is sympy's rank; the Fraction
    # solution space, when there is one, has that dimension
    num_vars = 3
    eqs = [_eq(r[:num_vars], r[num_vars]) for r in rows]
    space = solve_affine(eqs, num_vars)
    m = sympy.Matrix([[*r] for r in rows])
    rank = len(linalg._integer_rref([r[:num_vars] for r in rows])[0])
    assert rank == m[:, :num_vars].rank()
    assert len(linalg._integer_rref([list(r) for r in rows])[0]) == m.rank()
    if rank < m.rank():
        assert space is None
        return
    assert space is not None
    assert space.dimension == num_vars - rank
    for eq in eqs:
        assert residual(eq, space.particular) == 0
    for b in space.basis:
        # basis directions lie in the null space
        assert all(
            sum(c * v for c, v in zip(eq.coeffs, b)) == 0 for eq in eqs
        )


def test_box_vertices_dimension_zero():
    space = solve_affine([_eq([1, 0], F(1, 2)), _eq([0, 1], F(1, 4))], 2)
    verts = box_vertices(space, [F(0)] * 2, [F(1)] * 2)
    assert verts == ((F(1, 2), F(1, 4)),)


def test_box_vertices_infeasible():
    space = solve_affine([_eq([1], 2)], 1)
    assert box_vertices(space, [F(0)], [F(1)]) == ()


def test_box_vertices_square():
    # free 2-d space inside the unit square: the 4 corners
    space = solve_affine([], 2)
    verts = box_vertices(space, [F(0)] * 2, [F(1)] * 2)
    assert verts == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    )


def test_box_vertices_are_distinct_and_feasible():
    space = solve_affine([_eq([1, 1, 1], 2)], 3)
    lower, upper = [F(0)] * 3, [F(1)] * 3
    verts = box_vertices(space, lower, upper)
    assert len(set(verts)) == len(verts)
    for v in verts:
        assert sum(v) == 2
        assert all(F(0) <= x <= F(1) for x in v)
    # independent oracle: the triangle x+y+z=2 in the cube has 3 vertices
    assert len(verts) == 3


def test_box_vertices_guard():
    # box_vertices tries every choice of active bounds, so the guard applies
    space = solve_affine([], 7)
    with pytest.raises(oracles.DimensionTooLargeError):
        box_vertices(space, [F(0)] * 7, [F(1)] * 7)


def test_cone_rays_guard():
    orthant = [tuple(F(int(i == j)) for j in range(7)) for i in range(7)]
    with pytest.raises(oracles.DimensionTooLargeError):
        oracles.cone_rays([], orthant, 7)


def test_engine_orthant_beyond_guard():
    # the 7-orthant x >= 0 is spanned by its 7 unit vectors
    orthant = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    assert engine_cone([], orthant, 7) == tuple(sorted(orthant))


def test_cone_trivial():
    assert engine_cone([(1,)], [(1,)], 1) == ()


def test_cone_single_free_variable():
    assert engine_cone([], [(1,)], 1) == ((1,),)


def test_cone_quadrant():
    assert engine_cone([], [(1, 0), (0, 1)], 2) == ((0, 1), (1, 0))


def test_cone_ray_normalization():
    # x = 2y, x,y >= 0: single ray, smallest integer coordinates
    assert engine_cone([(1, -2)], [(1, 0), (0, 1)], 2) == ((2, 1),)


def test_cone_rays_satisfy_constraints():
    nonneg = [tuple(int(j == i) for j in range(3)) for i in range(3)]
    rays = engine_cone([(1, -1, 0)], nonneg, 3)
    for r in rays:
        assert r[0] == r[1]
        assert all(x >= 0 for x in r)
    assert len(rays) == 2


def test_cone_not_pointed():
    # a half-plane contains the line x = 0
    with pytest.raises(ValueError):
        engine_cone([], [(1, 0)], 2)


@pytest.mark.parametrize("lower, upper", [([0, 0, 5], [1, 1]), ([0, 0], [1]), ([0], [1, 1])])
def test_box_rejects_bound_arity(lower, upper):
    with pytest.raises(ValueError, match="arity"):
        box_vertices(solve_affine([], 2), lower, upper)


def test_point_arity():
    space = solve_affine([_eq([1, 1], 1)], 2)
    with pytest.raises(ValueError):
        point(space, (F(1), F(2)))


def test_cone_alarm_on_nonzero_particular(monkeypatch):
    # the cone oracle takes its basis from the Fraction solve_affine oracle
    bogus = AffineSolutionSpace(2, (F(1), F(0)), ((F(0), F(1)),), ())
    monkeypatch.setattr(oracles, "solve_affine", lambda eqs, n: bogus)
    with pytest.raises(ConsistencyAlarmError):
        oracles.cone_rays([], [(F(1), F(0)), (F(0), F(1))], 2)


def test_cone_alarm_on_corrupted_integer_basis(monkeypatch):
    # the default path reads its basis off the integer RREF; a basis vector
    # off the equality x = 0 yields a ray that the check against the rows trips
    assert engine_cone([(1, 0)], [(1, 0), (0, 1)], 2) == ((0, 1),)
    monkeypatch.setattr(linalg, "_null_basis", lambda reduced, pivots, n: [(1, 1)])
    with pytest.raises(ConsistencyAlarmError):
        engine_cone([(1, 0)], [(1, 0), (0, 1)], 2)


@pytest.mark.parametrize("audit", [False, True])
def test_cone_alarm_on_infeasible_ray(monkeypatch, audit):
    # the engine's output and the oracle's are each re-checked against the
    # input rows
    monkeypatch.setattr(linalg, "_dd_rays", lambda rows, start: [(-1, 0)])
    monkeypatch.setattr(oracles, "_active_set_rays", lambda rows, d: [(-1, 0)])
    rays = oracles.cone_rays if audit else engine_cone
    with pytest.raises(ConsistencyAlarmError):
        rays([], [(1, 0), (0, 1)], 2)


def test_box_alarm_on_equality_violation():
    # the point (1, 1) lies in the box but not on its space's line x + y = 1
    bogus = AffineSolutionSpace(2, (F(1), F(1)), (), (_eq([1, 1], 1),))
    with pytest.raises(ConsistencyAlarmError):
        box_vertices(bogus, [F(0)] * 2, [F(1)] * 2)


def test_box_vertices_degenerate_box():
    # x is pinned to 0, so the polytope is the segment (0,0)-(0,2); the
    # inconsistent active set {y = 0, y = 2} must not yield the point (0,1)
    space = solve_affine([], 2)
    expected = ((F(0), F(0)), (F(0), F(2)))
    assert box_vertices(space, [F(0)] * 2, [F(0), F(2)]) == expected


def test_box_audit_skips_singular_consistent_choice():
    # on the plane x + y = 1 the bounds x = 0 and y = 1 are one hyperplane: a
    # consistent but singular choice of two active bounds, whose particular
    # solution (0, 1, 0) lies in the box without being a vertex
    space = solve_affine([_eq([1, 1, 0], 1)], 3)
    expected = tuple((F(x), F(1 - x), F(z)) for x in (0, 1) for z in (-1, 1))
    assert box_vertices(space, [0, 0, -1], [1, 1, 1]) == expected


def test_cone_audit_skips_rank_deficient_choice():
    # x >= 0 and -x >= 0 are d - 1 = 2 rows of rank 1; the first vector of
    # their 2-dimensional null space, (0, 1, 0), satisfies every row but lies
    # between the two extreme rays
    rows = [(1, 0, 0), (-1, 0, 0), (0, 1, -1), (0, 1, 1)]
    expected = ((0, 1, -1), (0, 1, 1))
    assert engine_cone([], rows, 3) == expected
    assert oracles.cone_rays([], rows, 3) == expected


def _sympy_rank(rows):
    return sympy.Matrix([[*r] for r in rows]).rank() if rows else 0


small_rows = st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), small_rows, small_rows)
def test_cone_engine_matches_audit_and_rank_oracle(n, eq_rows, ineq_rows):
    """Random pointed cones: random rows plus x >= 0.  The engine and the
    active-set oracle agree, and every ray is tight on a set of constraints
    of rank n - 1."""
    eq_rows = [tuple(r[:n]) for r in eq_rows[:2]]
    eqs = [LinearEquation(r, 0) for r in eq_rows]
    nonneg = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ineqs = [tuple(r[:n]) for r in ineq_rows] + nonneg
    rays = engine_cone(eq_rows, ineqs, n)
    assert rays == oracles.cone_rays(eqs, ineqs, n)
    assert all(type(v) is int for ray in rays for v in ray)
    for ray in rays:
        assert all(residual(eq, ray) == 0 for eq in eqs)
        tight = [row for row in ineqs if sum(c * x for c, x in zip(row, ray)) == 0]
        assert all(sum(c * x for c, x in zip(row, ray)) >= 0 for row in ineqs)
        assert _sympy_rank(eq_rows + tight) == n - 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    small_rows,
    st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=6),
    small_rows,
)
def test_integer_cone_basis_matches_fraction_audit(n, base, copies, ineq_rows):
    """Homogeneous integer systems with repeated, scaled and zero rows: the
    basis read off the integer RREF is the primitive form of the Fraction
    oracle's basis, and the engine and the cone oracle give the same rays."""
    base = [tuple(r[:n]) for r in base[:3]]
    scaled = [tuple(k * v for v in base[i % len(base)]) for i, k in copies] if base else []
    rows = base + scaled + base + [(0,) * n]
    eqs = [LinearEquation(r, 0) for r in rows]
    oracle_basis = solve_affine(eqs, n).basis
    integer_basis = linalg._null_basis(*linalg._integer_rref(linalg._distinct_rows(rows)), n)
    assert integer_basis == [oracles.primitive(b) for b in oracle_basis]
    nonneg = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ineqs = [tuple(r[:n]) for r in ineq_rows] * 2 + [(0,) * n] + nonneg
    assert engine_cone(rows, ineqs, n) == oracles.cone_rays(eqs, ineqs, n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    small_rows,
    st.lists(st.tuples(rationals, rationals), min_size=4, max_size=4),
)
def test_box_engine_matches_audit_and_rank_oracle(n, eq_rows, bounds):
    """Random affine spaces in random boxes: the double description engine,
    run on the cone over the homogenised system, and the active-set
    enumerator ``box_vertices`` give the same vertices, and every vertex is
    tight on a set of constraints of rank n."""
    eq_rows = [tuple(r[: n + 1]) for r in eq_rows[:2]]
    eqs = [_eq(r[:n], r[n]) for r in eq_rows]
    space = solve_affine(eqs, n)
    if space is None:
        return
    lower = [min(b) for b in bounds[:n]]
    upper = [max(b) for b in bounds[:n]]
    verts = box_vertices(space, lower, upper)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    # {(x, t) : Ax = bt, lower t <= x <= upper t, t >= 0}
    rays = engine_cone(
        [r[:n] + (-r[n],) for r in eq_rows],
        [_integer(e + (-lower[i],)) for i, e in enumerate(unit)]
        + [_integer(tuple(-v for v in e) + (upper[i],)) for i, e in enumerate(unit)]
        + [(0,) * n + (1,)],
        n + 1,
    )
    assert verts == tuple(sorted(tuple(F(v, r[n]) for v in r[:n]) for r in rays))
    for v in verts:
        assert all(residual(eq, v) == 0 for eq in eqs)
        assert all(lower[i] <= v[i] <= upper[i] for i in range(n))
        active = [unit[i] for i in range(n) if v[i] in (lower[i], upper[i])]
        assert _sympy_rank([eq.coeffs for eq in eqs] + active) == n


def test_audit_never_reads_the_shared_cones():
    """Inside the sweep's scope a call of the engine reads and fills the
    memo; the cone oracle does neither."""
    eqs = [_eq([1, -1, 0], 0)]
    nonneg = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    with linalg._shared_cones():
        rays = engine_cone([(1, -1, 0)], nonneg, 3)
        (key,) = linalg._cone_memo
        # an empty answer passes every check, so only the memo can give it
        linalg._cone_memo[key] = ()
        assert engine_cone([(1, -1, 0)], nonneg, 3) == ()
        assert oracles.cone_rays(eqs, nonneg, 3) == rays
        assert oracles.cone_rays([], nonneg, 3) == tuple(sorted(nonneg))
        assert linalg._cone_memo == {key: ()}
    assert linalg._cone_memo is None
