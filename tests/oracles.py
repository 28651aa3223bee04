"""Audit oracles for the exact linear algebra, the polyhedra and the
homomorphism search, each written from its definition.

Every function here is the slow, unpruned twin of a fast path of the
package, and the tests compare the two.  None of them shares code with
the path it checks: this module takes from ``pseudobe`` only the
``LinearEquation`` and ``AffineSolutionSpace`` data classes and exception
types, so a fault in the engine's helpers cannot hit its oracle too.

* :func:`rref` and :func:`solve_affine` -- Gauss-Jordan elimination in
  Fractions over every input row (``linalg.solve_affine`` eliminates in
  integers over the distinct primitive rows);
* :func:`cone_rays` -- extreme rays from every choice of d - 1 active
  inequalities (``linalg.cone_rays`` runs the double description method);
* :func:`box_vertices` -- vertices of an affine space in a box from every
  choice of d active bounds (``states.state_space`` reads them off an
  integer cone);
* :func:`measure_equations` and :func:`valuation_equations` -- the measure
  and pseudo-valuation systems over all n coordinates (the package drops
  the unit's coordinate and repeated rows);
* :func:`homomorphism_maps` -- every map of the product that preserves
  both tables (``homs.enumerate_homomorphisms`` prunes as it assigns).

This is not a test module, so pytest does not rewrite asserts here and
``python -O`` would strip them: every check raises instead.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from pseudobe.algebra import InconsistentOrderError
from pseudobe.homs import SizeGuardError
from pseudobe.linalg import AffineSolutionSpace, ConsistencyAlarmError, LinearEquation

# the active-set enumerators try C(rows, d - 1) or C(2n, d) choices
MAX_DIMENSION = 6
# homomorphism_maps filters |B|^|A| maps
MAX_MAPS = 10_000_000


class DimensionTooLargeError(ValueError):
    """The solution space is too large for an active-set enumerator."""


def _dot(row, x) -> int | Fraction:
    return sum(c * v for c, v in zip(row, x))


def residual(eq: LinearEquation, point) -> Fraction:
    """coeffs . point - rhs, exactly."""
    return _dot(eq.coeffs, point) - eq.rhs


def primitive(values) -> tuple[int, ...]:
    """The integer vector with coprime entries on the ray of a nonzero
    rational vector."""
    values = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("the zero vector spans no ray")
    return tuple(v // g for v in ints)


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of ``rows`` in Fractions: its nonzero rows
    and their pivot columns, chosen left to right."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [u - f * v for u, v in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _require_arity(rows, num_vars: int, kind: str) -> None:
    if any(len(row) != num_vars for row in rows):
        raise ValueError(f"{kind} arity mismatch")


def solve_affine(equalities, num_vars: int) -> AffineSolutionSpace | None:
    """The solutions of ``equalities`` as particular + span(basis), read off
    the RREF of every augmented row; None when a row reduces to 0 = 1.  The
    particular solution sets each free variable to 0, and each basis vector
    sets one free variable to 1."""
    _require_arity([eq.coeffs for eq in equalities], num_vars, "equation")
    rows, pivots = rref([(*eq.coeffs, eq.rhs) for eq in equalities])
    if num_vars in pivots:
        return None
    particular = [Fraction(0)] * num_vars
    for row, c in zip(rows, pivots):
        particular[c] = row[num_vars]
    basis = []
    for free in range(num_vars):
        if free in pivots:
            continue
        direction = [Fraction(0)] * num_vars
        direction[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            direction[c] = -row[free]
        basis.append(tuple(direction))
    equations = tuple(LinearEquation(tuple(row[:num_vars]), row[num_vars]) for row in rows)
    return AffineSolutionSpace(num_vars, tuple(particular), tuple(basis), equations)


def point(space: AffineSolutionSpace, coords) -> tuple[Fraction, ...]:
    """particular + sum coords_j basis_j: the point of ``space`` at the
    given coordinates."""
    if len(coords) != len(space.basis):
        raise ValueError(f"expected {len(space.basis)} coordinates, got {len(coords)}")
    return tuple(
        Fraction(p) + _dot(coords, [b[i] for b in space.basis])
        for i, p in enumerate(space.particular)
    )


def _check(points, equalities, inequalities) -> None:
    for x in points:
        if any(residual(eq, x) != 0 for eq in equalities) or any(
            _dot(row, x) < 0 for row in inequalities
        ):
            raise ConsistencyAlarmError(f"oracle point {x} violates its constraints")


def _active_set_rays(rows, d: int) -> list[list[int]]:
    """The primitive integer vectors lam that span the null space of some
    d - 1 of ``rows`` and satisfy r . lam >= 0 for every row r, each sign
    tried."""
    found = []
    for combo in itertools.combinations(rows, d - 1):
        space = solve_affine([LinearEquation(row, 0) for row in combo], d)
        if space.dimension != 1:
            continue
        line = primitive(space.basis[0])
        for sign in (1, -1):
            lam = [sign * v for v in line]
            if all(_dot(row, lam) >= 0 for row in rows):
                found.append(lam)
    return found


def cone_rays(equalities, inequalities, num_vars: int) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of ``{x : eq(x) = 0, r . x >= 0}`` as sorted primitive
    integer tuples.

    In the coordinates lam of x = sum lam_j b_j over a basis b of the
    equalities' solutions, an extreme ray of a pointed cone of dimension d
    spans the null space of d - 1 independent active inequalities.  So
    every choice of d - 1 of the distinct inequality rows is solved.  A
    cone whose rows have rank below d contains a line: ``ValueError``.
    """
    if any(eq.rhs != 0 for eq in equalities):
        raise ValueError("cone equalities must be homogeneous")
    _require_arity(inequalities, num_vars, "inequality")
    space = solve_affine(equalities, num_vars)
    if space is None or any(v != 0 for v in space.particular):
        raise ConsistencyAlarmError("homogeneous system without the solution 0")
    basis = [primitive(b) for b in space.basis]
    d = len(basis)
    if d > MAX_DIMENSION:
        raise DimensionTooLargeError(f"solution-space dimension {d} > {MAX_DIMENSION}")
    if d == 0:
        return ()
    restricted = [[_dot(row, b) for b in basis] for row in inequalities]
    rows = sorted({primitive(row) for row in restricted if any(row)})
    if len(rref(rows)[1]) < d:
        raise ValueError("cone is not pointed: it contains a line")
    found = {
        primitive([_dot(lam, coords) for coords in zip(*basis)])
        for lam in _active_set_rays(rows, d)
    }
    _check(found, equalities, inequalities)
    return tuple(sorted(found))


def box_vertices(space: AffineSolutionSpace, lower, upper) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices of ``space`` inside the box lower <= x <= upper, as sorted
    Fraction tuples.

    With x = particular + sum lam_j basis_j, a vertex is the one point at
    which some d bounds x_i = lower_i or x_i = upper_i are tight.  So
    every choice of d bounds is solved for lam, and each unique solution
    inside the box is kept.
    """
    n = space.num_vars
    _require_arity([lower, upper], n, "bound")
    d = space.dimension
    if d > MAX_DIMENSION:
        raise DimensionTooLargeError(f"solution-space dimension {d} > {MAX_DIMENSION}")
    bounds = [(i, Fraction(bound)) for i in range(n) for bound in (lower[i], upper[i])]
    found = set()
    for combo in itertools.combinations(bounds, d):
        choice = [
            LinearEquation(tuple(b[i] for b in space.basis), bound - space.particular[i])
            for i, bound in combo
        ]
        solution = solve_affine(choice, d)
        if solution is None or solution.dimension > 0:
            continue
        x = point(space, solution.particular)
        if all(lower[i] <= x[i] <= upper[i] for i in range(n)):
            found.add(x)
    _check(found, space.equalities, [])
    return tuple(sorted(found))


def _leq(a, x: int, y: int) -> bool:
    """x <= y: x -> y = 1, which must agree with x ~> y = 1."""
    by_arrow = a.arrow[x][y] == a.unit
    if by_arrow != (a.squig[x][y] == a.unit):
        raise InconsistentOrderError(f"the two orders disagree on {x} <= {y}")
    return by_arrow


def _row(n: int, plus, minus=()) -> tuple[int, ...]:
    """Coefficients of sum(v[i] for i in plus) - sum(v[i] for i in minus)."""
    return tuple(plus.count(i) - minus.count(i) for i in range(n))


def measure_equations(a) -> list[LinearEquation]:
    """m(1) = 0, then m(x -> y) + m(x) - m(y) = 0 and the same with ~>, for
    each y <= x in row-major order."""
    n = a.size
    eqs = [LinearEquation(_row(n, (a.unit,)), 0)]
    for x in range(n):
        for y in range(n):
            if _leq(a, y, x):
                eqs += [LinearEquation(_row(n, (t[x][y], x), (y,)), 0) for t in (a.arrow, a.squig)]
    return eqs


def valuation_equations(a) -> tuple[list[LinearEquation], list[tuple[int, ...]]]:
    """phi(1) = 0, and the rows phi(x -> y) + phi(x) - phi(y) >= 0 and the
    same with ~>, for every pair in row-major order."""
    n = a.size
    rows = [
        _row(n, (t[x][y], x), (y,)) for x in range(n) for y in range(n) for t in (a.arrow, a.squig)
    ]
    return [LinearEquation(_row(n, (a.unit,)), 0)], rows


def homomorphism_maps(a, b) -> list[tuple[int, ...]]:
    """Every map f from A to B, in lexicographic order, with
    f(x -> y) = f(x) -> f(y) and f(x ~> y) = f(x) ~> f(y) for all x, y."""
    maps = b.size**a.size
    if maps > MAX_MAPS:
        raise SizeGuardError(f"{maps} maps exceed the oracle's guard")
    pairs = [(x, y) for x in range(a.size) for y in range(a.size)]
    tables = ((a.arrow, b.arrow), (a.squig, b.squig))
    return [
        f
        for f in itertools.product(range(b.size), repeat=a.size)
        if all(f[s[x][y]] == t[f[x]][f[y]] for s, t in tables for x, y in pairs)
    ]
