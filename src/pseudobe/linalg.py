"""Exact linear algebra on small systems.

Everything here works over Python integers and `fractions.Fraction`, so
results are exact and deterministic.  Each value keeps the cheapest exact
type: rays are primitive integer vectors (``int`` tuples), while vertices
and the :class:`AffineSolutionSpace` hold Fractions, since their values
really are rational.  The two entry points are:

* :func:`solve_affine` -- canonical RREF solution space of a linear
  equality system, found by integer Gauss-Jordan elimination over the
  distinct primitive integer rows of the system, divided by the pivots
  only at the end,
* :func:`cone_rays` -- extreme rays of ``{x : Ax = 0, Cx >= 0}``.

Rays come from one exact engine, :func:`_cone`, which takes distinct
primitive integer rows: :func:`cone_rays` makes them so, and the state
polytope and the valuation cone build them so
(:func:`pseudobe.states._unit_free_rows`).  The equality rows are reduced
once by the integer Gauss-Jordan :func:`_integer_rref` of
:func:`solve_affine`, and the basis of their null space is read off that
reduction (:func:`_null_basis`), so a cone makes no Fraction at all.  The
inequalities are restricted to that basis and scaled to primitive integer
rows, dropping exact repeats, zero rows and positive multiples.  An
incremental double description pass (Motzkin et al. 1953; Fukuda & Prodon
1996) then runs in integer arithmetic; :func:`_integer_rref` also picks its
first independent rows and inverts them into its start rays.  A polytope
is handled as the cone over its homogenised system: a vertex is a ray with
t > 0, scaled to t = 1 (:func:`pseudobe.states.state_space`).  Within
:func:`_shared_cones`, which the meta sweep opens, cones with the same row
space of equalities and the same inequality rows share one engine run.

Every output ray is re-checked against every input equality and
inequality in integers.  The independent twins of these paths, a
Fraction RREF over every input row, an active-set cone enumerator and an
active-set vertex enumerator for a box, are test oracles
(``tests/oracles.py``), written from the definitions without this
module's helpers.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]

# _cone's results by (row space of the equality rows, sorted inequality
# rows, num_vars) while _shared_cones is open, else None
_cone_memo: Optional[dict[tuple, tuple[IntVector, ...]]] = None


class ConsistencyAlarmError(AssertionError):
    """An internally provable fact failed on a concrete input.

    Raised when the arrow- and squig-based modus ponens closures disagree,
    when a quotient relation fails to be a congruence, or when a computed
    ray, vertex or valuation violates the constraints it was computed from.
    Each indicates a table outside the theory's scope or an implementation
    bug.
    """


def _coefficient_row(n: int, plus: Iterable[int], minus: Iterable[int] = ()) -> IntVector:
    """Coefficients of ``sum(x[i] for i in plus) - sum(x[i] for i in minus)``
    over n variables; an index may repeat."""
    row = [0] * n
    for i in plus:
        row[i] += 1
    for i in minus:
        row[i] -= 1
    return tuple(row)


@dataclass(frozen=True)
class LinearEquation:
    """coeffs . x = rhs"""

    coeffs: IntVector | Vector
    rhs: int | Fraction


@dataclass(frozen=True)
class AffineSolutionSpace:
    """Solution set written as particular + span(basis).

    ``equalities`` is the canonical reduced (RREF) equality set; systems
    with the same row space always produce identical fields.
    """

    num_vars: int
    particular: Vector
    basis: tuple[Vector, ...]
    equalities: tuple[LinearEquation, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _require_arity(rows: Iterable[Sequence], num_vars: int, kind: str) -> None:
    if any(len(row) != num_vars for row in rows):
        raise ValueError(f"{kind} arity mismatch")


def _integer_rref(rows: list[IntVector]) -> tuple[list[IntVector], list[int]]:
    """Reduced row echelon form of integer rows, eliminating in integers;
    returns (integer rows, pivot columns).

    Pivot columns are chosen left to right, so the output is canonical.
    Each updated row is divided by its gcd.  Returned row i is row i of
    the RREF times its pivot entry ``row[pivots[i]]``, which may be
    negative; dividing by it is left to the caller.
    """
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        t = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                new = [t * a - f * b for a, b in zip(row, top)]
                g = gcd(*new)
                rows[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def solve_affine(
    equalities: Sequence[LinearEquation], num_vars: int
) -> Optional[AffineSolutionSpace]:
    """Solve an equality system exactly; ``None`` means inconsistent.

    The particular solution sets every free variable to 0; the basis has
    one direction per free variable (that variable set to 1).  Each
    augmented row is scaled to a primitive integer row whose first nonzero
    entry is positive, zero rows and repeats are dropped, and the rest is
    reduced by :func:`_integer_rref`, then divided by its pivots.  A
    system's RREF depends only on its row space, so the result does not
    depend on the order, scale or repetition of the rows.
    """
    _require_arity((eq.coeffs for eq in equalities), num_vars, "equation")
    rows, pivots = _integer_rref(_equality_rows((*eq.coeffs, eq.rhs) for eq in equalities))
    rows = [[Fraction(v, row[c]) for v in row] for row, c in zip(rows, pivots)]
    # a pivot in the right-hand side column is a row 0 = nonzero
    if pivots and pivots[-1] == num_vars:
        return None
    free = [c for c in range(num_vars) if c not in pivots]

    particular = [Fraction(0)] * num_vars
    for row, pc in zip(rows, pivots):
        particular[pc] = row[num_vars]

    basis = []
    for fc in free:
        direction = [Fraction(0)] * num_vars
        direction[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            direction[pc] = -row[fc]
        basis.append(tuple(direction))

    canonical = tuple(
        LinearEquation(tuple(row[:num_vars]), row[num_vars]) for row in rows
    )
    return AffineSolutionSpace(num_vars, tuple(particular), tuple(basis), canonical)


# ---------------------------------------------------------------------------
# integer helpers


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _primitive(values: Sequence) -> IntVector:
    """The smallest integer vector that is a positive multiple of ``values``."""
    try:
        g = gcd(*values)
    except TypeError:
        # a Fraction entry: clear the denominators first
        scale = lcm(*(v.denominator for v in values))
        values = [v.numerator * (scale // v.denominator) for v in values]
        g = gcd(*values)
    return tuple(v // g for v in values) if g > 1 else tuple(values)


def _distinct_rows(rows: Iterable[Sequence]) -> list[IntVector]:
    """Primitive forms of ``rows`` without zero rows and positive multiples,
    in order of first occurrence.  Exact repeats are dropped before any gcd
    is taken."""
    seen: dict[IntVector, None] = {}
    for row in dict.fromkeys(map(tuple, rows)):
        p = _primitive(row)
        if any(p):
            seen.setdefault(p)
    return list(seen)


def _equality_rows(rows: Iterable[Sequence]) -> list[IntVector]:
    """:func:`_distinct_rows` of an equality system up to sign: of a row and
    its negation, the larger one, which leads with a positive entry."""
    return list({max(p, tuple(-v for v in p)): None for p in _distinct_rows(rows)})


def _null_basis(
    reduced: Sequence[IntVector], pivots: Sequence[int], num_vars: int
) -> list[IntVector]:
    """Primitive integer basis of the null space of the rows whose
    :func:`_integer_rref` is ``(reduced, pivots)``: one vector per free
    column, positive there and 0 on the other free columns, so each is the
    primitive positive multiple of the matching basis vector of
    :func:`solve_affine`."""
    # integer row i is RREF row i times its pivot entry, of either sign; the
    # lcm is positive, so scale // row[c] clears the pivots and keeps signs
    scale = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    basis = []
    for free in (c for c in range(num_vars) if c not in pivots):
        x = [0] * num_vars
        x[free] = scale
        for row, c in zip(reduced, pivots):
            x[c] = -row[free] * (scale // row[c])
        basis.append(_primitive(x))
    return basis


def _check(
    points: Iterable[IntVector],
    equalities: Sequence[IntVector],
    inequalities: Sequence[IntVector],
) -> None:
    """Raise unless every point satisfies every constraint row exactly."""
    for x in points:
        if any(_dot(r, x) != 0 for r in equalities) or any(
            _dot(r, x) < 0 for r in inequalities
        ):
            raise ConsistencyAlarmError(f"computed point {x} violates its constraints")


# ---------------------------------------------------------------------------
# ray engines: extreme rays of the pointed cone {lam : r . lam >= 0}, given
# distinct primitive integer rows r over lam in R^d


def _dd_rays(rows: list[IntVector], start: list[int]) -> list[IntVector]:
    """Double description: begin with the simplicial cone of the d
    independent rows ``start``, then intersect with one half-space at a
    time.  Each ray carries the bitmask of processed rows it makes tight;
    two rays are adjacent when no third ray is tight on all rows they share.
    """
    d = len(start)
    done = 0
    for i in start:
        done |= 1 << i
    # the RREF of [B | I] is [I | B^-1]; column j of B^-1 is 1 on start row j
    # and 0 on the others.  Integer row i is that RREF row times its pivot
    # row[i], of either sign; the lcm is positive, so scale // row[i] clears
    # the pivots and keeps each column's sign
    inverse, _ = _integer_rref(
        [rows[i] + tuple(int(j == k) for k in range(d)) for j, i in enumerate(start)]
    )
    scale = lcm(*(row[i] for i, row in enumerate(inverse)))
    rays = [
        _primitive([row[d + j] * (scale // row[i]) for i, row in enumerate(inverse)])
        for j in range(d)
    ]
    zeros = [done & ~(1 << i) for i in start]

    for k, row in enumerate(rows):
        bit = 1 << k
        if done & bit:
            continue
        done |= bit
        vals = [_dot(row, r) for r in rays]
        new_rays, new_zeros = [], []
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vq in enumerate(vals):
                if vq >= 0:
                    continue
                common = zeros[p] & zeros[q]
                if common.bit_count() < d - 2:
                    continue
                if any(
                    zeros[t] & common == common
                    for t in range(len(rays))
                    if t != p and t != q
                ):
                    continue
                new_rays.append(
                    _primitive([vp * b - vq * a for a, b in zip(rays[p], rays[q])])
                )
                new_zeros.append(common | bit)
        kept = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in kept] + new_rays
        zeros = [zeros[i] | bit if vals[i] == 0 else zeros[i] for i in kept] + new_zeros
    return rays


def _independent_rows(rows: list[IntVector], d: int) -> list[int]:
    """Indices of the first d linearly independent ``rows``; ``ValueError``
    when they span less, as the cone then contains a line."""
    # the pivot columns of the transpose are the first independent rows
    _, start = _integer_rref(list(zip(*rows)))
    if len(start) < d:
        raise ValueError("cone is not pointed: it contains a line")
    return start


def _rays(generators: Sequence[IntVector], rows: Sequence[IntVector]) -> set[IntVector]:
    """Extreme rays of ``{x = sum lam_j g_j : r . x >= 0}`` as primitive
    integer vectors, for linearly independent integer generators g_j."""
    d = len(generators)
    reduced = _distinct_rows([_dot(r, g) for g in generators] for r in rows)
    lams = _dd_rays(reduced, _independent_rows(reduced, d))
    return {
        _primitive([_dot(lam, coords) for coords in zip(*generators)]) for lam in lams
    }


# ---------------------------------------------------------------------------
# public enumerators


def _cone(
    equality_rows: Sequence[IntVector], rows: Sequence[IntVector], num_vars: int
) -> tuple[IntVector, ...]:
    """Extreme rays of ``{x : e . x = 0 for e in equality_rows, r . x >= 0
    for r in rows}``, sorted, for distinct primitive nonzero integer rows.

    The equality rows are reduced once by :func:`_integer_rref`; the key of
    :func:`_shared_cones` and the basis of their null space
    (:func:`_null_basis`) are both read off that reduction.  Every answer,
    a memo hit included, is checked against the caller's own rows.
    """
    reduced, pivots = _integer_rref(list(equality_rows))
    memo = _cone_memo
    found = None
    if memo is not None:
        space = tuple(
            _primitive(row if row[c] > 0 else [-v for v in row]) for row, c in zip(reduced, pivots)
        )
        key = (space, tuple(sorted(rows)), num_vars)
        found = memo.get(key)
    if found is None:
        basis = _null_basis(reduced, pivots, num_vars)
        found = tuple(sorted(_rays(basis, rows))) if basis else ()
        if memo is not None:
            memo[key] = found
    _check(found, equality_rows, rows)
    return found


def cone_rays(
    equalities: Sequence[LinearEquation],
    inequalities: Sequence[IntVector | Vector],
    num_vars: int,
) -> tuple[IntVector, ...]:
    """Extreme rays of ``{x : equalities(x)=0, ineq . x >= 0}``.

    The equalities must be homogeneous.  The cone must be pointed (the
    inequalities must not admit a line), which holds for every system built
    by this package; otherwise ``ValueError``.  Rays are primitive integer
    vectors (``int`` tuples, the smallest integer coordinates on the ray),
    each checked in integers against the distinct primitive equality and
    inequality rows, sorted lexicographically.

    The rows are made distinct and primitive and handed to :func:`_cone`,
    so no Fraction is made; with no equality rows the basis is the unit
    vectors, on which the inequality rows project to themselves.
    """
    for eq in equalities:
        if eq.rhs != 0:
            raise ValueError("cone equalities must be homogeneous")
    _require_arity(inequalities, num_vars, "inequality")
    _require_arity((eq.coeffs for eq in equalities), num_vars, "equation")
    equality_rows = _equality_rows(eq.coeffs for eq in equalities)
    return _cone(equality_rows, _distinct_rows(inequalities), num_vars)


@contextlib.contextmanager
def _shared_cones():
    """Within the block, :func:`_cone` runs the engine once per key (the
    row space of the equality rows, as their reduced rows each made
    primitive with a positive pivot, which is the RREF up to scale; the
    sorted distinct inequality rows; ``num_vars``) and hands later calls
    the first call's rays, checked again against their own rows.  The
    extreme rays of a cone depend only on the set it cuts out, which the
    row space of its equalities and its inequality rows fix, and ``_cone``
    sorts them, so a hit returns what the engine would.  The memo is
    dropped when the block ends, also on an exception."""
    global _cone_memo
    _cone_memo = {}
    try:
        yield
    finally:
        _cone_memo = None


def format_fraction(value: int | Fraction) -> str:
    """Serialize as ``p/q`` (or ``p`` when q = 1); never decimals.  An
    ``int`` prints as the equal Fraction does."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of :func:`format_fraction`: ``p/q`` or ``p``, optionally
    signed; decimals, exponents and a zero denominator are rejected."""
    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?", text):
        raise ValueError(f"expected a rational p/q, got {text!r}")
    return Fraction(text)
