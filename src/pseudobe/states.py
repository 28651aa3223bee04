"""Bosbach states, state-morphisms, measures, and their exact geometry.

All candidates are rational-valued assignments checked exactly.  Each
system is generated once as ``(plus, minus)`` index terms, which feed the
polyhedra and, for states, :func:`state_equations`.  The polyhedra are built
from the distinct terms with the unit's coordinate dropped, since the
unit pins it (m(1) = 0, s(1) = t): the state polytope is read off the
integer cone over its homogenised system, {(x, t) : Ax = bt, 0 <= x <= t},
whose extreme rays scaled to t = 1 are the vertices, and the measure cone
is enumerated by the same extreme-ray engine.  On a pseudo-BE algebra
every measure is a pseudo-valuation, so the measure cone is also the face
of the pseudo-valuation cone on which the comparable-pair rows are tight;
:func:`measure_face` reads its rays off that cone's rays without running
the engine again, and :func:`measure_cone` is its oracle.  Vertices are
Fraction tuples and rays primitive integer tuples; both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .algebra import FiniteAlgebra, Witness, _holds, _require_bottom, content_lines, leq, vee1
from .dsystems import Subset
from .linalg import (
    AffineSolutionSpace,
    ConsistencyAlarmError,
    IntVector,
    LinearEquation,
    Vector,
    _coefficient_row,
    _cone,
    _primitive,
    cone_rays,
    parse_fraction,
    solve_affine,
)

Assignment = tuple[int | Fraction, ...]  # one exact value per carrier element


class MembershipError(ValueError):
    """Input fails the membership check required by the operation."""


class ConditionAMissingError(ValueError):
    pass


ONE = Fraction(1)
ZERO = Fraction(0)


def parse_assignment(a: FiniteAlgebra, text: str, kind: str) -> tuple[str, Assignment]:
    """Parse ``<kind> <name>`` followed by ``<element> = <rational>`` lines
    into the name and the values."""
    values: dict[int, Fraction] = {}
    name = None
    for line in content_lines(text):
        if name is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != kind:
                raise ValueError(f"expected header '<{kind}> <name>', got {line!r}")
            name = parts[1]
            continue
        if "=" not in line:
            raise ValueError(f"bad assignment line: {line!r}")
        tok, val = (part.strip() for part in line.split("=", 1))
        x = a.index(tok)
        if x in values:
            raise ValueError(f"element {tok!r} assigned twice")
        values[x] = parse_fraction(val)
    if name is None:
        raise ValueError("empty assignment file")
    missing = [a.token(i) for i in range(a.size) if i not in values]
    if missing:
        raise ValueError(f"assignment missing elements: {', '.join(missing)}")
    return name, tuple(values[i] for i in range(a.size))


# ---------------------------------------------------------------------------
# Bosbach states


def _unit_interval_witness(a: FiniteAlgebra, s: Assignment) -> Optional[Witness]:
    """s(1) = 1 (bs1) and every value in [0, 1]: the prefix of both state checks."""
    if s[a.unit] != ONE:
        return ("bs1", (a.unit,))
    return next((("range", (x,)) for x in range(a.size) if not ZERO <= s[x] <= ONE), None)


def bosbach_witness(a: FiniteAlgebra, s: Assignment) -> Optional[Witness]:
    """First violated state axiom, or None if s is a Bosbach state."""
    n = range(a.size)
    twins = (("bs2", a.arrow), ("bs3", a.squig))
    return _unit_interval_witness(a, s) or next(
        ((tag, (x, y)) for x in n for y in n for tag, t in twins
         if s[x] + s[t[x][y]] != s[y] + s[t[y][x]]),
        None,
    )


def is_bosbach_state(a: FiniteAlgebra, s: Assignment) -> bool:
    return bosbach_witness(a, s) is None


def _require_state(a: FiniteAlgebra, s: Assignment) -> None:
    w = bosbach_witness(a, s)
    if w is not None:
        raise MembershipError(f"not a Bosbach state: {w}")


def _require_condition_a(a: FiniteAlgebra) -> None:
    if not _holds(a.arrow, a.squig, a.unit, "condition-A"):
        raise ConditionAMissingError(f"{a.name} does not satisfy condition (A)")


Term = tuple[tuple[int, ...], tuple[int, ...]]  # (plus, minus) indices of one row


def _unit_free_rows(a: FiniteAlgebra, terms: Iterable[Term], width: int) -> list[IntVector]:
    """Distinct primitive nonzero coefficient rows of ``terms``, in order of
    first occurrence, with the unit's coordinate moved last: element x is
    column x below the unit and x - 1 above it, and the unit is column
    n - 1, kept when ``width`` is n (the state polytope's t) and dropped
    when it is n - 1 (the cones, where the unit is pinned to 0).  Repeated
    terms are dropped before any row is built."""
    n, u = a.size, a.unit
    column = [x - (x > u) for x in range(n)]
    column[u] = n - 1
    rows: dict[IntVector, None] = {}
    # filled in place: _coefficient_row over mapped copies of each term
    # takes half as long again
    for plus, minus in dict.fromkeys(terms):
        row = [0] * n
        for i in plus:
            row[column[i]] += 1
        for i in minus:
            row[column[i]] -= 1
        del row[width:]
        if any(row):
            rows.setdefault(_primitive(row))
    return list(rows)


def _with_unit(a: FiniteAlgebra, values: tuple, value) -> tuple:
    """``values`` over the coordinates other than the unit, with ``value``
    put back at the unit."""
    return values[: a.unit] + (value,) + values[a.unit :]


@dataclass(frozen=True)
class StateSpaceResult:
    """The state polytope of ``algebra``.

    ``rays`` are the extreme rays of the integer cone over the homogenised
    system, as primitive integer points (s(0) t, ..., s(n-1) t, t) with
    t > 0, so the unit's coordinate equals the last one.  ``vertices``, the
    rays scaled to t = 1 as Fraction tuples sorted lexicographically, and
    ``affine``, the solution space of :func:`state_equations`, are made
    when first read."""

    algebra: FiniteAlgebra
    rays: tuple[IntVector, ...]

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        return tuple(sorted(tuple(Fraction(v, r[-1]) for v in r[:-1]) for r in self.rays))

    @cached_property
    def affine(self) -> AffineSolutionSpace:
        # the all-ones point solves every state equation of any table pair:
        # s(1) = 1, and each symmetry row's coefficients sum to 0
        space = solve_affine(state_equations(self.algebra), self.algebra.size)
        if space is None:
            raise ConsistencyAlarmError("the state equations exclude the all-ones point")
        return space


def _state_terms(a: FiniteAlgebra) -> Iterable[Term]:
    """s(x) + s(x->y) - s(y) - s(y->x), and its ~> twin, for each x < y.

    The (y,x) instance of each symmetry equation is the (x,y) one
    negated, so only x < y is generated.
    """
    n = a.size
    for x in range(n):
        for y in range(x + 1, n):
            for table in (a.arrow, a.squig):
                yield (x, table[x][y]), (y, table[y][x])


def state_equations(a: FiniteAlgebra) -> list[LinearEquation]:
    """s(1)=1 plus the two symmetry equations per unordered pair."""
    n = a.size
    eqs = [LinearEquation(_coefficient_row(n, (a.unit,)), 1)]
    eqs += [LinearEquation(_coefficient_row(n, *term), 0) for term in _state_terms(a)]
    return eqs


def state_space(a: FiniteAlgebra) -> StateSpaceResult:
    """All states: the solutions of :func:`state_equations` in the unit box.

    The rays are those of the integer cone {(x, t) : Ax = bt, 0 <= x <= t}
    over the homogenised system, with s(1) = t taking the unit's
    coordinate; the vertices are the rays scaled to t = 1.  An empty
    polytope is a legal outcome, not an error.
    """
    n = a.size
    # x >= 0 and x <= t for each coordinate but the unit's, then t >= 0
    box = [_coefficient_row(n, (i,)) for i in range(n - 1)]
    box += [_coefficient_row(n, (n - 1,), (i,)) for i in range(n - 1)]
    box.append(_coefficient_row(n, (n - 1,)))
    rays = _cone(_unit_free_rows(a, _state_terms(a), n), box, n)
    return StateSpaceResult(a, tuple(_with_unit(a, r[:-1], r[-1]) + r[-1:] for r in rays))


# ---------------------------------------------------------------------------
# state-morphisms


def lukasiewicz(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE - x + y, ONE)


def state_morphism_witness(a: FiniteAlgebra, s: Assignment) -> Optional[Witness]:
    n = range(a.size)
    return _unit_interval_witness(a, s) or next(
        (("sm", (x, y)) for x in n for y in n for t in (a.arrow, a.squig)
         if s[t[x][y]] != lukasiewicz(s[x], s[y])),
        None,
    )


def is_state_morphism(a: FiniteAlgebra, s: Assignment) -> bool:
    return state_morphism_witness(a, s) is None


def sm_characterization_check(a: FiniteAlgebra, s: Assignment) -> bool:
    """max-characterization of state-morphisms among Bosbach states.

    Requires condition (A) and a verified state; the result must agree
    with the direct state-morphism check.
    """
    _require_condition_a(a)
    _require_state(a, s)
    return all(
        s[vee1(a, x, y)] == max(s[x], s[y])
        for x in range(a.size)
        for y in range(a.size)
    )


# ---------------------------------------------------------------------------
# measures


def _nonnegative_witness(a: FiniteAlgebra, m: Assignment) -> Optional[Witness]:
    """Every value at least 0: the prefix of both measure checks."""
    return next((("range", (x,)) for x in range(a.size) if m[x] < ZERO), None)


def measure_witness(a: FiniteAlgebra, m: Assignment) -> Optional[Witness]:
    """Difference property over comparable pairs; nonnegative values;
    m(1) = 0, as :func:`measure_cone` pins it.

    On a pseudo-BE algebra the pair (1, 1) already forces m(1) = 0, so the
    ``m1`` witness is reached only on tables outside the theory.
    """
    n = range(a.size)
    w = _nonnegative_witness(a, m) or next(
        (("m", (x, y)) for x in n for y in n if leq(a, y, x) for t in (a.arrow, a.squig)
         if m[t[x][y]] != m[y] - m[x]),
        None,
    )
    if w is None and m[a.unit] != ZERO:
        return ("m1", (a.unit,))
    return w


def is_measure(a: FiniteAlgebra, m: Assignment) -> bool:
    return measure_witness(a, m) is None


def measure_morphism_witness(a: FiniteAlgebra, m: Assignment) -> Optional[Witness]:
    """max{0, m(y)-m(x)} property over all pairs; nonnegative values."""
    n = range(a.size)
    return _nonnegative_witness(a, m) or next(
        (("mm", (x, y)) for x in n for y in n for t in (a.arrow, a.squig)
         if m[t[x][y]] != max(ZERO, m[y] - m[x])),
        None,
    )


def is_measure_morphism(a: FiniteAlgebra, m: Assignment) -> bool:
    return measure_morphism_witness(a, m) is None


def is_state_measure(a: FiniteAlgebra, m: Assignment) -> bool:
    bottom = _require_bottom(a)
    return is_measure(a, m) and m[bottom] == ONE


def is_state_measure_morphism(a: FiniteAlgebra, m: Assignment) -> bool:
    bottom = _require_bottom(a)
    return is_measure_morphism(a, m) and m[bottom] == ONE


def _measure_terms(a: FiniteAlgebra) -> Iterable[Term]:
    """m(x->y) + m(x) - m(y), and its ~> twin, for each y <= x."""
    n = a.size
    for x in range(n):
        for y in range(n):
            if leq(a, y, x):
                for table in (a.arrow, a.squig):
                    yield (table[x][y], x), (y,)


def measure_cone(a: FiniteAlgebra) -> tuple[IntVector, ...]:
    """Extreme rays of the cone of measures, as primitive integer vectors.

    m(1) = 0 is kept by dropping the unit's coordinate and putting 0 back
    at it on every ray."""
    n = a.size
    eqs = [LinearEquation(row, 0) for row in _unit_free_rows(a, _measure_terms(a), n - 1)]
    nonneg = [_coefficient_row(n - 1, (i,)) for i in range(n - 1)]
    return tuple(_with_unit(a, r, 0) for r in cone_rays(eqs, nonneg, n - 1))


def measure_face(a: FiniteAlgebra, pv_rays: Iterable[IntVector]) -> tuple[IntVector, ...]:
    """The rays in ``pv_rays``, in the given order, on which every
    :func:`_measure_terms` row is 0.

    When ``a`` is a pseudo-BE algebra and ``pv_rays`` are the extreme rays
    of its pseudo-valuation cone (``valuations.valuation_cone``), this is
    :func:`measure_cone`.  Each measure row m(x->y) + m(x) - m(y), y <= x,
    is also a pv row, so it is >= 0 on the pv cone and the rows cut out a
    face of it; a face's extreme rays are the cone's extreme rays that lie
    in it (Ziegler, Lectures on Polytopes, 1995, 2.1).  The face is the
    measure cone because every measure m is a pv:

    - y <= x -> y and x <= (x -> y) ~> y: y ~> (x -> y) = x -> (y ~> y)
      = 1 and x -> ((x -> y) ~> y) = (x -> y) ~> (x -> y) = 1, by psBE4
      and psBE1-2 (psBE5 makes ~> and -> give one order);
    - m is antitone: m(x -> y) = m(y) - m(x) >= 0 for y <= x;
    - so m(y) - m(x -> y) = m((x -> y) ~> y) <= m(x), and the twin holds
      with the tables swapped, which are the two pv bounds.

    A pv is >= 0 and 0 at the unit, so a ray of the face is a measure by
    construction, and no further scan is needed.  The precondition is not
    checked here: the meta sweep's models are pseudo-BE by construction.
    """
    terms = list(dict.fromkeys(_measure_terms(a)))
    return tuple(
        r for r in pv_rays if all(r[t] + r[x] == r[y] for (t, x), (y,) in terms)
    )


def state_measure_bijection(a: FiniteAlgebra, values: Assignment, direction: str) -> Assignment:
    """1 - input pointwise, between states with s(0)=0 and state-measures.

    ``direction`` is ``"state-to-measure"`` or ``"measure-to-state"``.
    Both endpoints are verified; round-trip is the identity.
    """
    bottom = _require_bottom(a)
    _require_condition_a(a)
    if direction == "state-to-measure":
        _require_state(a, values)
        if values[bottom] != ZERO:
            raise MembershipError("state does not vanish at bottom")
        out = tuple(ONE - v for v in values)
        if not is_state_measure(a, out):
            raise ConsistencyAlarmError("bijection output failed the state-measure check")
        return out
    if direction == "measure-to-state":
        if not is_state_measure(a, values):
            raise MembershipError("input is not a state-measure")
        out = tuple(ONE - v for v in values)
        w = bosbach_witness(a, out)
        if w is not None or out[bottom] != ZERO:
            raise ConsistencyAlarmError("bijection output failed the state check")
        return out
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# kernels


def state_kernel(a: FiniteAlgebra, s: Assignment) -> Subset:
    """Preimage of 1 under a verified state."""
    _require_state(a, s)
    return frozenset(x for x in range(a.size) if s[x] == ONE)


def measure_kernel(a: FiniteAlgebra, m: Assignment) -> Subset:
    """Preimage of 0 under a verified measure."""
    w = measure_witness(a, m)
    if w is not None:
        raise MembershipError(f"not a measure: {w}")
    return frozenset(x for x in range(a.size) if m[x] == ZERO)
