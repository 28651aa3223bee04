"""Bosbach states, state-morphisms, measures, and their exact geometry.

All candidates are rational-valued assignments checked exactly; the state
space is computed as an affine solution space intersected with the unit
box, and the measure cone via extreme-ray enumeration.  Vertices are
Fraction tuples and rays primitive integer tuples; both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import FiniteAlgebra, UnboundedAlgebraError, check_axioms, content_lines, leq
from .dsystems import Subset
from .linalg import (
    AffineSolutionSpace,
    ConsistencyAlarmError,
    IntVector,
    LinearEquation,
    Vector,
    _coefficient_row,
    box_vertices,
    cone_rays,
    format_fraction,
    parse_fraction,
    solve_affine,
)

Assignment = tuple[int | Fraction, ...]  # one exact value per carrier element

Witness = tuple[str, tuple[int, ...]]


class MembershipError(ValueError):
    """Input fails the membership check required by the operation."""


class ConditionAMissingError(ValueError):
    pass


ONE = Fraction(1)
ZERO = Fraction(0)


def parse_assignment(
    a: FiniteAlgebra, text: str, expected_kinds: tuple[str, ...]
) -> tuple[str, str, Assignment]:
    """Parse ``<kind> <name>`` followed by ``<element> = <rational>`` lines."""
    values: dict[int, Fraction] = {}
    kind = name = None
    for line in content_lines(text):
        if kind is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in expected_kinds:
                raise ValueError(
                    f"expected header '<{('|'.join(expected_kinds))}> <name>', got {line!r}"
                )
            kind, name = parts
            continue
        if "=" not in line:
            raise ValueError(f"bad assignment line: {line!r}")
        tok, val = (part.strip() for part in line.split("=", 1))
        x = a.index(tok)
        if x in values:
            raise ValueError(f"element {tok!r} assigned twice")
        values[x] = parse_fraction(val)
    if kind is None:
        raise ValueError("empty assignment file")
    missing = [a.token(i) for i in range(a.size) if i not in values]
    if missing:
        raise ValueError(f"assignment missing elements: {', '.join(missing)}")
    return kind, name, tuple(values[i] for i in range(a.size))


def format_assignment(a: FiniteAlgebra, kind: str, name: str, values: Assignment) -> str:
    lines = [f"{kind} {name}"]
    lines += [f"{a.token(i)} = {format_fraction(values[i])}" for i in range(a.size)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bosbach states


def bosbach_witness(a: FiniteAlgebra, s: Assignment) -> Optional[Witness]:
    """First violated state axiom, or None if s is a Bosbach state."""
    if s[a.unit] != ONE:
        return ("bs1", (a.unit,))
    for x in range(a.size):
        if not ZERO <= s[x] <= ONE:
            return ("range", (x,))
    for x in range(a.size):
        for y in range(a.size):
            if s[x] + s[a.arrow[x][y]] != s[y] + s[a.arrow[y][x]]:
                return ("bs2", (x, y))
            if s[x] + s[a.squig[x][y]] != s[y] + s[a.squig[y][x]]:
                return ("bs3", (x, y))
    return None


def is_bosbach_state(a: FiniteAlgebra, s: Assignment) -> bool:
    return bosbach_witness(a, s) is None


@dataclass(frozen=True)
class StateSpaceResult:
    affine: Optional[AffineSolutionSpace]  # None when the system is inconsistent
    vertices: tuple[Vector, ...]


def state_equations(a: FiniteAlgebra) -> list[LinearEquation]:
    """s(1)=1 plus the two symmetry equations per unordered pair.

    The (y,x) instance of each symmetry equation is the (x,y) one
    negated, so only x < y is generated.
    """
    n = a.size
    eqs = [LinearEquation(_coefficient_row(n, (a.unit,)), 1)]
    for x in range(n):
        for y in range(x + 1, n):
            for table in (a.arrow, a.squig):
                row = _coefficient_row(n, (x, table[x][y]), (y, table[y][x]))
                eqs.append(LinearEquation(row, 0))
    return eqs


def state_space(a: FiniteAlgebra) -> StateSpaceResult:
    """Affine span of all states, intersected with the unit box.

    An empty space is a legal outcome, not an error.
    """
    space = solve_affine(state_equations(a), a.size)
    if space is None:
        return StateSpaceResult(None, ())
    verts = box_vertices(space, [0] * a.size, [1] * a.size)
    return StateSpaceResult(space, verts)


# ---------------------------------------------------------------------------
# state-morphisms


def lukasiewicz(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE - x + y, ONE)


def state_morphism_witness(a: FiniteAlgebra, s: Assignment) -> Optional[Witness]:
    if s[a.unit] != ONE:
        return ("bs1", (a.unit,))
    for x in range(a.size):
        if not ZERO <= s[x] <= ONE:
            return ("range", (x,))
    for x in range(a.size):
        for y in range(a.size):
            expected = lukasiewicz(s[x], s[y])
            if s[a.arrow[x][y]] != expected or s[a.squig[x][y]] != expected:
                return ("sm", (x, y))
    return None


def is_state_morphism(a: FiniteAlgebra, s: Assignment) -> bool:
    return state_morphism_witness(a, s) is None


def sm_characterization_check(a: FiniteAlgebra, s: Assignment) -> bool:
    """max-characterization of state-morphisms among Bosbach states.

    Requires condition (A) and a verified state; the result must agree
    with the direct state-morphism check.
    """
    if not check_axioms(a, "condition-A").holds:
        raise ConditionAMissingError(f"{a.name} does not satisfy condition (A)")
    w = bosbach_witness(a, s)
    if w is not None:
        raise MembershipError(f"not a Bosbach state: {w}")
    from .algebra import vee1

    return all(
        s[vee1(a, x, y)] == max(s[x], s[y])
        for x in range(a.size)
        for y in range(a.size)
    )


# ---------------------------------------------------------------------------
# measures


def measure_witness(a: FiniteAlgebra, m: Assignment) -> Optional[Witness]:
    """Difference property over comparable pairs; nonnegative values."""
    for x in range(a.size):
        if m[x] < ZERO:
            return ("range", (x,))
    for x in range(a.size):
        for y in range(a.size):
            if leq(a, y, x):
                diff = m[y] - m[x]
                if m[a.arrow[x][y]] != diff or m[a.squig[x][y]] != diff:
                    return ("m", (x, y))
    return None


def is_measure(a: FiniteAlgebra, m: Assignment) -> bool:
    return measure_witness(a, m) is None


def measure_morphism_witness(a: FiniteAlgebra, m: Assignment) -> Optional[Witness]:
    """max{0, m(y)-m(x)} property over all pairs; nonnegative values."""
    for x in range(a.size):
        if m[x] < ZERO:
            return ("range", (x,))
    for x in range(a.size):
        for y in range(a.size):
            expected = max(ZERO, m[y] - m[x])
            if m[a.arrow[x][y]] != expected or m[a.squig[x][y]] != expected:
                return ("mm", (x, y))
    return None


def is_measure_morphism(a: FiniteAlgebra, m: Assignment) -> bool:
    return measure_morphism_witness(a, m) is None


def _require_bounded(a: FiniteAlgebra) -> int:
    if a.bottom is None:
        raise UnboundedAlgebraError(f"algebra {a.name!r} has no bottom")
    return a.bottom


def is_state_measure(a: FiniteAlgebra, m: Assignment) -> bool:
    bottom = _require_bounded(a)
    return is_measure(a, m) and m[bottom] == ONE


def is_state_measure_morphism(a: FiniteAlgebra, m: Assignment) -> bool:
    bottom = _require_bounded(a)
    return is_measure_morphism(a, m) and m[bottom] == ONE


def measure_equations(a: FiniteAlgebra) -> list[LinearEquation]:
    """m(1)=0 plus m(x->y)=m(y)-m(x) (both tables) for each y <= x."""
    n = a.size
    eqs = [LinearEquation(_coefficient_row(n, (a.unit,)), 0)]
    for x in range(n):
        for y in range(n):
            if leq(a, y, x):
                for table in (a.arrow, a.squig):
                    row = _coefficient_row(n, (table[x][y], x), (y,))
                    eqs.append(LinearEquation(row, 0))
    return eqs


def measure_cone(a: FiniteAlgebra) -> tuple[IntVector, ...]:
    """Extreme rays of the cone of measures, as primitive integer vectors."""
    n = a.size
    nonneg = [_coefficient_row(n, (i,)) for i in range(n)]
    return cone_rays(measure_equations(a), nonneg, n)


def state_measure_bijection(a: FiniteAlgebra, values: Assignment, direction: str) -> Assignment:
    """1 - input pointwise, between states with s(0)=0 and state-measures.

    ``direction`` is ``"state-to-measure"`` or ``"measure-to-state"``.
    Both endpoints are verified; round-trip is the identity.
    """
    bottom = _require_bounded(a)
    if not check_axioms(a, "condition-A").holds:
        raise ConditionAMissingError(f"{a.name} does not satisfy condition (A)")
    if direction == "state-to-measure":
        w = bosbach_witness(a, values)
        if w is not None:
            raise MembershipError(f"not a Bosbach state: {w}")
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
    w = bosbach_witness(a, s)
    if w is not None:
        raise MembershipError(f"not a Bosbach state: {w}")
    return frozenset(x for x in range(a.size) if s[x] == ONE)


def measure_kernel(a: FiniteAlgebra, m: Assignment) -> Subset:
    """Preimage of 0 under a verified measure."""
    w = measure_witness(a, m)
    if w is not None:
        raise MembershipError(f"not a measure: {w}")
    return frozenset(x for x in range(a.size) if m[x] == ZERO)
