"""Pseudo-valuations: verification, characterizations, cone, transport.

Valuation candidates are rational assignments; the full valuation cone
is computed exactly by extreme-ray enumeration of the defining linear
inequality system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import FiniteAlgebra, vee1, vee2
from .dsystems import Subset, is_deductive_system, is_fantastic
from .homs import Homomorphism, NotBijectiveError, hom_witness, NotAHomomorphismError
from .linalg import ConsistencyAlarmError, LinearEquation, Vector, _coefficient_row, cone_rays
from .states import Assignment, Witness

ZERO = Fraction(0)


class NotAPseudoValuationError(ValueError):
    pass


def pv_witness(a: FiniteAlgebra, phi: Assignment) -> Optional[Witness]:
    """First violation of phi(1)=0 or the two-sided difference bound."""
    if phi[a.unit] != ZERO:
        return ("pv1", (a.unit,))
    for x in range(a.size):
        for y in range(a.size):
            bound = min(phi[a.arrow[x][y]], phi[a.squig[x][y]])
            if phi[y] - phi[x] > bound:
                return ("pv2", (x, y))
    return None


def is_pseudo_valuation(a: FiniteAlgebra, phi: Assignment) -> bool:
    return pv_witness(a, phi) is None


def is_valuation(a: FiniteAlgebra, phi: Assignment) -> bool:
    """Pseudo-valuation vanishing only at the unit."""
    if not is_pseudo_valuation(a, phi):
        return False
    return all(phi[x] != ZERO for x in range(a.size) if x != a.unit)


def weak_pv_witness(a: FiniteAlgebra, phi: Assignment) -> Optional[Witness]:
    """max{phi(x->y), phi(x~>y)} <= phi(x)+phi(y) over all pairs."""
    for x in range(a.size):
        for y in range(a.size):
            if max(phi[a.arrow[x][y]], phi[a.squig[x][y]]) > phi[x] + phi[y]:
                return ("pv6", (x, y))
    return None


def is_weak_pseudo_valuation(a: FiniteAlgebra, phi: Assignment) -> bool:
    return weak_pv_witness(a, phi) is None


def _require_pv(a: FiniteAlgebra, phi: Assignment) -> None:
    w = pv_witness(a, phi)
    if w is not None:
        raise NotAPseudoValuationError(str(w))


def commutative_pv_witness(a: FiniteAlgebra, phi: Assignment) -> Optional[Witness]:
    """phi(x v1 y -> x) <= phi(y -> x) plus the squig twin."""
    for x in range(a.size):
        for y in range(a.size):
            if phi[a.arrow[vee1(a, x, y)][x]] > phi[a.arrow[y][x]]:
                return ("cpv1", (x, y))
            if phi[a.squig[vee2(a, x, y)][x]] > phi[a.squig[y][x]]:
                return ("cpv2", (x, y))
    return None


def is_commutative_pv(a: FiniteAlgebra, phi: Assignment) -> bool:
    _require_pv(a, phi)
    return commutative_pv_witness(a, phi) is None


@dataclass(frozen=True)
class CharacterizationReport:
    """Triple-quantified characterizations versus the direct definitions.

    Both agreement flags must be true on any input with phi(1)=0; a
    mismatch would falsify the characterization theorems on this table.
    """

    pv4_pv5: bool
    pv4_witness: Optional[Witness]
    cpv3_cpv4: bool
    cpv3_witness: Optional[Witness]
    is_pv: bool
    is_commutative: Optional[bool]  # None when not a pseudo-valuation
    pv_equivalence_agrees: bool
    cpv_equivalence_agrees: bool


def characterization_crosscheck(a: FiniteAlgebra, phi: Assignment) -> CharacterizationReport:
    """Evaluate the (pv4)/(pv5) and (cpv3)/(cpv4) inequality systems.

    (pv4)&(pv5) must hold exactly when phi is a pseudo-valuation, and for
    pseudo-valuations (cpv3)&(cpv4) exactly when phi is commutative.
    """
    if phi[a.unit] != ZERO:
        raise NotAPseudoValuationError("phi(1) != 0")
    triples = list(itertools.product(range(a.size), repeat=3))
    pv45_w = next(
        (
            (tag, (x, y, z))
            for x, y, z in triples
            for tag, fails in (
                ("pv4", phi[a.arrow[x][z]] > phi[a.arrow[x][a.squig[y][z]]] + phi[y]),
                ("pv5", phi[a.squig[x][z]] > phi[a.squig[x][a.arrow[y][z]]] + phi[y]),
            )
            if fails
        ),
        None,
    )
    cpv34_w = next(
        (
            (tag, (x, y, z))
            for x, y, z in triples
            for tag, fails in (
                ("cpv3", phi[a.arrow[vee1(a, x, y)][x]] > phi[a.arrow[z][a.arrow[y][x]]] + phi[z]),
                ("cpv4", phi[a.squig[vee2(a, x, y)][x]] > phi[a.squig[z][a.squig[y][x]]] + phi[z]),
            )
            if fails
        ),
        None,
    )

    is_pv = is_pseudo_valuation(a, phi)
    is_comm = is_commutative_pv(a, phi) if is_pv else None
    return CharacterizationReport(
        pv4_pv5=pv45_w is None,
        pv4_witness=pv45_w,
        cpv3_cpv4=cpv34_w is None,
        cpv3_witness=cpv34_w,
        is_pv=is_pv,
        is_commutative=is_comm,
        pv_equivalence_agrees=((pv45_w is None) == is_pv),
        cpv_equivalence_agrees=(not is_pv) or ((cpv34_w is None) == is_comm),
    )


def valuation_equations(a: FiniteAlgebra) -> tuple[list[LinearEquation], list[Vector]]:
    """Equalities and inequalities cutting out the pseudo-valuation cone.

    phi(1)=0; phi(y)-phi(x) <= phi(x->y) and phi(y)-phi(x) <= phi(x~>y)
    for all pairs.  Nonnegativity is implied (take y := 1).
    """
    n = a.size
    eqs = [LinearEquation(_coefficient_row(n, (a.unit,)), ZERO)]
    ineqs = []
    for x in range(n):
        for y in range(n):
            for table in (a.arrow, a.squig):
                # phi(x->y) - phi(y) + phi(x) >= 0
                ineqs.append(_coefficient_row(n, (table[x][y], x), (y,)))
    return eqs, ineqs


def valuation_cone(a: FiniteAlgebra) -> tuple[Vector, ...]:
    """Extreme rays of the pseudo-valuation cone, each re-verified."""
    eqs, ineqs = valuation_equations(a)
    rays = cone_rays(eqs, ineqs, a.size)
    for ray in rays:
        if not is_pseudo_valuation(a, ray):
            raise ConsistencyAlarmError(f"valuation cone ray {ray} is not a pseudo-valuation")
    return rays


def valuation_kernel(a: FiniteAlgebra, phi: Assignment) -> Subset:
    """Preimage of 0; always a DS, and fantastic for commutative phi."""
    _require_pv(a, phi)
    ker = frozenset(x for x in range(a.size) if phi[x] == ZERO)
    if not is_deductive_system(a, ker):
        raise ConsistencyAlarmError("kernel of a pseudo-valuation is not a deductive system")
    if commutative_pv_witness(a, phi) is None and not is_fantastic(a, ker):
        raise ConsistencyAlarmError("kernel of a commutative pseudo-valuation is not fantastic")
    return ker


def pullback(f: Homomorphism, phi: Assignment) -> Assignment:
    """phi o f; a pseudo-valuation on the source with the kernel pulled back."""
    w = hom_witness(f)
    if w is not None:
        raise NotAHomomorphismError(str(w))
    _require_pv(f.target, phi)
    psi = tuple(phi[f.map[x]] for x in range(f.source.size))
    target_kernel = valuation_kernel(f.target, phi)
    expected = frozenset(x for x in range(f.source.size) if f.map[x] in target_kernel)
    _require_transported(f.source, psi, expected, "pullback")
    return psi


def pushforward(f: Homomorphism, phi: Assignment) -> Assignment:
    """The unique psi with psi o f = phi, along an isomorphism."""
    w = hom_witness(f)
    if w is not None:
        raise NotAHomomorphismError(str(w))
    if not f.is_bijective():
        raise NotBijectiveError("pushforward requires an isomorphism")
    _require_pv(f.source, phi)
    psi = [ZERO] * f.target.size
    for x in range(f.source.size):
        psi[f.map[x]] = phi[x]
    psi = tuple(psi)
    expected = frozenset(f.map[x] for x in valuation_kernel(f.source, phi))
    _require_transported(f.target, psi, expected, "pushforward")
    return psi


def _require_transported(a: FiniteAlgebra, psi: Assignment, kernel: Subset, how: str) -> None:
    """Alarm unless the transported ``psi`` is a pseudo-valuation on ``a``
    whose kernel is the transported ``kernel``."""
    if not is_pseudo_valuation(a, psi):
        raise ConsistencyAlarmError(f"{how} is not a pseudo-valuation")
    if valuation_kernel(a, psi) != kernel:
        raise ConsistencyAlarmError(f"{how} does not carry the kernel along")
