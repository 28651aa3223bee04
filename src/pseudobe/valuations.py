"""Pseudo-valuations: verification, characterizations, cone, pullback.

Valuation candidates are rational assignments; the full valuation cone
is computed exactly by extreme-ray enumeration of the defining linear
inequality system, and its rays are primitive integer vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import FiniteAlgebra, Witness, vee1, vee2
from .dsystems import Subset, is_deductive_system, is_fantastic
from .homs import Homomorphism, _require_hom
from .linalg import ConsistencyAlarmError, IntVector, _cone
from .states import Assignment, Term, _unit_free_rows, _with_unit

ZERO = Fraction(0)


class NotAPseudoValuationError(ValueError):
    pass


def pv_witness(a: FiniteAlgebra, phi: Assignment) -> Optional[Witness]:
    """First violation of phi(1)=0 or the two-sided difference bound."""
    if phi[a.unit] != ZERO:
        return ("pv1", (a.unit,))
    n = range(a.size)
    return next(
        (("pv2", (x, y)) for x in n for y in n for t in (a.arrow, a.squig)
         if phi[y] - phi[x] > phi[t[x][y]]),
        None,
    )


def is_pseudo_valuation(a: FiniteAlgebra, phi: Assignment) -> bool:
    return pv_witness(a, phi) is None


def is_valuation(a: FiniteAlgebra, phi: Assignment) -> bool:
    """Pseudo-valuation vanishing only at the unit."""
    if not is_pseudo_valuation(a, phi):
        return False
    return all(phi[x] != ZERO for x in range(a.size) if x != a.unit)


def weak_pv_witness(a: FiniteAlgebra, phi: Assignment) -> Optional[Witness]:
    """max{phi(x->y), phi(x~>y)} <= phi(x)+phi(y) over all pairs."""
    n = range(a.size)
    return next(
        (("pv6", (x, y)) for x in n for y in n for t in (a.arrow, a.squig)
         if phi[t[x][y]] > phi[x] + phi[y]),
        None,
    )


def is_weak_pseudo_valuation(a: FiniteAlgebra, phi: Assignment) -> bool:
    return weak_pv_witness(a, phi) is None


def _require_pv(a: FiniteAlgebra, phi: Assignment) -> None:
    w = pv_witness(a, phi)
    if w is not None:
        raise NotAPseudoValuationError(str(w))


def commutative_pv_witness(a: FiniteAlgebra, phi: Assignment) -> Optional[Witness]:
    """phi(x v1 y -> x) <= phi(y -> x) plus the squig twin."""
    n = range(a.size)
    twins = (("cpv1", a.arrow, vee1), ("cpv2", a.squig, vee2))
    return next(
        ((tag, (x, y)) for x in n for y in n for tag, t, vee in twins
         if phi[t[vee(a, x, y)][x]] > phi[t[y][x]]),
        None,
    )


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
    n, A, S = range(a.size), a.arrow, a.squig
    pv45_w = next(
        ((tag, (x, y, z)) for x in n for y in n for z in n
         for tag, t, u in (("pv4", A, S), ("pv5", S, A))
         if phi[t[x][z]] > phi[t[x][u[y][z]]] + phi[y]),
        None,
    )
    cpv34_w = next(
        ((tag, (x, y, z)) for x in n for y in n for z in n
         for tag, t, vee in (("cpv3", A, vee1), ("cpv4", S, vee2))
         if phi[t[vee(a, x, y)][x]] > phi[t[z][t[y][x]]] + phi[z]),
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


def _valuation_terms(a: FiniteAlgebra) -> Iterable[Term]:
    """phi(x->y) + phi(x) - phi(y), and its ~> twin, for all pairs."""
    n = a.size
    for x in range(n):
        for y in range(n):
            for table in (a.arrow, a.squig):
                yield (table[x][y], x), (y,)


def valuation_cone(a: FiniteAlgebra) -> tuple[IntVector, ...]:
    """Extreme rays of the pseudo-valuation cone as primitive integer
    vectors, each re-verified.

    phi(1) = 0 is kept by dropping the unit's coordinate and putting 0
    back at it on every ray."""
    n = a.size
    ineqs = _unit_free_rows(a, _valuation_terms(a), n - 1)
    rays = tuple(_with_unit(a, r, 0) for r in _cone((), ineqs, n - 1))
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
    _require_hom(f)
    kernel = valuation_kernel(f.target, phi)
    psi = tuple(phi[f.map[x]] for x in range(f.source.size))
    if not is_pseudo_valuation(f.source, psi):
        raise ConsistencyAlarmError("pullback is not a pseudo-valuation")
    if valuation_kernel(f.source, psi) == {x for x in range(f.source.size) if f.map[x] in kernel}:
        return psi
    raise ConsistencyAlarmError("pullback does not carry the kernel along")
