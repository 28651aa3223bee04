"""Deductive systems: enumeration, classification, congruences, quotients.

A deductive system (DS) is a subset containing the unit and closed under
modus ponens.  Enumeration is brute force over all subsets containing the
unit; correctness over speed, the carriers of interest are tiny.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    UnboundedAlgebraError,
    check_axioms,
    negations,
    vee1,
    vee2,
)
from .linalg import ConsistencyAlarmError

Subset = frozenset[int]


class NotADeductiveSystemError(ValueError):
    pass


class NotProperError(ValueError):
    """Predicate defined only for proper deductive systems."""


class NotDistributiveError(ValueError):
    """Quotients are only guaranteed to exist on distributive algebras."""


def format_subset(a: FiniteAlgebra, subset: Subset) -> str:
    """``{tok1,tok2,...}`` with tokens in carrier declaration order."""
    return "{" + ",".join(a.token(i) for i in sorted(subset)) + "}"


def parse_subset(a: FiniteAlgebra, text: str) -> Subset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise AlgebraError(f"subset must be written {{tok,...}}, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    toks = [tok.strip() for tok in body.split(",")]
    if len(set(toks)) != len(toks):
        raise AlgebraError(f"repeated token in subset {text!r}")
    return frozenset(a.index(tok) for tok in toks)


def _closed_mp(a: FiniteAlgebra, d: Subset, table) -> bool:
    for x in d:
        for y in range(a.size):
            if table[x][y] in d and y not in d:
                return False
    return True


def is_deductive_system(a: FiniteAlgebra, d: Subset) -> bool:
    """Unit membership plus modus ponens closure.

    The closure is checked for both implications; on a pseudo-BE table
    the two tests provably agree, so a disagreement raises an alarm
    instead of silently picking one.
    """
    if a.unit not in d:
        return False
    by_arrow = _closed_mp(a, d, a.arrow)
    by_squig = _closed_mp(a, d, a.squig)
    if by_arrow != by_squig:
        raise ConsistencyAlarmError(
            f"modus ponens closures disagree on {format_subset(a, d)}"
        )
    return by_arrow


def _require_ds(a: FiniteAlgebra, d: Subset) -> None:
    if not is_deductive_system(a, d):
        raise NotADeductiveSystemError(format_subset(a, d))


def is_normal(a: FiniteAlgebra, d: Subset) -> bool:
    """x -> y in D iff x ~> y in D, for all pairs."""
    _require_ds(a, d)
    for x in range(a.size):
        for y in range(a.size):
            if (a.arrow[x][y] in d) != (a.squig[x][y] in d):
                return False
    return True


def is_fantastic(a: FiniteAlgebra, d: Subset) -> bool:
    """y -> x in D implies (x v1 y) -> x in D, plus the squig twin."""
    _require_ds(a, d)
    for x in range(a.size):
        for y in range(a.size):
            if a.arrow[y][x] in d and a.arrow[vee1(a, x, y)][x] not in d:
                return False
            if a.squig[y][x] in d and a.squig[vee2(a, x, y)][x] not in d:
                return False
    return True


def is_involutive_ds(a: FiniteAlgebra, d: Subset) -> bool:
    """Contains x^{-~} -> x and x^{~-} ~> x for every x (bounded only)."""
    if a.bottom is None:
        raise UnboundedAlgebraError(f"algebra {a.name!r} has no bottom")
    _require_ds(a, d)
    for x in range(a.size):
        neg, sneg = negations(a, x)
        dn = a.squig[neg][a.bottom]  # x^{-~}
        dn2 = a.arrow[sneg][a.bottom]  # x^{~-}
        if a.arrow[dn][x] not in d or a.squig[dn2][x] not in d:
            return False
    return True


def _char_vector(a: FiniteAlgebra, d: Subset) -> tuple[int, ...]:
    return tuple(1 if i in d else 0 for i in range(a.size))


@dataclass(frozen=True)
class DSFamily:
    """All deductive systems of an algebra, with classification tags.

    ``subsets`` is sorted lexicographically by characteristic vector.
    """

    algebra: FiniteAlgebra
    subsets: tuple[Subset, ...]
    normal: tuple[Subset, ...]
    fantastic: tuple[Subset, ...]
    involutive: Optional[tuple[Subset, ...]]
    prime: tuple[Subset, ...]
    maximal: tuple[Subset, ...]


def enumerate_ds(a: FiniteAlgebra) -> DSFamily:
    """Test all 2^(n-1) unit-containing subsets and classify the hits."""
    others = [i for i in range(a.size) if i != a.unit]
    found = []
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            d = frozenset(combo) | {a.unit}
            if is_deductive_system(a, d):
                found.append(d)
    found.sort(key=lambda d: _char_vector(a, d))
    subsets = tuple(found)

    normal = tuple(d for d in subsets if is_normal(a, d))
    fantastic = tuple(d for d in subsets if is_fantastic(a, d))
    involutive = None
    if a.bottom is not None:
        involutive = tuple(d for d in subsets if is_involutive_ds(a, d))
    proper = [d for d in subsets if len(d) < a.size]
    prime = tuple(d for d in proper if _is_prime(a, d, subsets))
    maximal = tuple(d for d in proper if _is_maximal(a, d, subsets))
    return DSFamily(a, subsets, normal, fantastic, involutive, prime, maximal)


def generated_ds(a: FiniteAlgebra, seed: Subset) -> Subset:
    """Smallest deductive system containing ``seed`` (modus ponens
    fixpoint under both implications)."""
    d = set(seed) | {a.unit}
    changed = True
    while changed:
        changed = False
        for table in (a.arrow, a.squig):
            for x in list(d):
                for y in range(a.size):
                    if table[x][y] in d and y not in d:
                        d.add(y)
                        changed = True
    out = frozenset(d)
    if not is_deductive_system(a, out):
        raise ConsistencyAlarmError("modus ponens fixpoint is not a deductive system")
    return out


def prime_witness(
    a: FiniteAlgebra, d: Subset, family: tuple[Subset, ...]
) -> Optional[tuple]:
    """Why D fails to be prime, or None.

    Two tests: the intersection condition over all enumerated DS pairs,
    and its principal instances through join terms, where the DS
    generated by x v1 y lands in D but neither generator does.  A witness
    is ("pair", D1, D2) or ("join", x, y).
    """
    for d1 in family:
        for d2 in family:
            if (d1 & d2) <= d and not (d1 <= d or d2 <= d):
                return ("pair", d1, d2)
    for x in range(a.size):
        for y in range(a.size):
            if x in d or y in d:
                continue
            if generated_ds(a, frozenset({vee1(a, x, y)})) <= d:
                return ("join", x, y)
    return None


def _is_prime(a: FiniteAlgebra, d: Subset, family: tuple[Subset, ...]) -> bool:
    return prime_witness(a, d, family) is None


def _is_maximal(a: FiniteAlgebra, d: Subset, family: tuple[Subset, ...]) -> bool:
    for other in family:
        if len(other) < a.size and d < other:
            return False
    return True


def is_prime(a: FiniteAlgebra, d: Subset, family: Optional[DSFamily] = None) -> bool:
    """Prime: D1 n D2 <= P forces D1 <= P or D2 <= P, over all DS pairs."""
    _require_ds(a, d)
    if len(d) == a.size:
        raise NotProperError(format_subset(a, d))
    if family is None:
        family = enumerate_ds(a)
    return _is_prime(a, d, family.subsets)


def is_maximal(a: FiniteAlgebra, d: Subset, family: Optional[DSFamily] = None) -> bool:
    """Maximal: proper and contained in no other proper DS."""
    _require_ds(a, d)
    if len(d) == a.size:
        raise NotProperError(format_subset(a, d))
    if family is None:
        family = enumerate_ds(a)
    return _is_maximal(a, d, family.subsets)


@dataclass(frozen=True)
class QuotientResult:
    classes: tuple[tuple[int, ...], ...]
    quotient: FiniteAlgebra
    projection: tuple[int, ...]  # source element -> quotient element


def quotient(a: FiniteAlgebra, h: Subset) -> QuotientResult:
    """Quotient by the congruence x ~ y iff x -> y in H and y -> x in H.

    Only defined for distributive algebras (elsewhere the relation need
    not be a congruence); the construction is verified, not assumed, and
    a well-definedness failure raises an alarm.
    """
    if not check_axioms(a, "distributive").holds:
        raise NotDistributiveError(a.name)
    _require_ds(a, h)

    related = [
        [a.arrow[x][y] in h and a.arrow[y][x] in h for y in range(a.size)]
        for x in range(a.size)
    ]
    # the relation must be an equivalence before classes make sense
    for x in range(a.size):
        if not related[x][x]:
            raise ConsistencyAlarmError("quotient relation not reflexive")
        for y in range(a.size):
            if related[x][y] != related[y][x]:
                raise ConsistencyAlarmError("quotient relation not symmetric")
            for z in range(a.size):
                if related[x][y] and related[y][z] and not related[x][z]:
                    raise ConsistencyAlarmError("quotient relation not transitive")

    class_of = [-1] * a.size
    classes: list[tuple[int, ...]] = []
    for x in range(a.size):
        if class_of[x] >= 0:
            continue
        members = tuple(y for y in range(a.size) if related[x][y])
        for y in members:
            class_of[y] = len(classes)
        classes.append(members)

    reps = [cls[0] for cls in classes]  # least index per class

    def build(table) -> tuple[tuple[int, ...], ...]:
        out = []
        for ci in range(len(classes)):
            row = []
            for cj in range(len(classes)):
                row.append(class_of[table[reps[ci]][reps[cj]]])
            out.append(tuple(row))
        return tuple(out)

    q_arrow = build(a.arrow)
    q_squig = build(a.squig)

    # well-definedness: every member pair must land in the same class
    for ci, cls_i in enumerate(classes):
        for cj, cls_j in enumerate(classes):
            for x in cls_i:
                for y in cls_j:
                    if class_of[a.arrow[x][y]] != q_arrow[ci][cj]:
                        raise ConsistencyAlarmError("arrow not well defined on classes")
                    if class_of[a.squig[x][y]] != q_squig[ci][cj]:
                        raise ConsistencyAlarmError("squig not well defined on classes")

    if q_arrow != q_squig:
        raise ConsistencyAlarmError("quotient tables differ; expected a BE quotient")

    tokens = tuple("|".join(a.token(x) for x in cls) for cls in classes)
    q = FiniteAlgebra(
        name=f"{a.name}_mod_{''.join(a.token(x) for x in sorted(h))}",
        elements=tokens,
        arrow=q_arrow,
        squig=q_squig,
        unit=class_of[a.unit],
        bottom=None if a.bottom is None else class_of[a.bottom],
    )
    return QuotientResult(tuple(classes), q, tuple(class_of))
