"""Deductive systems: enumeration, classification, congruences, quotients.

A deductive system (DS) is a subset containing the unit and closed under
modus ponens.  Enumeration is brute force over all subsets containing the
unit; correctness over speed, the carriers of interest are tiny.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    _double_negations,
    _holds,
    _require_bottom,
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


class NotPseudoBEError(ValueError):
    """Quotients are only guaranteed to exist on pseudo-BE algebras."""


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
        raise NotADeductiveSystemError(f"{format_subset(a, d)} is not a deductive system")


# the predicates on a deductive system D, unchecked: ``enumerate_ds`` runs
# them on the members it has just verified, the public twins check D first


def _normal(a: FiniteAlgebra, d: Subset) -> bool:
    for x in range(a.size):
        for y in range(a.size):
            if (a.arrow[x][y] in d) != (a.squig[x][y] in d):
                return False
    return True


def _fantastic(a: FiniteAlgebra, d: Subset) -> bool:
    for x in range(a.size):
        for y in range(a.size):
            if a.arrow[y][x] in d and a.arrow[vee1(a, x, y)][x] not in d:
                return False
            if a.squig[y][x] in d and a.squig[vee2(a, x, y)][x] not in d:
                return False
    return True


def _involutive(a: FiniteAlgebra, d: Subset) -> bool:
    for x in range(a.size):
        dn, dn2 = _double_negations(a, x)
        if a.arrow[dn][x] not in d or a.squig[dn2][x] not in d:
            return False
    return True


def is_normal(a: FiniteAlgebra, d: Subset) -> bool:
    """x -> y in D iff x ~> y in D, for all pairs."""
    _require_ds(a, d)
    return _normal(a, d)


def is_fantastic(a: FiniteAlgebra, d: Subset) -> bool:
    """y -> x in D implies (x v1 y) -> x in D, plus the squig twin."""
    _require_ds(a, d)
    return _fantastic(a, d)


def is_involutive_ds(a: FiniteAlgebra, d: Subset) -> bool:
    """Contains x^{-~} -> x and x^{~-} ~> x for every x (bounded only)."""
    _require_bottom(a)
    _require_ds(a, d)
    return _involutive(a, d)


@dataclass(frozen=True)
class DSFamily:
    """All deductive systems of an algebra, with classification tags.

    ``subsets`` is sorted lexicographically by characteristic vector.  The
    ``prime`` and ``maximal`` tags are computed when first read.
    """

    algebra: FiniteAlgebra
    subsets: tuple[Subset, ...]
    normal: tuple[Subset, ...]
    fantastic: tuple[Subset, ...]
    involutive: Optional[tuple[Subset, ...]]

    @cached_property
    def prime(self) -> tuple[Subset, ...]:
        return self._tagged(_is_prime)

    @cached_property
    def maximal(self) -> tuple[Subset, ...]:
        return self._tagged(_is_maximal)

    def _tagged(self, test) -> tuple[Subset, ...]:
        """The proper members that pass ``test(algebra, d, subsets)``."""
        a = self.algebra
        return tuple(d for d in self.subsets if len(d) < a.size and test(a, d, self.subsets))


def enumerate_ds(a: FiniteAlgebra) -> DSFamily:
    """Test all 2^(n-1) unit-containing subsets, in characteristic-vector
    order, and classify the hits."""
    others = [i for i in range(a.size) if i != a.unit]
    candidates = (
        frozenset(x for x, bit in zip(others, bits) if bit) | {a.unit}
        for bits in itertools.product((0, 1), repeat=len(others))
    )
    subsets = tuple(d for d in candidates if is_deductive_system(a, d))

    # every member is a verified deductive system: the unchecked predicates
    normal = tuple(d for d in subsets if _normal(a, d))
    fantastic = tuple(d for d in subsets if _fantastic(a, d))
    involutive = None
    if a.bottom is not None:
        involutive = tuple(d for d in subsets if _involutive(a, d))
    return DSFamily(a, subsets, normal, fantastic, involutive)


def _meet_above(a: FiniteAlgebra, seed: Subset, family: tuple[Subset, ...]) -> Subset:
    """Intersection of the carrier (a deductive system of every algebra)
    and the members of ``family`` containing ``seed``."""
    return frozenset(range(a.size)).intersection(*(d for d in family if seed <= d))


def prime_witness(
    a: FiniteAlgebra, d: Subset, family: tuple[Subset, ...]
) -> Optional[tuple]:
    """Why D fails to be prime, or None.

    Two tests: the intersection condition over all enumerated DS pairs,
    and its principal instances through join terms, where the DS
    generated by x v1 y (the meet of ``family`` above it) lands in D but
    neither generator does.  A witness is ("pair", D1, D2) or ("join", x, y).
    """
    for d1 in family:
        for d2 in family:
            if (d1 & d2) <= d and not (d1 <= d or d2 <= d):
                return ("pair", d1, d2)
    for x in range(a.size):
        for y in range(a.size):
            if x in d or y in d:
                continue
            if _meet_above(a, frozenset({vee1(a, x, y)}), family) <= d:
                return ("join", x, y)
    return None


def _is_prime(a: FiniteAlgebra, d: Subset, family: tuple[Subset, ...]) -> bool:
    return prime_witness(a, d, family) is None


def _is_maximal(a: FiniteAlgebra, d: Subset, family: tuple[Subset, ...]) -> bool:
    for other in family:
        if len(other) < a.size and d < other:
            return False
    return True


def _proper_family(a: FiniteAlgebra, d: Subset) -> tuple[Subset, ...]:
    """The deductive systems of ``a``, once D is checked to be a proper
    deductive system."""
    _require_ds(a, d)
    if len(d) == a.size:
        raise NotProperError(f"{format_subset(a, d)} is not a proper deductive system")
    return enumerate_ds(a).subsets


def is_prime(a: FiniteAlgebra, d: Subset) -> bool:
    """Prime: D1 n D2 <= P forces D1 <= P or D2 <= P, over all DS pairs."""
    return _is_prime(a, d, _proper_family(a, d))


def is_maximal(a: FiniteAlgebra, d: Subset) -> bool:
    """Maximal: proper and contained in no other proper DS."""
    return _is_maximal(a, d, _proper_family(a, d))


@dataclass(frozen=True)
class QuotientResult:
    classes: tuple[tuple[int, ...], ...]
    quotient: FiniteAlgebra
    projection: tuple[int, ...]  # source element -> quotient element


def quotient(a: FiniteAlgebra, h: Subset) -> QuotientResult:
    """Quotient by the congruence x ~ y iff x -> y in H and y -> x in H.

    Only defined for distributive pseudo-BE algebras (elsewhere the
    relation need not be a congruence); both hypotheses are checked first,
    the construction is verified, not assumed, and a well-definedness
    failure raises an alarm.
    """
    if not _holds(a.arrow, a.squig, a.unit, "pseudo-BE"):
        raise NotPseudoBEError(
            f"{a.name} is not pseudo-BE; quotients are defined on "
            "pseudo-BE algebras only"
        )
    if not _holds(a.arrow, a.squig, a.unit, "distributive"):
        raise NotDistributiveError(
            f"{a.name} is not distributive; quotients are defined on "
            "distributive algebras only"
        )
    _require_ds(a, h)

    related = [
        [a.arrow[x][y] in h and a.arrow[y][x] in h for y in range(a.size)]
        for x in range(a.size)
    ]
    # the relation must be an equivalence before classes make sense; it is
    # symmetric by its definition, so reflexivity and transitivity are checked
    for x in range(a.size):
        if not related[x][x]:
            raise ConsistencyAlarmError("quotient relation not reflexive")
        for y in range(a.size):
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

    # one pass per class pair, members in order: the first pair read is the
    # representatives', which fixes the cell; every later pair must agree
    cells: dict[tuple[str, int, int], int] = {}
    for (ci, cls_i), (cj, cls_j) in itertools.product(enumerate(classes), repeat=2):
        for x, y in itertools.product(cls_i, cls_j):
            for label, table in (("arrow", a.arrow), ("squig", a.squig)):
                value = class_of[table[x][y]]
                if cells.setdefault((label, ci, cj), value) != value:
                    raise ConsistencyAlarmError(f"{label} not well defined on classes")
    k = range(len(classes))
    q_arrow, q_squig = (
        tuple(tuple(cells[label, ci, cj] for cj in k) for ci in k) for label in ("arrow", "squig")
    )

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
