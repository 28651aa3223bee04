"""Homomorphisms between finite two-implication algebras.

Verification, kernel/image, DS transport, and enumeration of homomorphisms
and isomorphisms on ``search_maps``, the partial-map backtracker that also
enumerates :mod:`pseudobe.operators` and the table pairs of
:mod:`pseudobe.finder`; ``scan_maps``, the only search under
``SEARCH_GUARD``, is the audit oracle of those two modules' searches.  Both
take one sequence of allowed values per point and stream what ``accept``
returns for each map, skipping None; homomorphisms and internal states
allow every value at every point, the finder each free cell's value pairs.
The homomorphism search's unpruned twin, a filter over every map, is a
test oracle (``tests/oracles.py``).  The enumerators here and in
:mod:`pseudobe.operators` return tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .algebra import FiniteAlgebra, Witness, leq, parse_map
from .dsystems import ConsistencyAlarmError, Subset, is_deductive_system

SEARCH_GUARD = 10_000_000

Map = tuple[int, ...]
Check = Callable[[Map, int], bool]
T = TypeVar("T")


class NotAHomomorphismError(ValueError):
    pass


class SizeGuardError(ValueError):
    pass


class PreconditionError(ValueError):
    """A stated hypothesis of the operation fails; names the failed check."""


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    map: tuple[int, ...]

    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and len(set(self.map)) == len(self.map)


def identity_hom(a: FiniteAlgebra) -> Homomorphism:
    return Homomorphism(a, a, tuple(range(a.size)))


def hom_witness(f: Homomorphism) -> Optional[Witness]:
    """First pair where an operation is not preserved, or None."""
    a, b, m = f.source, f.target, f.map
    n = range(a.size)
    twins = (("arrow", a.arrow, b.arrow), ("squig", a.squig, b.squig))
    return next(
        ((tag, (x, y)) for x in n for y in n for tag, s, t in twins
         if m[s[x][y]] != t[m[x]][m[y]]),
        None,
    )


def is_homomorphism(f: Homomorphism) -> bool:
    return hom_witness(f) is None


def check_hom_properties(f: Homomorphism) -> dict[str, bool]:
    """Derived properties of a verified homomorphism: f(1)=1, monotone."""
    a, b = f.source, f.target
    unit_preserved = f.map[a.unit] == b.unit
    monotone = all(
        leq(b, f.map[x], f.map[y])
        for x in range(a.size)
        for y in range(a.size)
        if leq(a, x, y)
    )
    return {"preserves_unit": unit_preserved, "monotone": monotone}


def _require_hom(f: Homomorphism) -> None:
    w = hom_witness(f)
    if w is not None:
        op, (x, y) = w
        raise NotAHomomorphismError(
            f"{op} not preserved at ({f.source.token(x)},{f.source.token(y)})"
        )


def kernel(f: Homomorphism) -> Subset:
    """Preimage of the target unit."""
    _require_hom(f)
    return frozenset(x for x in range(f.source.size) if f.map[x] == f.target.unit)


def preimage_ds(f: Homomorphism, e: Subset) -> Subset:
    """f^{-1}(E); a DS of the source whenever E is a DS of the target."""
    _require_hom(f)
    if not is_deductive_system(f.target, e):
        raise PreconditionError("E is not a deductive system of the target")
    pre = frozenset(x for x in range(f.source.size) if f.map[x] in e)
    if not is_deductive_system(f.source, pre):
        raise ConsistencyAlarmError("preimage of a deductive system is not one")
    return pre


def image_ds(f: Homomorphism, d: Subset) -> Subset:
    """f(D) for surjective f with Ker(f) <= D; a DS of the target."""
    _require_hom(f)
    if not is_deductive_system(f.source, d):
        raise PreconditionError("D is not a deductive system of the source")
    if set(f.map) != set(range(f.target.size)):
        raise PreconditionError("f is not surjective")
    if not kernel(f) <= d:
        raise PreconditionError("Ker(f) is not contained in D")
    img = frozenset(f.map[x] for x in d)
    if not is_deductive_system(f.target, img):
        raise ConsistencyAlarmError("image of a deductive system is not one")
    return img


def search_maps(
    domains: Sequence[Sequence[int]], check: Check, accept: Callable[[Map], Optional[T]]
) -> Iterator[T]:
    """Stream ``accept(f)`` for the maps f with each f[k] in ``domains[k]``,
    skipping each None, in the lexicographic order of f, a point's values
    ranked as its domain lists them.

    Points are assigned depth first in the order 0..n-1, and a point is
    offered only the values of its domain; ``check(f, k)`` tests the
    constraints among points <= k that involve point k and prunes on
    failure.  It may only reject maps for which ``accept`` returns None, so
    the result is exact.  With no points the empty map is the only
    candidate.
    """
    n = len(domains)
    stack: list[Map] = [()]  # partial maps still to extend, smallest on top
    while stack:
        f = stack.pop()
        k = len(f)
        if k == n:
            if (kept := accept(f)) is not None:
                yield kept
            continue
        children = (f + (v,) for v in reversed(domains[k]))
        stack.extend(g for g in children if check(g, k))


def scan_maps(
    domains: Sequence[Sequence[int]], accept: Callable[[Map], Optional[T]]
) -> Iterator[T]:
    """Audit oracle for ``search_maps``: stream ``accept(f)`` for every map
    f of the product of ``domains``, skipping each None, unpruned and in the
    same order; the size guard trips at the first ``next()``."""
    maps = math.prod(map(len, domains))
    if maps > SEARCH_GUARD:
        raise SizeGuardError(f"{maps} maps exceed the search guard")
    for f in itertools.product(*domains):
        if (kept := accept(f)) is not None:
            yield kept


def equation_check(n: int, equations) -> Check:
    """Check for equations f(r) = t[f(p)][f(q)], given as (p, q, r, t),
    each tested once: when the largest of p, q, r is assigned."""
    at: list[list] = [[] for _ in range(n)]
    for p, q, r, t in equations:
        at[max(p, q, r)].append((p, q, r, t))
    return lambda f, k: all(f[r] == t[f[p]][f[q]] for p, q, r, t in at[k])


def enumerate_homomorphisms(
    a: FiniteAlgebra, b: FiniteAlgebra, iso_only: bool = False
) -> tuple[Homomorphism, ...]:
    """All homomorphisms A -> B in lexicographic map order.

    The search offers each point every element of B and checks each
    preservation equation once its points are assigned.
    """

    def accept(m: Map) -> Optional[Homomorphism]:
        # the inverse of a bijective homomorphism is one, too
        f = Homomorphism(a, b, m)
        return f if is_homomorphism(f) and (not iso_only or f.is_bijective()) else None

    domains = [range(b.size)] * a.size
    pairs = [(p, q) for p in range(a.size) for q in range(a.size)]
    tables = ((a.arrow, b.arrow), (a.squig, b.squig))
    check = equation_check(a.size, [(p, q, s[p][q], t) for s, t in tables for p, q in pairs])
    return tuple(search_maps(domains, check, accept))


def parse_hom(a: FiniteAlgebra, b: FiniteAlgebra, text: str) -> Homomorphism:
    return Homomorphism(a, b, parse_map(a, b, text, "hom"))
