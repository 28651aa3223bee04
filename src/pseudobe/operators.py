"""Internal states (type I/II) and state-morphism operators.

Candidates are unary maps on the carrier, enumerated on the partial-map
backtracker of :mod:`pseudobe.homs`: internal states with (is1)-(is3)
checked as the points are assigned, state-morphism operators as the
idempotent endomorphisms.
"""

from __future__ import annotations

from typing import Optional

from .algebra import FiniteAlgebra, Witness, _holds, parse_map, vee1, vee2
from .dsystems import ConsistencyAlarmError, Subset, is_deductive_system
from .homs import Check, Homomorphism, PreconditionError, enumerate_homomorphisms, hom_witness
from .homs import equation_check, scan_maps, search_maps

UnaryOperator = tuple[int, ...]


def _require_kind(kind: str) -> None:
    if kind not in ("I", "II"):
        raise ValueError(f"kind must be 'I' or 'II', got {kind!r}")


def internal_state_witness(
    a: FiniteAlgebra, mu: UnaryOperator, kind: str
) -> Optional[Witness]:
    """First failing axiom in the order (is1), (is2/is2'), (is3).

    ``kind`` is "I" (join of the left operand) or "II" (join reversed).
    The order used by (is1) is the preorder x -> y = 1.
    """
    _require_kind(kind)
    u, n = a.unit, range(a.size)
    is2 = "is2" if kind == "I" else "is2'"
    twins = ((a.arrow, vee1), (a.squig, vee2))
    return (
        next(
            (("is1", (x, y)) for x in n for y in n
             if a.arrow[x][y] == u and a.arrow[mu[x]][mu[y]] != u),
            None,
        )
        or next(
            ((is2, (x, y)) for x in n for y in n for t, join in twins
             if mu[t[x][y]] != t[mu[join(a, x, y) if kind == "I" else join(a, y, x)]][mu[y]]),
            None,
        )
        or next(
            (("is3", (x, y)) for x in n for y in n for t, _ in twins
             if mu[t[mu[x]][mu[y]]] != t[mu[x]][mu[y]]),
            None,
        )
    )


def is_internal_state(a: FiniteAlgebra, mu: UnaryOperator, kind: str) -> bool:
    return internal_state_witness(a, mu, kind) is None


def enumerate_internal_states(
    a: FiniteAlgebra, kind: str, audit: bool = False
) -> tuple[UnaryOperator, ...]:
    """All internal states of the given kind, in lexicographic map order;
    ``audit=True`` scans all n^n maps instead of the pruned search."""
    _require_kind(kind)

    def accept(mu: UnaryOperator) -> Optional[UnaryOperator]:
        return mu if is_internal_state(a, mu, kind) else None

    domains = [range(a.size)] * a.size
    if audit:
        return tuple(scan_maps(domains, accept))
    return tuple(search_maps(domains, _internal_state_check(a, kind), accept))


def _internal_state_check(a: FiniteAlgebra, kind: str) -> Check:
    """At point k: the (is2) equations on points <= k, and (is1) and
    (is3) on the pairs whose larger point is k ((is3) where the value it
    must fix is already assigned)."""
    n, u = a.size, a.unit
    is2, pairs = [], [[] for _ in range(n)]
    twins = ((a.arrow, vee1), (a.squig, vee2))
    for x in range(n):
        for y in range(n):
            p, q = (x, y) if kind == "I" else (y, x)
            is2 += [(join(a, p, q), y, t[x][y], t) for t, join in twins]
            pairs[max(x, y)].append((x, y, a.arrow[x][y] == u))
    is2_holds = equation_check(n, is2)

    def check(f: UnaryOperator, k: int) -> bool:
        for x, y, le in pairs[k]:
            s, t = a.arrow[f[x]][f[y]], a.squig[f[x]][f[y]]
            if (le and s != u) or (s <= k and f[s] != s) or (t <= k and f[t] != t):
                return False
        return is2_holds(f, k)

    return check


def smo_witness(a: FiniteAlgebra, mu: UnaryOperator) -> Optional[Witness]:
    """Endomorphism + idempotence; first failing pair, or None."""
    w = hom_witness(Homomorphism(a, a, mu))
    if w is not None:
        return ("hom-" + w[0], w[1])
    return next((("idempotent", (x,)) for x in range(a.size) if mu[mu[x]] != mu[x]), None)


def is_smo(a: FiniteAlgebra, mu: UnaryOperator) -> bool:
    return smo_witness(a, mu) is None


def enumerate_smo(a: FiniteAlgebra) -> tuple[UnaryOperator, ...]:
    """All state-morphism operators (idempotent endomorphisms), in lexicographic order."""
    return tuple(f.map for f in enumerate_homomorphisms(a, a) if is_smo(a, f.map))


def kernel_image(a: FiniteAlgebra, mu: UnaryOperator) -> tuple[Subset, Subset]:
    """(Ker(mu), Im(mu)) for an internal state on a condition-(A) algebra
    or a state-morphism operator.

    On condition-(A) internal states the structural facts Ker in DS(A),
    Im closed under both implications, and Ker n Im = {1} are re-checked
    and raise ``ConsistencyAlarmError`` if they fail.
    """
    cond_a = _holds(a.arrow, a.squig, a.unit, "condition-A")
    internal = cond_a and (
        is_internal_state(a, mu, "I") or is_internal_state(a, mu, "II")
    )
    if not internal and not is_smo(a, mu):
        raise PreconditionError(
            "operator is neither an internal state on a condition-(A) algebra "
            "nor a state-morphism operator"
        )
    ker = frozenset(x for x in range(a.size) if mu[x] == a.unit)
    img = frozenset(mu)
    if internal:
        if not is_deductive_system(a, ker):
            raise ConsistencyAlarmError("kernel of an internal state is not a deductive system")
        if any(a.arrow[x][y] not in img or a.squig[x][y] not in img for x in img for y in img):
            raise ConsistencyAlarmError("image of an internal state is not closed")
        if ker & img != {a.unit}:
            raise ConsistencyAlarmError("kernel and image of an internal state meet outside 1")
    return ker, img


def as_endomorphism(a: FiniteAlgebra, mu: UnaryOperator) -> Homomorphism:
    return Homomorphism(a, a, mu)


def parse_operator(a: FiniteAlgebra, text: str) -> UnaryOperator:
    return parse_map(a, a, text, "map")
