"""Exhaustive enumeration of small two-implication algebras up to
isomorphism, plus the meta-theorem verification sweep.

A table pair is searched as a map from its free cells (unit rows and
columns and the diagonal are forced by the axioms) to (arrow, squig) value
pairs on ``homs.search_maps``, so the "arrow = 1 iff squig = 1" coupling
and the exchange identity prune as soon as a cell is assigned;
``homs.scan_maps`` is the audit.  Isomorphic duplicates are rejected by a
canonical form: the lexicographically minimal table pair over all carrier
permutations fixing the unit.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .algebra import (
    FiniteAlgebra,
    check_axioms,
    classify,
    serialize_algebra,
)
from .dsystems import enumerate_ds, format_subset, is_involutive_ds
from .homs import Map, SizeGuardError, scan_maps, search_maps
from .parallel import pmap
from .operators import enumerate_internal_states, is_smo
from .states import measure_cone, measure_kernel, state_kernel, state_space
from .valuations import (
    is_commutative_pv,
    is_pseudo_valuation,
    is_weak_pseudo_valuation,
    valuation_cone,
)

MAX_EXHAUSTIVE_SIZE = 5

STRUCTURE_FLAGS = (
    "pseudo-BE",
    "pseudo-BCK",
    "BE",
    "proper",
    "condition-A",
    "distributive",
    "commutative",
    "bounded",
    "linear",
)

_TOKENS = "1abcdefghijklmnopqrstuvwxy"


@dataclass(frozen=True)
class SearchConstraints:
    size: int
    flags: tuple[str, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        for flag in self.flags:
            if flag not in STRUCTURE_FLAGS:
                raise ValueError(f"unknown constraint flag {flag!r}")


def detect_bottom(a: FiniteAlgebra) -> Optional[int]:
    """Index of a least element (0 -> x = 0 ~> x = 1 for all x), if any."""
    for b in range(a.size):
        if all(
            a.arrow[b][x] == a.unit and a.squig[b][x] == a.unit for x in range(a.size)
        ):
            if b != a.unit or a.size == 1:
                return b
    return None


def with_detected_bottom(a: FiniteAlgebra) -> Optional[FiniteAlgebra]:
    """Copy of ``a`` with its least element declared as bottom, if one exists."""
    b = detect_bottom(a)
    if b is None:
        return None
    return FiniteAlgebra(a.name, a.elements, a.arrow, a.squig, a.unit, b)


def canonical_tables(
    arrow: tuple[tuple[int, ...], ...],
    squig: tuple[tuple[int, ...], ...],
    unit: int,
) -> tuple:
    """Lexicographically minimal relabeled (arrow, squig) pair over all
    carrier permutations fixing the unit."""
    n = len(arrow)
    others = [i for i in range(n) if i != unit]
    best = None
    for perm_rest in itertools.permutations(others):
        p = [0] * n
        p[unit] = unit
        for src, dst in zip(others, perm_rest):
            p[src] = dst
        inv = [0] * n
        for src, dst in enumerate(p):
            inv[dst] = src
        ra = tuple(
            tuple(p[arrow[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        )
        rs = tuple(
            tuple(p[squig[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        )
        cand = (ra, rs)
        if best is None or cand < best:
            best = cand
    return best


def canonical_hash(a: FiniteAlgebra) -> str:
    ca, cs = canonical_tables(a.arrow, a.squig, a.unit)
    blob = repr((len(a.elements), ca, cs)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _model_name(n: int, arrow, squig) -> str:
    blob = repr((n, arrow, squig)).encode()
    return f"n{n}_{hashlib.sha256(blob).hexdigest()[:12]}"


def _passes_flags(a: FiniteAlgebra, flags: tuple[str, ...]) -> Optional[FiniteAlgebra]:
    """Apply constraint flags; may return a bounded copy for the 'bounded' flag."""
    if not flags:
        return a
    rep = classify(a)
    out = a
    for flag in flags:
        if flag == "bounded":
            bounded = with_detected_bottom(a)
            if bounded is None:
                return None
            out = bounded
        elif not getattr(rep, flag.lower().replace("-", "_")):
            return None
    return out


def _table_pairs(n: int, audit: bool) -> Iterator[tuple[tuple, tuple]]:
    """Stream the pseudo-BE table pairs on n elements with unit index 0.

    A table pair is a map from the free cells, (x, y) with x, y != unit and
    x != y in row-major order, to value pairs ``arrow * n + squig``; the
    other cells are forced by psBE1-3.  The pruned search on
    ``homs.search_maps`` checks at each cell the coupled unit (arrow = 1
    iff squig = 1) and the exchange identity on the triples that read the
    cell; ``audit=True`` scans every map with ``homs.scan_maps``.  Both
    confirm each complete pair with ``check_axioms``.
    """
    u = 0
    rng = range(n)
    tokens = tuple(_TOKENS[:n])
    free = [(x, y) for x in rng for y in rng if u not in (x, y) and x != y]
    base: list[list[Optional[int]]] = [[None] * n for _ in rng]
    for x in rng:
        base[x][x] = base[x][u] = u
        base[u][x] = x

    def tables(f: Map) -> tuple[list, list]:
        arrow = [row[:] for row in base]
        squig = [row[:] for row in base]
        for (x, y), p in zip(free, f):
            arrow[x][y], squig[x][y] = divmod(p, n)
        return arrow, squig

    def frozen(f: Map) -> tuple[tuple, tuple]:
        arrow, squig = tables(f)
        return tuple(map(tuple, arrow)), tuple(map(tuple, squig))

    def accept(f: Map) -> bool:
        ta, ts = frozen(f)
        return check_axioms(FiniteAlgebra("tmp", tokens, ta, ts, u), "pseudo-BE").holds

    # Exchange x -> (y ~> z) = y ~> (x -> z) reads arrow row x and squig
    # row y.  Cell k = (row, .) is read by the triples with x or y = row;
    # one is kept once its x -> z and y ~> z cells are assigned and tested
    # once the cells those values point to are assigned, too.
    order = {cell: k for k, cell in enumerate(free)}
    exchange = [
        [(x, y, z) for x in rng for y in rng for z in rng
         if row in (x, y) and max(order.get((x, z), -1), order.get((y, z), -1)) <= k]
        for k, (row, _) in enumerate(free)
    ]

    def check(f: Map, k: int) -> bool:
        va, vs = divmod(f[k], n)
        if (va == u) != (vs == u):
            return False
        arrow, squig = tables(f)
        for x, y, z in exchange[k]:
            lhs, rhs = arrow[x][squig[y][z]], squig[y][arrow[x][z]]
            if lhs is not None and rhs is not None and lhs != rhs:
                return False
        return True

    if audit:
        maps = scan_maps(len(free), n * n, accept)
    else:
        maps = search_maps(len(free), n * n, check, accept)
    return map(frozen, maps)


def enumerate_models(
    c: SearchConstraints, audit: bool = False
) -> Iterator[FiniteAlgebra]:
    """Stream the pseudo-BE algebras of the given size up to isomorphism.

    Only canonical representatives are emitted, in the deterministic order
    the search fills the table pair: cell by cell in row-major order, each
    cell taking one (arrow, squig) pair, arrow entry first.  Models thus
    increase in the sequence of per-cell (arrow, squig) pairs, which is not
    the lexicographic order of (arrow table, squig table).
    """
    if c.size > MAX_EXHAUSTIVE_SIZE:
        raise SizeGuardError(f"exhaustive search capped at n = {MAX_EXHAUSTIVE_SIZE}")
    n = c.size
    emitted = 0
    for ta, ts in _table_pairs(n, audit):
        if canonical_tables(ta, ts, 0) != (ta, ts):
            continue
        alg = FiniteAlgebra(_model_name(n, ta, ts), tuple(_TOKENS[:n]), ta, ts, 0)
        filtered = _passes_flags(alg, c.flags)
        if filtered is None:
            continue
        yield filtered
        emitted += 1
        if c.limit is not None and emitted >= c.limit:
            return


# ---------------------------------------------------------------------------
# meta-theorem sweep


@dataclass
class TheoremStat:
    checked: int = 0
    counterexamples: int = 0
    first_witness: Optional[str] = None


@dataclass
class MetaTheoremReport:
    max_size: int
    models: int = 0
    stats: dict[str, TheoremStat] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return all(s.counterexamples == 0 for s in self.stats.values())


class CounterexampleError(AssertionError):
    """A proved implication failed on a concrete model.

    By default this is treated as an implementation bug; pass
    ``allow_counterexamples`` to downgrade it to a report entry.
    """


def _check_model(a: FiniteAlgebra) -> dict[str, Optional[str]]:
    """Evaluate every swept implication on one model.

    Returns tag -> witness text (None = no counterexample).
    """
    rep = classify(a)
    family = enumerate_ds(a)
    results: dict[str, Optional[str]] = {}

    def fail(msg: str) -> str:
        return f"{msg}\n{serialize_algebra(a)}"

    results["bck-implies-two-implication-core"] = (
        None if (not rep.pseudo_bck or rep.pseudo_be) else fail("pseudo-BCK but not pseudo-BE")
    )
    results["commutative-implies-bck"] = (
        None if (not rep.commutative or rep.pseudo_bck) else fail("commutative but not pseudo-BCK")
    )
    results["finite-commutative-implies-single-implication"] = (
        None if (not rep.commutative or rep.be) else fail("commutative but arrow != squig")
    )

    p_holds = check_axioms(a, "P-system").holds
    q_holds = check_axioms(a, "Q-system").holds
    comm = rep.pseudo_be and rep.commutative
    results["p-system-iff-commutative"] = (
        None if p_holds == comm else fail(f"P-system={p_holds}, commutative={comm}")
    )
    results["q-system-iff-commutative"] = (
        None if q_holds == comm else fail(f"Q-system={q_holds}, commutative={comm}")
    )

    results["distributive-ds-all-normal"] = None
    if rep.distributive:
        for d in family.subsets:
            if d not in family.normal:
                results["distributive-ds-all-normal"] = fail(
                    f"non-normal DS {format_subset(a, d)}"
                )
                break

    results["commutative-ds-all-fantastic"] = None
    if rep.commutative:
        if set(family.subsets) != set(family.fantastic):
            results["commutative-ds-all-fantastic"] = fail("DS != fantastic DS")

    results["fantastic-upward-closed"] = None
    if rep.condition_a:
        for d in family.fantastic:
            for e in family.subsets:
                if d <= e and e not in family.fantastic:
                    results["fantastic-upward-closed"] = fail(
                        f"{format_subset(a, d)} fantastic but superset "
                        f"{format_subset(a, e)} is not"
                    )

    bounded = with_detected_bottom(a)
    results["fantastic-implies-involutive"] = None
    if bounded is not None:
        for d in family.fantastic:
            if not is_involutive_ds(bounded, d):
                results["fantastic-implies-involutive"] = fail(
                    f"fantastic DS {format_subset(a, d)} not involutive"
                )
                break

    space = state_space(a)
    results["state-kernels-fantastic"] = None
    results["bounded-state-kernels-involutive"] = None
    for vertex in space.vertices:
        ker = state_kernel(a, vertex)
        if ker not in family.fantastic:
            results["state-kernels-fantastic"] = fail(
                f"state kernel {format_subset(a, ker)} not fantastic"
            )
        if bounded is not None and vertex[bounded.bottom] == Fraction(0):
            if not is_involutive_ds(bounded, ker):
                results["bounded-state-kernels-involutive"] = fail(
                    f"state kernel {format_subset(a, ker)} not involutive"
                )

    results["measure-kernels-normal-fantastic"] = None
    for ray in measure_cone(a):
        ker = measure_kernel(a, ray)
        if not (ker in family.normal and ker in family.fantastic):
            results["measure-kernels-normal-fantastic"] = fail(
                f"measure kernel {format_subset(a, ker)} not normal+fantastic"
            )
            break

    rays = valuation_cone(a)
    results["pv-implies-weak-pv"] = None
    results["commutative-pv-all-commutative"] = None
    # the rays and their pairwise sums; r + r is a multiple of r
    candidates = list(rays)
    for r1, r2 in itertools.combinations(rays, 2):
        candidates.append(tuple(v1 + v2 for v1, v2 in zip(r1, r2)))
    for phi in candidates:
        if is_pseudo_valuation(a, phi) and not is_weak_pseudo_valuation(a, phi):
            results["pv-implies-weak-pv"] = fail("pv that is not a weak pv")
            break
    if rep.commutative:
        for phi in candidates:
            if is_pseudo_valuation(a, phi) and not is_commutative_pv(a, phi):
                results["commutative-pv-all-commutative"] = fail(
                    "non-commutative pv on a commutative algebra"
                )
                break

    results["linear-type2-states-are-smo"] = None
    results["linear-commutative-type1-states-are-smo"] = None
    if rep.linear:
        for mu in enumerate_internal_states(a, "II"):
            if not is_smo(a, mu):
                results["linear-type2-states-are-smo"] = fail(
                    f"type-II state {mu} is not an SMO"
                )
                break
        if rep.commutative:
            for mu in enumerate_internal_states(a, "I"):
                if not is_smo(a, mu):
                    results["linear-commutative-type1-states-are-smo"] = fail(
                        f"type-I state {mu} is not an SMO"
                    )
                    break

    return results


def verify_meta_theorems(
    n_max: int, allow_counterexamples: bool = False, workers: int = 1
) -> MetaTheoremReport:
    """Check every swept implication on every model of size <= n_max.

    Models are checked independently; results are merged in enumeration
    order, so the report does not depend on the worker count.
    """
    if n_max > 4:
        raise SizeGuardError("full sweep capped at n = 4")
    report = MetaTheoremReport(max_size=n_max)
    for n in range(1, n_max + 1):
        models = list(enumerate_models(SearchConstraints(size=n)))
        for outcome in pmap(_check_model, models, workers):
            report.models += 1
            for tag, witness in outcome.items():
                stat = report.stats.setdefault(tag, TheoremStat())
                stat.checked += 1
                if witness is not None:
                    stat.counterexamples += 1
                    if stat.first_witness is None:
                        stat.first_witness = witness
                    if not allow_counterexamples:
                        raise CounterexampleError(f"{tag}: {witness}")
    return report
