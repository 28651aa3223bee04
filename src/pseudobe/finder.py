"""Exhaustive enumeration of small two-implication algebras up to
isomorphism, plus the meta-theorem verification sweep.

A table pair is searched as a map from its free cells to (arrow, squig)
value pairs on ``homs.search_maps``; ``homs.scan_maps`` is the audit.  The
search is derived from the declared identities of ``algebra``: psBE1-3 fix
the unit rows and columns and the diagonal, psBE5 leaves each other cell
a domain of value pairs, the only pairs the search and its audit offer it
(the BE flag's identity narrows it to the equal pairs), and each instance
of the exchange identity and of the identities of the other flags (an
axiom system's, or linear's) is tested at a cell exactly when the assigned
prefix shows that it reads that cell (watched cells).
Isomorphic duplicates are rejected by a canonical form: the
lexicographically minimal table pair over all carrier permutations fixing
the unit.  Each leaf of the search, a labelled pair, is first confirmed
pseudo-BE and then kept only if no relabelling beats it, which the first
differing cell decides (``_is_canonical``); ``canonical_tables`` builds the
minimal pair whole and decides the audit's leaves.  The leaf test returns a
kept pair frozen into tuples, which the search streams; equal rows and
equal tables of the emitted models are one tuple each.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .algebra import (
    _FLAG_IDENTITIES,
    _SYSTEM_AXIOMS,
    FiniteAlgebra,
    _classify,
    _holds,
    _identity,
    _is_least,
    serialize_algebra,
)
from .dsystems import enumerate_ds, format_subset
from .homs import Map, SizeGuardError, scan_maps, search_maps
from .linalg import _shared_cones
from .parallel import pmap
from .operators import enumerate_internal_states, is_smo
from .states import measure_face, state_space
from .valuations import commutative_pv_witness, valuation_cone, weak_pv_witness

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

# the declarations by which each flag prunes the search: its axiom system's,
# or the identities of BE and linear.  Only proper and bounded are filtered:
# each asks that something exist (for proper a cell where arrow and squig
# differ, for bounded a least element), which no identity says.  Condition-A is
# declared, but it prunes little: its search at n = 6 did not finish in 300 s.
_FLAG_DECLARATIONS = {**_SYSTEM_AXIOMS, **_FLAG_IDENTITIES}


@dataclass(frozen=True)
class SearchConstraints:
    size: int
    flags: tuple[str, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be >= 0")
        for flag in self.flags:
            if flag not in STRUCTURE_FLAGS:
                raise ValueError(f"unknown constraint flag {flag!r}")


def detect_bottom(a: FiniteAlgebra) -> Optional[int]:
    """Index of a least element (0 -> x = 0 ~> x = 1 for all x), if any."""
    for b in range(a.size):
        if _is_least(a, b) and (b != a.unit or a.size == 1):
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
    carrier permutations fixing the unit.

    The audit oracle for ``_is_canonical``: the leaves of
    ``enumerate_models(audit=True)`` are decided with it, and so is the
    benchmark's check of the search.
    """
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


def _relabellings(n: int, unit: int) -> list[tuple[list[int], list]]:
    """The carrier permutations p fixing the unit, except the identity, each
    with its cells (i, j, p^-1(i), p^-1(j)) in row-major order."""
    identity = list(range(n))
    others = [i for i in identity if i != unit]
    out = []
    for perm_rest in itertools.permutations(others):
        p, inv = identity[:], identity[:]
        for src, dst in zip(others, perm_rest):
            p[src], inv[dst] = dst, src
        if p != identity:
            out.append((p, [(i, j, inv[i], inv[j]) for i in identity for j in identity]))
    return out


def _first_difference(table, p: list[int], cells) -> int:
    """Sign-carrying difference of ``table`` relabelled by ``p`` and ``table``
    at their first differing cell in ``cells``; 0 if they agree."""
    for i, j, pi, pj in cells:
        d = p[table[pi][pj]] - table[i][j]
        if d:
            return d
    return 0


def _is_canonical(arrow, squig, relabellings) -> bool:
    """``canonical_tables(arrow, squig, unit) == (arrow, squig)``, with the
    unit's ``_relabellings``: no relabelled pair is smaller in tuple order,
    arrow table first, and each comparison stops at the first differing cell."""
    return all(
        (_first_difference(arrow, p, cells) or _first_difference(squig, p, cells)) >= 0
        for p, cells in relabellings
    )


def _model_name(n: int, arrow, squig) -> str:
    blob = repr((n, arrow, squig)).encode()
    return f"n{n}_{hashlib.sha256(blob).hexdigest()[:12]}"


def _passes_flags(a: FiniteAlgebra, flags: tuple[str, ...]) -> Optional[FiniteAlgebra]:
    """Apply constraint flags to a model the search confirmed; may return a
    bounded copy for the 'bounded' flag."""
    if not flags:
        return a
    rep = _classify(a, ("pseudo-BE",))
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


def _table_pairs(c: SearchConstraints, audit: bool) -> Iterator[tuple[tuple, tuple]]:
    """Stream the pseudo-BE table pairs on ``c.size`` elements with unit 0.

    The search comes from the declarations of pseudo-BE and of the flags
    among ``c.flags`` that declare any (``_FLAG_DECLARATIONS``).  The
    instances that read one cell leave it its value pairs
    ``arrow * n + squig``: one fixes it (psBE1-3), more make it free (psBE5,
    and BE's identity).  A table pair is a map from the free cells, in
    row-major order, to value pairs on ``homs.search_maps``, each cell
    offered only its own pairs in increasing order.  Any other instance is
    tested at cell k when the assigned prefix shows it reads cell k
    (``readers``): its verdict can change only there, and the first read of
    the cell has an address computed without the cell's value.  It is
    watched at its last atomic read, where it always reads the cell, and at
    each later cell whose row one of its computed indices (psBE4) may be.
    The whole search works on one padded table pair, which ``assign``
    writes a map onto.  The siblings of a prefix share one assignment of it
    and the instances that read their cell; each test stops at the first
    violating tuple.  ``audit=True`` scans every map of the same domains
    with ``homs.scan_maps``: 10^6 maps at n = 4, and beyond
    ``SEARCH_GUARD`` at n = 5.

    At each leaf, a complete labelled pair, ``accept`` assigns it, in the
    search and in the audit alike, trims the working pair to the exact
    n x n tables, confirms pseudo-BE with
    ``algebra._holds`` (the pseudo-BE scans of ``check_axioms``) and then
    decides canonicity on the same lists: ``_is_canonical`` in the search,
    ``canonical_tables`` in the audit.  It returns a canonical pair frozen
    (``_freeze``), which the search streams, and None for any other leaf;
    equal rows and equal tables of the streamed pairs are one tuple object.
    Flags are filtered by ``enumerate_models``.
    """
    n, u = c.size, 0
    rng = range(n)
    # the one working pair: an unassigned entry holds n, and so does every
    # read through one, since the tables have a padding row and column of n
    arrow = [[n] * (n + 1) for _ in range(n + 1)]
    squig = [row[:] for row in arrow]
    declared = (
        d for s in ("pseudo-BE", *c.flags) for d in _FLAG_DECLARATIONS.get(s, {}).values()
    )
    # the instances that read one cell only, by cell and identity
    single = collections.defaultdict(lambda: collections.defaultdict(list))
    instances = []
    for variables, indices, violations, readers in map(_identity, dict.fromkeys(declared)):
        for t in itertools.product(rng, repeat=len(variables)):
            env = {None: None, "u": u, **dict(zip(variables, t))}
            reads = [(env[row], env[col]) for row, col in indices]
            cell = reads[0]
            if set(reads) != {cell} or None in cell:
                instances.append((violations, readers, t, reads))
            else:
                single[cell][violations].append(t)
    pairs = {cell: set(range(n * n)) for cell in itertools.product(rng, rng)}
    # the probe runs on the pair while it is still all unassigned; each cell
    # is set in place and reset
    for (x, y), tests in single.items():
        for p in range(n * n):
            arrow[x][y], squig[x][y] = divmod(p, n)
            if any(any(violations(arrow, squig, u, n, ts)) for violations, ts in tests.items()):
                pairs[x, y].discard(p)
        arrow[x][y] = squig[x][y] = n
    for (x, y), ps in pairs.items():
        if len(ps) == 1:
            arrow[x][y], squig[x][y] = divmod(*ps, n)
    free = [cell for cell, ps in pairs.items() if len(ps) != 1]
    order = {cell: k for k, cell in enumerate(free)}
    # tested at cell k once the prefix shows it reads cell k: watched at its
    # last atomic read, and later where it may read cell k at a computed index
    watched = [collections.defaultdict(list) for _ in free]
    for violations, readers, t, reads in instances:
        last = max((order.get(cell, -1) for cell in reads if None not in cell), default=-1)
        rows = {row for row, col in reads if None in (row, col)}
        for k in range(max(last, 0), len(free)):
            if k == last or free[k][0] in rows or None in rows:
                watched[k][violations, readers].append(t)

    # f onto the free cells in row-major order; the later free cells unassigned
    def assign(f: Map) -> None:
        for (x, y), p in zip(free, f):
            arrow[x][y], squig[x][y] = divmod(p, n)
        for x, y in free[len(f) :]:
            arrow[x][y] = squig[x][y] = n

    # the prefix last checked and the instances that read its next cell there:
    # search_maps checks all children of a node in a row, so a prefix is never
    # checked again after other nodes have run and its siblings can share it
    cached: list = [None, None]

    def check(f: Map, k: int) -> bool:
        x, y = free[k]
        if cached[0] != f[:k]:
            assign(f[:k])
            reading = [
                (violations, ts)
                for (violations, readers), candidates in watched[k].items()
                if (ts := readers(arrow, squig, u, n, candidates, x, y))
            ]
            cached[:] = f[:k], reading
        arrow[x][y], squig[x][y] = divmod(f[k], n)
        for violations, ts in cached[1]:
            for _ in violations(arrow, squig, u, n, ts):
                return False
        return True

    relabellings = _relabellings(n, u)
    # equal rows and equal tables of the streamed pairs are one tuple each
    interned: dict[tuple, tuple] = {}

    def accept(f: Map) -> Optional[tuple[tuple, tuple]]:
        assign(f)
        leaf = [[row[:n] for row in table[:n]] for table in (arrow, squig)]
        if not _holds(*leaf, u, "pseudo-BE"):
            return None
        if audit:
            canonical = canonical_tables(*leaf, u) == _freeze(*leaf, {})
        else:
            canonical = _is_canonical(*leaf, relabellings)
        return _freeze(*leaf, interned) if canonical else None

    domains = [sorted(pairs[cell]) for cell in free]
    return scan_maps(domains, accept) if audit else search_maps(domains, check, accept)


def _freeze(arrow: list, squig: list, interned: dict) -> tuple[tuple, tuple]:
    """The table pair as tuples of row tuples; a row or table equal to one in
    ``interned`` is that object, and each new one is entered."""
    out = []
    for table in (arrow, squig):
        t = tuple(interned.setdefault(r, r) for r in map(tuple, table))
        out.append(interned.setdefault(t, t))
    return out[0], out[1]


def enumerate_models(
    c: SearchConstraints, audit: bool = False
) -> Iterator[FiniteAlgebra]:
    """Stream the pseudo-BE algebras of the given size up to isomorphism.

    Only canonical representatives are emitted, in the deterministic order
    the search fills the table pair: cell by cell in row-major order, each
    cell taking one (arrow, squig) pair, arrow entry first.  Models thus
    increase in the sequence of per-cell (arrow, squig) pairs, which is not
    the lexicographic order of (arrow table, squig table).  Canonicity is
    decided at the search's leaves (``_table_pairs``); only the flags are
    filtered here.
    """
    if c.size > MAX_EXHAUSTIVE_SIZE:
        raise SizeGuardError(f"exhaustive search capped at n = {MAX_EXHAUSTIVE_SIZE}")
    n = c.size
    elements = tuple(_TOKENS[:n])
    canonical = (
        FiniteAlgebra(_model_name(n, *t), elements, *t, 0) for t in _table_pairs(c, audit)
    )
    models = (m for m in (_passes_flags(alg, c.flags) for alg in canonical) if m is not None)
    # islice stops before searching past the limit-th model
    yield from itertools.islice(models, c.limit)


# ---------------------------------------------------------------------------
# meta-theorem sweep


@dataclass
class TheoremStat:
    checked: int = 0
    counterexamples: int = 0
    first_witness: Optional[str] = None


@dataclass
class MetaTheoremReport:
    models: int = 0
    stats: dict[str, TheoremStat] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return all(s.counterexamples == 0 for s in self.stats.values())


def _when(premise: bool, message: str) -> tuple[str, ...]:
    """The counterexample stream of a claim that one test decides."""
    return (message,) if premise else ()


def _check_model(a: FiniteAlgebra) -> dict[str, Optional[str]]:
    """Evaluate every swept implication on one model the search emitted.

    Each claim is a lazy stream of counterexample messages, empty when it
    holds; its witness is the first message followed by the serialized
    model.  Returns tag -> witness text (None = no counterexample).

    The pseudo-valuation, weak and commutative conditions are linear in
    phi, so the claims about every pseudo-valuation are decided on the
    extreme rays of the valuation cone, each already verified as a pv.
    """
    rep = _classify(a, ("pseudo-BE",))
    bounded = with_detected_bottom(a)
    # the bounded copy has the same deductive systems and tags them involutive
    family = enumerate_ds(bounded or a)
    fantastic = set(family.fantastic)
    comm = rep.pseudo_be and rep.commutative
    # the cone engine checks every ray in integers (linalg._check); a state
    # ray is (s(0) t, ..., s(n-1) t, t), so the kernels s^-1(1) and m^-1(0)
    # are read straight off the integer rays; the measure rays are the pv
    # rays on the measure face, since the model is pseudo-BE
    # (states.measure_face)
    carrier = range(a.size)
    states = [(r, frozenset(x for x in carrier if r[x] == r[-1])) for r in state_space(a).rays]
    rays = valuation_cone(a)
    measure_kernels = [frozenset(x for x in carrier if r[x] == 0) for r in measure_face(a, rays)]

    def show(d) -> str:
        return format_subset(a, d)

    claims = {
        "bck-implies-two-implication-core": _when(
            rep.pseudo_bck and not rep.pseudo_be, "pseudo-BCK but not pseudo-BE"
        ),
        "commutative-implies-bck": _when(
            rep.commutative and not rep.pseudo_bck, "commutative but not pseudo-BCK"
        ),
        "finite-commutative-implies-single-implication": _when(
            rep.commutative and not rep.be, "commutative but arrow != squig"
        ),
        "p-system-iff-commutative": _when(
            rep.p_system != comm, f"P-system={rep.p_system}, commutative={comm}"
        ),
        "q-system-iff-commutative": _when(
            rep.q_system != comm, f"Q-system={rep.q_system}, commutative={comm}"
        ),
        "distributive-ds-all-normal": (
            f"non-normal DS {show(d)}"
            for d in family.subsets
            if rep.distributive and d not in family.normal
        ),
        "commutative-ds-all-fantastic": _when(
            rep.commutative and set(family.subsets) != fantastic, "DS != fantastic DS"
        ),
        "fantastic-upward-closed": (
            f"{show(d)} fantastic but superset {show(e)} is not"
            for d in family.fantastic
            if rep.condition_a
            for e in family.subsets
            if d <= e and e not in fantastic
        ),
        "fantastic-implies-involutive": (
            f"fantastic DS {show(d)} not involutive"
            for d in family.fantastic
            if bounded is not None and d not in family.involutive
        ),
        "state-kernels-fantastic": (
            f"state kernel {show(k)} not fantastic" for _, k in states if k not in fantastic
        ),
        "bounded-state-kernels-involutive": (
            f"state kernel {show(k)} not involutive"
            for r, k in states
            if bounded is not None and r[bounded.bottom] == 0 and k not in family.involutive
        ),
        "measure-kernels-normal-fantastic": (
            f"measure kernel {show(k)} not normal+fantastic"
            for k in measure_kernels
            if k not in family.normal or k not in fantastic
        ),
        "pv-implies-weak-pv": (
            "pv that is not a weak pv"
            for phi in rays
            if weak_pv_witness(a, phi) is not None
        ),
        "commutative-pv-all-commutative": (
            "non-commutative pv on a commutative algebra"
            for phi in rays
            if rep.commutative and commutative_pv_witness(a, phi) is not None
        ),
        # the internal-state searches run only where the premise holds
        "linear-type2-states-are-smo": (
            f"type-II state {mu} is not an SMO"
            for mu in (enumerate_internal_states(a, "II") if rep.linear else ())
            if not is_smo(a, mu)
        ),
        "linear-commutative-type1-states-are-smo": (
            f"type-I state {mu} is not an SMO"
            for mu in (
                enumerate_internal_states(a, "I") if rep.linear and rep.commutative else ()
            )
            if not is_smo(a, mu)
        ),
    }
    return {
        tag: next((f"{m}\n{serialize_algebra(a)}" for m in messages), None)
        for tag, messages in claims.items()
    }


def verify_meta_theorems(n_max: int) -> MetaTheoremReport:
    """Check every swept implication on every model of size <= n_max.

    The sweep always runs to the end: each tag counts its counterexamples
    and keeps the witness of the first one.  Models are checked
    independently; results are merged in enumeration order.  Models whose
    cones have the same inequality rows and the same row space of equality
    rows (a model and its swap among them) share one engine run for the
    sweep's length (``linalg._shared_cones``); each model still checks the
    shared rays against its own rows and tables.
    """
    if n_max < 1:
        raise ValueError("max size must be >= 1")
    if n_max > 4:
        raise SizeGuardError("full sweep capped at n = 4")
    report = MetaTheoremReport()
    with _shared_cones():
        for n in range(1, n_max + 1):
            models = list(enumerate_models(SearchConstraints(size=n)))
            for outcome in pmap(_check_model, models):
                report.models += 1
                for tag, witness in outcome.items():
                    stat = report.stats.setdefault(tag, TheoremStat())
                    stat.checked += 1
                    if witness is not None:
                        stat.counterexamples += 1
                        if stat.first_witness is None:
                            stat.first_witness = witness
    return report
