"""Finite two-implication algebras: representation, parsing, axiom checks.

An algebra is a finite carrier with two binary operation tables (``arrow``
and ``squig``), a unit constant, and an optional bottom constant.  All
axiom systems are decided by exhaustive evaluation over element tuples;
witnesses are reported in lexicographic order so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .linalg import ConsistencyAlarmError

# subsets, assignment lines and map lines split on these, so no element
# token may contain one ("|" stays legal: quotient tokens look like 1|a|d)
_SEPARATORS = (",", "{", "}", "=", "->")


class AlgebraError(ValueError):
    """Malformed algebra input."""


class InconsistentOrderError(ValueError):
    """arrow and squig disagree about whether x <= y."""


class UnboundedAlgebraError(ValueError):
    """Operation requires a bottom element but the algebra declares none."""


@dataclass(frozen=True)
class FiniteAlgebra:
    """Carrier of n named elements with two n x n operation tables.

    ``arrow[x][y]`` holds the index of x -> y, ``squig[x][y]`` of x ~> y.
    """

    name: str
    elements: tuple[str, ...]
    arrow: tuple[tuple[int, ...], ...]
    squig: tuple[tuple[int, ...], ...]
    unit: int
    bottom: Optional[int] = None

    def __post_init__(self):
        n = len(self.elements)
        if n == 0:
            raise AlgebraError("empty carrier")
        if len(set(self.elements)) != n:
            raise AlgebraError("duplicate element token")
        for tok in self.elements:
            # the file format splits lines on whitespace and cuts them at "#"
            if "#" in tok or tok.split() != [tok]:
                raise AlgebraError(
                    f"element token {tok!r} is empty or contains whitespace or '#'"
                )
            for sep in _SEPARATORS:
                if sep in tok:
                    raise AlgebraError(
                        f"element token {tok!r} contains {sep!r}, a separator of subsets, "
                        "assignments and maps"
                    )
        for table, label in ((self.arrow, "arrow"), (self.squig, "squig")):
            if len(table) != n:
                raise AlgebraError(f"{label} table: row count mismatch")
            for row in table:
                if len(row) != n:
                    raise AlgebraError(f"{label} table: row length mismatch")
                for v in row:
                    if not 0 <= v < n:
                        raise AlgebraError(f"{label} table: entry out of range")
        if not 0 <= self.unit < n:
            raise AlgebraError("unit out of range")
        if self.bottom is not None and not 0 <= self.bottom < n:
            raise AlgebraError("bottom out of range")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, token: str) -> int:
        try:
            return self.elements.index(token)
        except ValueError:
            raise AlgebraError(f"unknown element token {token!r}") from None

    def token(self, x: int) -> str:
        return self.elements[x]

    def is_be(self) -> bool:
        """arrow and squig coincide everywhere."""
        return self.arrow == self.squig


def leq(a: FiniteAlgebra, x: int, y: int) -> bool:
    """x <= y iff x -> y = 1 iff x ~> y = 1.

    Raises if the two definitions disagree (the table then violates the
    iff axiom tying them together, and order-based results would be
    meaningless).
    """
    by_arrow = a.arrow[x][y] == a.unit
    by_squig = a.squig[x][y] == a.unit
    if by_arrow != by_squig:
        raise InconsistentOrderError(
            f"{a.token(x)} <= {a.token(y)}: arrow says {by_arrow}, squig says {by_squig}"
        )
    return by_arrow


def _le_arrow(a: FiniteAlgebra, x: int, y: int) -> bool:
    # internal preorder test used inside axiom checks, where tables may
    # not yet be known to be consistent
    return a.arrow[x][y] == a.unit


def vee1(a: FiniteAlgebra, x: int, y: int) -> int:
    """x v1 y = (x -> y) ~> y"""
    return a.squig[a.arrow[x][y]][y]


def vee2(a: FiniteAlgebra, x: int, y: int) -> int:
    """x v2 y = (x ~> y) -> y"""
    return a.arrow[a.squig[x][y]][y]


def negations(a: FiniteAlgebra, x: int) -> tuple[int, int]:
    """(x -> 0, x ~> 0) for a bounded algebra."""
    if a.bottom is None:
        raise UnboundedAlgebraError(f"algebra {a.name!r} has no bottom")
    return a.arrow[x][a.bottom], a.squig[x][a.bottom]


def _double_negations(a: FiniteAlgebra, x: int) -> tuple[int, int]:
    """(x^{-~}, x^{~-}) = ((x -> 0) ~> 0, (x ~> 0) -> 0) for a bounded algebra."""
    neg, sneg = negations(a, x)
    return a.squig[neg][a.bottom], a.arrow[sneg][a.bottom]


def _is_least(a: FiniteAlgebra, b: int) -> bool:
    """b -> x = b ~> x = 1 for every x."""
    return all(a.arrow[b][x] == a.unit and a.squig[b][x] == a.unit for x in range(a.size))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking one axiom system.

    ``violations`` holds the lexicographically first witness tuple per
    failing axiom tag; ``total`` counts all violating tuples.
    """

    system: str
    holds: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]
    total: int

    def __post_init__(self):
        if self.holds != (not self.violations):
            raise ConsistencyAlarmError("AxiomReport: holds disagrees with violations")


# Each axiom: (tag, arity, predicate(algebra, *tuple) -> bool).  An identity
# that several systems share is one function, listed under each tag.
Axiom = tuple[str, int, Callable]


def _unit_right(A: FiniteAlgebra, x: int) -> bool:
    """x -> 1 = 1 and x ~> 1 = 1"""
    u = A.unit
    return A.arrow[x][u] == u and A.squig[x][u] == u


def _unit_left(A: FiniteAlgebra, x: int) -> bool:
    """1 -> x = x and 1 ~> x = x"""
    u = A.unit
    return A.arrow[u][x] == x and A.squig[u][x] == x


def _exchange(A: FiniteAlgebra, x: int, y: int, z: int) -> bool:
    """x -> (y ~> z) = y ~> (x -> z)"""
    return A.arrow[x][A.squig[y][z]] == A.squig[y][A.arrow[x][z]]


def _same_order(A: FiniteAlgebra, x: int, y: int) -> bool:
    """x -> y = 1 iff x ~> y = 1"""
    u = A.unit
    return (A.arrow[x][y] == u) == (A.squig[x][y] == u)


def _swap_law(A: FiniteAlgebra, x: int, y: int, z: int) -> bool:
    """(x -> z) ~> (y -> z) = (z -> x) ~> (y -> x), and dually"""
    return (
        A.squig[A.arrow[x][z]][A.arrow[y][z]] == A.squig[A.arrow[z][x]][A.arrow[y][x]]
        and A.arrow[A.squig[x][z]][A.squig[y][z]]
        == A.arrow[A.squig[z][x]][A.squig[y][x]]
    )


def _antitone(A: FiniteAlgebra, x: int, y: int, z: int) -> bool:
    """x <= y implies y -> z <= x -> z and y ~> z <= x ~> z"""
    if not _le_arrow(A, x, y):
        return True
    u = A.unit
    return (
        A.arrow[A.arrow[y][z]][A.arrow[x][z]] == u
        and A.arrow[A.squig[y][z]][A.squig[x][z]] == u
    )


_SYSTEM_AXIOMS: dict[str, list[Axiom]] = {
    "pseudo-BE": [
        ("psBE1", 1, lambda A, x: A.arrow[x][x] == A.unit and A.squig[x][x] == A.unit),
        ("psBE2", 1, _unit_right),
        ("psBE3", 1, _unit_left),
        ("psBE4", 3, _exchange),
        ("psBE5", 2, _same_order),
    ],
    "pseudo-BCK": [
        (
            "psBCK1",
            3,
            lambda A, x, y, z: A.squig[A.arrow[x][y]][
                A.squig[A.arrow[y][z]][A.arrow[x][z]]
            ]
            == A.unit,
        ),
        (
            "psBCK2",
            3,
            lambda A, x, y, z: A.arrow[A.squig[x][y]][
                A.arrow[A.squig[y][z]][A.squig[x][z]]
            ]
            == A.unit,
        ),
        ("psBCK3", 1, lambda A, x: A.arrow[A.unit][x] == x),
        ("psBCK4", 1, lambda A, x: A.squig[A.unit][x] == x),
        ("psBCK5", 1, lambda A, x: A.arrow[x][A.unit] == A.unit),
        (
            "psBCK6",
            2,
            lambda A, x, y: not (
                A.arrow[x][y] == A.unit and A.arrow[y][x] == A.unit and x != y
            ),
        ),
    ],
    "condition-A": [("A", 3, _antitone)],
    "distributive": [
        (
            "dist",
            3,
            lambda A, x, y, z: A.arrow[x][A.squig[y][z]]
            == A.squig[A.arrow[x][y]][A.arrow[x][z]],
        )
    ],
    "commutative": [
        ("comm1", 2, lambda A, x, y: vee1(A, x, y) == vee1(A, y, x)),
        ("comm2", 2, lambda A, x, y: vee2(A, x, y) == vee2(A, y, x)),
    ],
    "P-system": [
        ("P1", 1, _unit_left),
        ("P2", 1, _unit_right),
        ("P3", 3, _swap_law),
        ("P4", 3, _exchange),
        ("P5", 2, _same_order),
    ],
    "Q-system": [
        (
            "Q1",
            2,
            lambda A, x, y: A.squig[A.arrow[x][A.unit]][y] == y
            and A.arrow[A.squig[x][A.unit]][y] == y,
        ),
        ("Q2", 3, _swap_law),
        ("Q3", 3, _exchange),
        ("Q4", 2, _same_order),
    ],
}


AXIOM_SYSTEMS = tuple(_SYSTEM_AXIOMS)


def check_axioms(a: FiniteAlgebra, system: str) -> AxiomReport:
    """Exhaustively evaluate every axiom of ``system`` over all tuples.

    Reports the lexicographically first violating tuple per axiom tag,
    plus the total violation count.
    """
    if system not in _SYSTEM_AXIOMS:
        raise ValueError(f"unknown axiom system {system!r}")
    axioms = _SYSTEM_AXIOMS[system]
    first: dict[str, tuple[int, ...]] = {}
    total = 0
    rng = range(a.size)
    for tag, arity, pred in axioms:
        for tup in _tuples(rng, arity):
            if not pred(a, *tup):
                total += 1
                if tag not in first:
                    first[tag] = tup
    violations = tuple(sorted(first.items()))
    return AxiomReport(system, not violations, violations, total)


def _tuples(rng: range, arity: int) -> Iterator[tuple[int, ...]]:
    if arity == 1:
        return ((x,) for x in rng)
    if arity == 2:
        return ((x, y) for x in rng for y in rng)
    return ((x, y, z) for x in rng for y in rng for z in rng)


@dataclass(frozen=True)
class ClassificationReport:
    """Structural flags of an algebra; reg/den only when bounded."""

    pseudo_be: bool
    pseudo_bck: bool
    be: bool
    proper: bool
    condition_a: bool
    distributive: bool
    commutative: bool
    bounded: bool
    linear: bool
    good: Optional[bool] = None
    involutive: Optional[bool] = None
    regular_elements: Optional[frozenset[int]] = None
    dense_elements: Optional[frozenset[int]] = None


def classify(a: FiniteAlgebra) -> ClassificationReport:
    """Run every axiom system plus derived structural flags."""
    pseudo_be = check_axioms(a, "pseudo-BE").holds
    pseudo_bck = check_axioms(a, "pseudo-BCK").holds
    condition_a = check_axioms(a, "condition-A").holds
    distributive = check_axioms(a, "distributive").holds
    commutative = check_axioms(a, "commutative").holds
    be = a.is_be()
    proper = pseudo_be and not be

    # linear: the derived preorder is total and antisymmetric
    linear = True
    for x in range(a.size):
        for y in range(a.size):
            lx = _le_arrow(a, x, y)
            ly = _le_arrow(a, y, x)
            if not (lx or ly):
                linear = False
            if lx and ly and x != y:
                linear = False

    bounded = a.bottom is not None
    good = involutive = None
    reg = den = None
    if bounded:
        if not _is_least(a, a.bottom):
            raise AlgebraError(
                f"declared bottom {a.token(a.bottom)!r} is not a least element"
            )
        dneg = [_double_negations(a, x) for x in range(a.size)]
        reg = frozenset(x for x in range(a.size) if dneg[x] == (x, x))
        den = frozenset(x for x in range(a.size) if dneg[x] == (a.unit, a.unit))
        good = all(d1 == d2 for d1, d2 in dneg)
        involutive = len(reg) == a.size

    return ClassificationReport(
        pseudo_be=pseudo_be,
        pseudo_bck=pseudo_bck,
        be=be,
        proper=proper,
        condition_a=condition_a,
        distributive=distributive,
        commutative=commutative,
        bounded=bounded,
        linear=linear,
        good=good,
        involutive=involutive,
        regular_elements=reg,
        dense_elements=den,
    )


# ---------------------------------------------------------------------------
# file format


def content_lines(text: str) -> list[str]:
    """The non-blank lines of ``text``, stripped, with ``#`` comments removed;
    the line reader of every file format."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse the line-based algebra file format.

    Layout::

        algebra <name>
        elements <tok1> ... <tokN>
        unit <tok>
        bottom <tok>          # optional
        table arrow
        <N rows of N tokens>
        table squig
        <N rows of N tokens>
        end
    """
    lines = content_lines(text)
    pos = 0

    def next_line() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise AlgebraError("unexpected end of input")
        line = lines[pos]
        pos += 1
        return line

    def expect(keyword: str) -> list[str]:
        line = next_line()
        parts = line.split()
        if parts[0] != keyword:
            raise AlgebraError(f"expected {keyword!r}, got {parts[0]!r}")
        return parts[1:]

    name_parts = expect("algebra")
    if len(name_parts) != 1:
        raise AlgebraError("algebra line needs exactly one name token")
    name = name_parts[0]

    elements = expect("elements")
    if not elements:
        raise AlgebraError("missing required section: elements")
    if len(set(elements)) != len(elements):
        raise AlgebraError("duplicate element token")
    n = len(elements)
    index = {tok: i for i, tok in enumerate(elements)}

    unit_parts = expect("unit")
    if len(unit_parts) != 1:
        raise AlgebraError("unit line needs exactly one token")
    if unit_parts[0] not in index:
        raise AlgebraError(f"unknown token in unit: {unit_parts[0]!r}")
    unit = index[unit_parts[0]]

    bottom = None
    if pos < len(lines) and lines[pos].split()[0] == "bottom":
        bottom_parts = expect("bottom")
        if len(bottom_parts) != 1:
            raise AlgebraError("bottom line needs exactly one token")
        if bottom_parts[0] not in index:
            raise AlgebraError(f"unknown token in bottom: {bottom_parts[0]!r}")
        bottom = index[bottom_parts[0]]

    tables = {}
    for expected in ("arrow", "squig"):
        header = expect("table")
        if header != [expected]:
            raise AlgebraError(f"missing required section: table {expected}")
        rows = []
        for _ in range(n):
            toks = next_line().split()
            if len(toks) != n:
                raise AlgebraError("row length mismatch")
            row = []
            for t in toks:
                if t not in index:
                    raise AlgebraError(f"unknown token in table: {t!r}")
                row.append(index[t])
            rows.append(tuple(row))
        tables[expected] = tuple(rows)

    if next_line() != "end":
        raise AlgebraError("missing required section: end")
    if pos < len(lines):
        raise AlgebraError(f"text after end: {lines[pos]!r}")

    return FiniteAlgebra(name, tuple(elements), tables["arrow"], tables["squig"], unit, bottom)


def serialize_algebra(a: FiniteAlgebra) -> str:
    """Inverse of :func:`parse_algebra` (round-trips exactly)."""
    out = [f"algebra {a.name}", "elements " + " ".join(a.elements), f"unit {a.token(a.unit)}"]
    if a.bottom is not None:
        out.append(f"bottom {a.token(a.bottom)}")
    for label, table in (("arrow", a.arrow), ("squig", a.squig)):
        out.append(f"table {label}")
        for row in table:
            out.append(" ".join(a.token(v) for v in row))
    out.append("end")
    return "\n".join(out) + "\n"


def format_map(a: FiniteAlgebra, b: FiniteAlgebra, m: tuple[int, ...], keyword: str) -> str:
    """One ``<keyword> x->y`` line per element x of A, in carrier order."""
    return "\n".join(f"{keyword} {a.token(x)}->{b.token(y)}" for x, y in enumerate(m))


def parse_map(a: FiniteAlgebra, b: FiniteAlgebra, text: str, keyword: str) -> tuple[int, ...]:
    """A map A -> B written as one ``<keyword> x->y`` line per element of A."""
    mapping: dict[int, int] = {}
    for line in content_lines(text):
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword or "->" not in parts[1]:
            raise ValueError(f"bad {keyword} line: {line!r}")
        src, tgt = parts[1].split("->", 1)
        x = a.index(src)
        if x in mapping:
            raise ValueError(f"{keyword} line for {src!r} given twice")
        mapping[x] = b.index(tgt)
    if len(mapping) != a.size:
        raise ValueError(f"{keyword} file does not cover the whole source carrier")
    return tuple(mapping[x] for x in range(a.size))
