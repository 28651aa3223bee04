"""Finite two-implication algebras: representation, parsing, axiom checks.

An algebra is a finite carrier with two binary operation tables (``arrow``
and ``squig``), a unit constant, and an optional bottom constant.  Each
axiom is declared once, as an identity in the paper's notation, and
compiled on first use into a scan over element tuples; every axiom system
is decided by that exhaustive scan, and witnesses are reported in
lexicographic order so output is deterministic.  The model finder derives
its fixed cells and search propagator from the same declarations.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

# subsets, assignment lines and map lines split on these, so no element
# token may contain one ("|" stays legal: quotient tokens look like 1|a|d)
_SEPARATORS = (",", "{", "}", "=", "->")


class AlgebraError(ValueError):
    """Malformed algebra input."""


class InconsistentOrderError(ValueError):
    """arrow and squig disagree about whether x <= y."""


class UnboundedAlgebraError(ValueError):
    """Operation requires a bottom element but the algebra declares none."""


@dataclass(frozen=True, slots=True)
class FiniteAlgebra:
    """Carrier of n named elements with two n x n operation tables.

    ``arrow[x][y]`` holds the index of x -> y, ``squig[x][y]`` of x ~> y.
    Slotted: the model finder streams thousands of them.
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


# A failed check's tag and tuple.  Every witness function scans its tuples
# in lexicographic order and, at each tuple, the -> condition before its ~>
# twin, so the witness is the first failure in that order.
Witness = tuple[str, tuple[int, ...]]


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


def vee1(a: FiniteAlgebra, x: int, y: int) -> int:
    """x v1 y = (x -> y) ~> y"""
    return a.squig[a.arrow[x][y]][y]


def vee2(a: FiniteAlgebra, x: int, y: int) -> int:
    """x v2 y = (x ~> y) -> y"""
    return a.arrow[a.squig[x][y]][y]


def _require_bottom(a: FiniteAlgebra) -> int:
    """The bottom of ``a``; raises if it declares none."""
    if a.bottom is None:
        raise UnboundedAlgebraError(f"algebra {a.name!r} has no bottom")
    return a.bottom


def negations(a: FiniteAlgebra, x: int) -> tuple[int, int]:
    """(x -> 0, x ~> 0) for a bounded algebra."""
    bottom = _require_bottom(a)
    return a.arrow[x][bottom], a.squig[x][bottom]


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
    violations: tuple[tuple[str, tuple[int, ...]], ...]
    total: int

    @property
    def holds(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# axioms, each declared once in the paper's notation: an identity over x, y,
# z and the unit 1, whose terms join two atoms or parenthesized terms by ->,
# ~>, v1 or v2, and whose formula is a conjunction (&) of equations t = s,
# optionally followed by => or <=> and a second conjunction.  The conclusion
# of a plain or => formula may instead be a disjunction (|) of equations.
# An identity that several systems share is declared once.  ``_identity``
# compiles each once per process, on first use, for ``check_axioms``,
# ``_holds`` and the model finder's fixed cells, propagator and watched cells.

_UNIT_RIGHT = "x -> 1 = 1 & x ~> 1 = 1"
_UNIT_LEFT = "1 -> x = x & 1 ~> x = x"
_EXCHANGE = "x -> (y ~> z) = y ~> (x -> z)"
_SAME_ORDER = "x -> y = 1 <=> x ~> y = 1"
_SWAP_LAW = (
    "(x -> z) ~> (y -> z) = (z -> x) ~> (y -> x) & (x ~> z) -> (y ~> z) = (z ~> x) -> (y ~> x)"
)
_ANTISYMMETRY = "x -> y = 1 & y -> x = 1 => x = y"

_SYSTEM_AXIOMS: dict[str, dict[str, str]] = {
    "pseudo-BE": dict(
        psBE1="x -> x = 1 & x ~> x = 1",
        psBE2=_UNIT_RIGHT, psBE3=_UNIT_LEFT, psBE4=_EXCHANGE, psBE5=_SAME_ORDER,
    ),
    "pseudo-BCK": dict(
        psBCK1="(x -> y) ~> ((y -> z) ~> (x -> z)) = 1",
        psBCK2="(x ~> y) -> ((y ~> z) -> (x ~> z)) = 1",
        psBCK3="1 -> x = x",
        psBCK4="1 ~> x = x",
        psBCK5="x -> 1 = 1",
        psBCK6=_ANTISYMMETRY,
    ),
    "condition-A": dict(A="x -> y = 1 => (y -> z) -> (x -> z) = 1 & (y ~> z) -> (x ~> z) = 1"),
    "distributive": dict(dist="x -> (y ~> z) = (x -> y) ~> (x -> z)"),
    "commutative": dict(comm1="x v1 y = y v1 x", comm2="x v2 y = y v2 x"),
    "P-system": dict(P1=_UNIT_LEFT, P2=_UNIT_RIGHT, P3=_SWAP_LAW, P4=_EXCHANGE, P5=_SAME_ORDER),
    "Q-system": dict(
        Q1="(x -> 1) ~> y = y & (x ~> 1) -> y = y", Q2=_SWAP_LAW, Q3=_EXCHANGE, Q4=_SAME_ORDER
    ),
}

AXIOM_SYSTEMS = tuple(_SYSTEM_AXIOMS)

# the structural flags that are identities but no axiom system of
# ``check_axioms``: BE, whose two implications coincide, and linear, whose
# order is total and antisymmetric; ``classify`` decides them with
# ``_holds``, and the model finder prunes by them as by a system's axioms
_FLAG_IDENTITIES: dict[str, dict[str, str]] = {
    "BE": dict(BE="x -> y = x ~> y"),
    "linear": dict(total="x -> y = 1 | y -> x = 1", antisymmetric=_ANTISYMMETRY),
}

_ATOMS = {"x": "x", "y": "y", "z": "z", "1": "u"}
# the tables A (->) and S (~>) an operator reads, innermost first:
# x v1 y = (x -> y) ~> y and x v2 y = (x ~> y) -> y
_OPERATORS = {"->": "A", "~>": "S", "v1": "AS", "v2": "SA"}


def _violation(premise, kind, conclusion, disjunctive: bool) -> str:
    """The condition under which one tuple violates the formula (a plain
    formula has an empty premise).  A conjunctive conclusion is broken when
    one of its equations fails, a disjunctive one when all of them do.  An
    entry n is unassigned: only a violation that the assigned entries decide
    counts."""

    def side(equations, form: str, join: str) -> str:
        return "(" + (join.join(form.format(*e) for e in equations) or "True") + ")"

    eq, ne = "{} == {} != n", "n != {} != {} != n"
    fails = side(conclusion, ne, " and " if disjunctive else " or ")
    broken = f"{side(premise, eq, ' and ')} and {fails}"
    if kind == "<=>":
        broken += f" or {side(premise, ne, ' or ')} and {side(conclusion, eq, ' and ')}"
    return broken


@functools.cache
def _identity(text: str) -> tuple[str, list, Callable, Callable]:
    """Compile a declaration to (variables, indices, violations, readers).
    ``violations(A, S, u, n, ts)`` streams, in order, the tuples of ``ts``
    that violate it for certain on tables whose unassigned entries, padding
    row and padding column hold n.  ``readers(A, S, u, n, ts, r, c)`` lists
    the tuples of ``ts`` whose formula reads entry (r, c) of either table
    on such tables.  ``indices`` holds the (row, column) of every entry the
    formula reads: a variable, "u", or None for a computed index."""
    indices: list[tuple[Optional[str], Optional[str]]] = []
    addresses: list[str] = []

    def operand(tokens: list[str]) -> str:
        tok = tokens.pop() if tokens else None
        if tok == "(":
            inner = term(tokens)
            if tokens and tokens.pop() == ")":
                return inner
        elif tok in _ATOMS:
            return _ATOMS[tok]
        raise ValueError(f"declaration {text!r}: malformed term")

    def term(tokens: list[str]) -> str:
        left = operand(tokens)
        if tokens and tokens[-1] in _OPERATORS:
            op, right = tokens.pop(), operand(tokens)
            for table in _OPERATORS[op]:
                indices.append(tuple(a if a in _ATOMS.values() else None for a in (left, right)))
                addresses.append(f"{left} == r and {right} == c")
                left = f"{table}[{left}][{right}]"
        return left

    def equations(formula: str) -> list[tuple[str, ...]]:
        found = []
        for equation in filter(None, re.split(" [&|] ", formula)):
            sides = [re.findall(r"->|~>|v[12]|\S", s)[::-1] for s in equation.split(" = ")]
            found.append(tuple(term(tokens) for tokens in sides))
            if len(sides) != 2 or any(sides):
                raise ValueError(f"declaration {text!r}: malformed equation {equation!r}")
        return found

    parts = re.split(r" (<=>|=>) ", text)
    premise, kind, conclusion = parts if len(parts) > 1 else ("", None, text)
    disjunctive = " | " in conclusion
    if " | " in premise or disjunctive and (" & " in conclusion or kind == "<=>"):
        raise ValueError(
            f"declaration {text!r}: | joins only a whole conclusion, after => or alone"
        )
    premise, conclusion = equations(premise), equations(conclusion)
    variables = "".join(sorted(set(re.findall("[xyz]", text))))
    names = ", ".join(variables) + ","
    scan = f"({names}) for {names} in ts if"
    broken = _violation(premise, kind, conclusion, disjunctive)
    reads = " or ".join(addresses) or "False"
    code: dict[str, Callable] = {}
    exec(
        f"def violations(A, S, u, n, ts):\n    return ({scan} {broken})\n"
        f"def readers(A, S, u, n, ts, r, c):\n    return [{scan} {reads}]",
        code,
    )
    return variables, indices, code["violations"], code["readers"]


def _violations(arrow, squig, unit: int, text: str) -> Iterator[tuple[int, ...]]:
    """The stream of tuples that violate declaration ``text`` on the tables,
    in lexicographic order; the one scan of every axiom check."""
    n = len(arrow)
    variables, _, scan, _ = _identity(text)
    return scan(arrow, squig, unit, n, itertools.product(range(n), repeat=len(variables)))


def _declarations(system: str) -> dict[str, str]:
    if system not in _SYSTEM_AXIOMS:
        raise ValueError(f"unknown axiom system {system!r}")
    return _SYSTEM_AXIOMS[system]


def _holds(arrow, squig, unit: int, system: str, verdicts: Optional[dict] = None) -> bool:
    """``check_axioms(...).holds`` for the tables, decided at the first
    violating tuple: the rest of the scan is skipped.

    ``system`` may also be a flag of ``_FLAG_IDENTITIES``.  ``verdicts``
    maps declaration texts to their verdicts on these tables.  A declaration
    found there is not scanned, and each one scanned is entered, so systems
    and flags that share a declaration decide it once.
    """
    known = {} if verdicts is None else verdicts
    texts = _FLAG_IDENTITIES[system] if system in _FLAG_IDENTITIES else _declarations(system)
    for text in texts.values():
        if text not in known:
            known[text] = not any(_violations(arrow, squig, unit, text))
        if not known[text]:
            return False
    return True


def check_axioms(a: FiniteAlgebra, system: str) -> AxiomReport:
    """Exhaustively evaluate every axiom of ``system`` over all tuples.

    Reports the lexicographically first violating tuple per axiom tag,
    plus the total violation count.  A yes/no decision needs no report:
    it is :func:`_holds`.
    """
    found = [
        (tag, list(_violations(a.arrow, a.squig, a.unit, text)))
        for tag, text in _declarations(system).items()
    ]
    violations = tuple(sorted((tag, bad[0]) for tag, bad in found if bad))
    return AxiomReport(system, violations, sum(len(bad) for _, bad in found))


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
    p_system: bool
    q_system: bool
    bounded: bool
    linear: bool
    good: Optional[bool] = None
    involutive: Optional[bool] = None
    regular_elements: Optional[frozenset[int]] = None
    dense_elements: Optional[frozenset[int]] = None


def classify(a: FiniteAlgebra) -> ClassificationReport:
    """Decide every axiom-system flag plus the derived structural flags.

    Each axiom-system flag, and each flag of ``_FLAG_IDENTITIES``, is
    :func:`_holds`: it is decided false at the first identity with a
    violation, without scanning the rest.
    """
    return _classify(a, ())


def _classify(a: FiniteAlgebra, holding: tuple[str, ...]) -> ClassificationReport:
    """:func:`classify` of an algebra on which the axiom systems named in
    ``holding`` are known to hold: their declarations are not scanned.  A
    declaration that several systems or flags share is scanned once."""
    verdicts = {text: True for system in holding for text in _declarations(system).values()}
    (pseudo_be, pseudo_bck, condition_a, distributive, commutative, p_system, q_system,
     be, linear) = (
        _holds(a.arrow, a.squig, a.unit, flag, verdicts)
        for flag in (*AXIOM_SYSTEMS, *_FLAG_IDENTITIES)
    )
    proper = pseudo_be and not be
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
        p_system=p_system,
        q_system=q_system,
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
    # the carrier and table shape are FiniteAlgebra's checks
    n = len(elements)
    index = {tok: i for i, tok in enumerate(elements)}

    def constant(keyword: str) -> int:
        parts = expect(keyword)
        if len(parts) != 1:
            raise AlgebraError(f"{keyword} line needs exactly one token")
        if parts[0] not in index:
            raise AlgebraError(f"unknown token in {keyword}: {parts[0]!r}")
        return index[parts[0]]

    unit = constant("unit")
    bottom = None
    if pos < len(lines) and lines[pos].split()[0] == "bottom":
        bottom = constant("bottom")

    tables = {}
    for expected in ("arrow", "squig"):
        header = expect("table")
        if header != [expected]:
            raise AlgebraError(f"missing required section: table {expected}")
        rows = []
        for _ in range(n):
            row = []
            for t in next_line().split():
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
