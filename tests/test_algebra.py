"""Axiom systems, classification, and the algebra file format."""

import dataclasses
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from conftest import is_linear
from pseudobe.algebra import (
    _FLAG_IDENTITIES,
    AXIOM_SYSTEMS,
    AlgebraError,
    FiniteAlgebra,
    InconsistentOrderError,
    UnboundedAlgebraError,
    _holds,
    _identity,
    _violations,
    check_axioms,
    classify,
    leq,
    negations,
    parse_algebra,
    parse_map,
    serialize_algebra,
    vee1,
    vee2,
)
from pseudobe.dsystems import parse_subset, quotient


def test_all_fixtures_are_pseudo_be(bck4, proper6, bounded6, conda5):
    for a in (bck4, proper6, bounded6, conda5):
        assert check_axioms(a, "pseudo-BE").holds, a.name


def test_bck4_is_pseudo_bck(bck4):
    assert check_axioms(bck4, "pseudo-BCK").holds
    assert bck4.arrow != bck4.squig


def test_proper6_fails_bck_antisymmetry(proper6):
    rep = check_axioms(proper6, "pseudo-BCK")
    assert not rep.holds
    tags = dict(rep.violations)
    assert "psBCK6" in tags
    x, y = tags["psBCK6"]
    # the witness pair compares to 1 both ways
    assert proper6.arrow[x][y] == proper6.unit
    assert proper6.arrow[y][x] == proper6.unit
    assert x != y


def test_proper6_distributive(proper6):
    assert check_axioms(proper6, "distributive").holds


def test_conda5_condition_a_and_distributive(conda5):
    assert check_axioms(conda5, "condition-A").holds
    assert check_axioms(conda5, "distributive").holds


def test_no_fixture_commutative(bck4, proper6, bounded6, conda5):
    for a in (bck4, proper6, bounded6, conda5):
        assert not check_axioms(a, "commutative").holds


def test_conda5_noncommutativity_witness(conda5):
    # a v1 d = d while d v1 a = a
    a_i, d_i = conda5.index("a"), conda5.index("d")
    assert vee1(conda5, a_i, d_i) == d_i
    assert vee1(conda5, d_i, a_i) == a_i


def test_p_q_systems_track_commutativity(bck4, proper6, conda5):
    # none of these algebras is commutative, so both systems must fail
    for a in (bck4, proper6, conda5):
        assert not check_axioms(a, "P-system").holds
        assert not check_axioms(a, "Q-system").holds


def test_violation_report_counts(proper6):
    rep = check_axioms(proper6, "pseudo-BCK")
    assert rep.total >= len(rep.violations)
    assert rep.violations == tuple(sorted(rep.violations))


def test_classify_decides_every_axiom_system(small_inputs):
    for a in small_inputs:
        rep = classify(a)
        for system in AXIOM_SYSTEMS:
            flag = getattr(rep, system.lower().replace("-", "_"))
            assert flag == check_axioms(a, system).holds, (a.name, system)


def test_classify_decides_be_and_linear_by_their_identities(small_inputs, fixtures_dir):
    """``classify``'s BE and linear flags, which read the declarations of
    ``_FLAG_IDENTITIES``, equal the definitions written out by hand on the
    six fixtures, every model of size <= 4 and random tables."""
    extra = [
        parse_algebra((fixtures_dir / f).read_text()) for f in ("alarm2.alg", "constant2.alg")
    ]
    rng = random.Random(1)
    algebras = small_inputs + extra + [_random_algebra(rng) for _ in range(500)]
    seen = set()
    for a in algebras:
        rep = classify(a)
        assert rep.be == (a.arrow == a.squig), a.name
        assert rep.linear == is_linear(a), a.name
        seen.add((rep.be, rep.linear))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("flag", _FLAG_IDENTITIES)
def test_flags_are_no_axiom_systems(conda5, flag):
    with pytest.raises(ValueError, match=f"^unknown axiom system '{flag}'$"):
        check_axioms(conda5, flag)


def test_classify_rejects_a_bottom_that_is_not_least(bounded6):
    fake = dataclasses.replace(bounded6, bottom=bounded6.index("a"))
    with pytest.raises(AlgebraError, match="^declared bottom 'a' is not a least element$"):
        classify(fake)


def test_classify_flags(bck4, proper6, bounded6, conda5):
    r = classify(conda5)
    assert r.pseudo_be and r.proper and r.condition_a and r.distributive
    assert not r.commutative and not r.bounded and not r.linear
    assert classify(bck4).linear
    assert classify(proper6).proper
    assert classify(bounded6).bounded


def test_bounded6_negations_and_regularity(bounded6):
    a_i = bounded6.index("a")
    neg, sneg = negations(bounded6, a_i)
    assert bounded6.token(neg) == "d"
    assert bounded6.token(sneg) == "c"
    r = classify(bounded6)
    assert a_i in r.regular_elements
    assert bounded6.unit in r.dense_elements


def test_negations_require_bottom(conda5):
    with pytest.raises(UnboundedAlgebraError):
        negations(conda5, 0)


def test_leq_is_a_preorder(conda5):
    n = conda5.size
    for x in range(n):
        assert leq(conda5, x, x)
    for x, y, z in itertools.product(range(n), repeat=3):
        if leq(conda5, x, y) and leq(conda5, y, z):
            assert leq(conda5, x, z)


def test_leq_alarm_on_disagreeing_tables():
    a = FiniteAlgebra(
        "broken",
        ("1", "a"),
        ((0, 1), (0, 0)),
        ((0, 1), (1, 0)),  # squig says a <= a fails... tables disagree at (1,0)
        0,
    )
    with pytest.raises(InconsistentOrderError):
        leq(a, 1, 0)


def test_vee_operations(conda5):
    b_i, c_i = conda5.index("b"), conda5.index("c")
    # b v1 c = (b -> c) ~> c
    assert vee1(conda5, b_i, c_i) == conda5.squig[conda5.arrow[b_i][c_i]][c_i]
    assert vee2(conda5, b_i, c_i) == conda5.arrow[conda5.squig[b_i][c_i]][c_i]


# ---------------------------------------------------------------------------
# file format


def test_round_trip(bck4, proper6, bounded6, conda5):
    for a in (bck4, proper6, bounded6, conda5):
        text = serialize_algebra(a)
        again = parse_algebra(text)
        assert again == a
        assert serialize_algebra(again) == text


def test_parse_comments_and_blank_lines(conda5):
    text = serialize_algebra(conda5)
    noisy = "# header comment\n" + text.replace("unit 1", "unit 1  # the top")
    assert parse_algebra(noisy) == conda5


def test_parse_row_length_mismatch(conda5):
    text = serialize_algebra(conda5)
    broken = text.replace("1 a b c d\n1 1 c c 1", "1 a b c d\n1 1 c c", 1)
    with pytest.raises(AlgebraError, match="row length mismatch"):
        parse_algebra(broken)


def test_parse_unknown_token(conda5):
    text = serialize_algebra(conda5).replace("unit 1", "unit z")
    with pytest.raises(AlgebraError, match="unknown token"):
        parse_algebra(text)


def test_parse_duplicate_element():
    with pytest.raises(AlgebraError, match="duplicate"):
        parse_algebra(
            "algebra x\nelements 1 a a\nunit 1\ntable arrow\n"
            "1 a a\n1 1 1\n1 1 1\ntable squig\n1 a a\n1 1 1\n1 1 1\nend\n"
        )


@pytest.mark.parametrize(
    "old, new, count, message",
    [
        (" d", " c", -1, "duplicate element token"),  # d renamed c everywhere
        ("1 1 c c 1\n1 d", "1 1 c c\n1 d", 1, "arrow table: row length mismatch"),
        ("1 1 b c 1\n1 d", "1 1 b c 1 d\n1 d", 1, "squig table: row length mismatch"),
    ],
    ids=["duplicate-token", "short-row", "long-row"],
)
def test_parse_shape_errors_come_from_the_constructor(conda5, old, new, count, message):
    # the parser leaves the carrier and table shape to FiniteAlgebra
    text = serialize_algebra(conda5).replace(old, new, count)
    with pytest.raises(AlgebraError, match=f"^{message}$"):
        parse_algebra(text)


@pytest.mark.parametrize("keyword", ["unit", "bottom"])
def test_parse_constant_lines(bounded6, keyword):
    text = serialize_algebra(bounded6)
    line = next(line for line in text.splitlines() if line.startswith(keyword))
    with pytest.raises(AlgebraError, match=f"^{keyword} line needs exactly one token$"):
        parse_algebra(text.replace(line, line + " 1"))
    with pytest.raises(AlgebraError, match=f"^unknown token in {keyword}: 'z'$"):
        parse_algebra(text.replace(line, f"{keyword} z"))


@pytest.mark.parametrize("tok", ["x,y", "{x", "x}", "x=y", "x->y"])
def test_parse_rejects_separator_in_token(conda5, tok):
    text = "\n".join(
        " ".join(tok if t == "a" else t for t in line.split())
        for line in serialize_algebra(conda5).splitlines()
    )
    with pytest.raises(AlgebraError, match="separator"):
        parse_algebra(text)


@pytest.mark.parametrize("tok", ["x,y", "{x", "x}", "x=y", "x->y"])
def test_constructor_rejects_separator_in_token(conda5, tok):
    # a library-built algebra must serialize to a file the parser accepts
    with pytest.raises(AlgebraError, match="separator"):
        dataclasses.replace(conda5, elements=("1", tok, "b", "c", "d"))


@pytest.mark.parametrize("tok", ["", "a b", " a", "a\t", "a#b", "#"])
def test_constructor_rejects_token_the_format_cannot_carry(conda5, tok):
    with pytest.raises(AlgebraError, match="empty or contains whitespace"):
        dataclasses.replace(conda5, elements=("1", tok, "b", "c", "d"))


@pytest.mark.parametrize("tok", ["x", "a'", "1|a|d", "a-b", "end", "-1/2"])
def test_accepted_token_round_trips(conda5, tok):
    renamed = dataclasses.replace(conda5, elements=("1", tok, "b", "c", "d"))
    assert parse_algebra(serialize_algebra(renamed)) == renamed


def test_parse_accepts_quotient_tokens(conda5):
    q = quotient(conda5, parse_subset(conda5, "{1,a,d}")).quotient
    assert q.elements == ("1|a|d", "b|c")
    assert parse_algebra(serialize_algebra(q)) == q


def test_parse_missing_section(conda5):
    text = serialize_algebra(conda5).replace("table squig\n", "")
    with pytest.raises(AlgebraError):
        parse_algebra(text)


def test_parse_rejects_text_after_end(bck4):
    text = serialize_algebra(bck4) + "table arrow\nnonsense here\n"
    with pytest.raises(AlgebraError, match="after end"):
        parse_algebra(text)
    # comments and blank lines after end are still fine
    assert parse_algebra(serialize_algebra(bck4) + "\n# trailing note\n") == bck4


def test_entry_out_of_range():
    with pytest.raises(AlgebraError, match="out of range"):
        FiniteAlgebra("x", ("1",), ((1,),), ((0,),), 0)


@pytest.mark.parametrize(
    "elements, arrow, unit, bottom, message",
    [
        ((), (), 0, None, "empty carrier"),
        (("1", "a"), ((0, 1),), 0, None, "arrow table: row count mismatch"),
        (("1", "a"), ((0, 1), (0, 0)), 2, None, "unit out of range"),
        (("1", "a"), ((0, 1), (0, 0)), 0, -1, "bottom out of range"),
    ],
    ids=["empty", "missing-row", "unit", "bottom"],
)
def test_constructor_shape_errors(elements, arrow, unit, bottom, message):
    with pytest.raises(AlgebraError, match=f"^{message}$"):
        FiniteAlgebra("x", elements, arrow, arrow, unit, bottom)


def test_index_of_unknown_token(conda5):
    with pytest.raises(AlgebraError, match="^unknown element token 'z'$"):
        conda5.index("z")


def test_unknown_axiom_system(conda5):
    with pytest.raises(ValueError, match="^unknown axiom system 'nope'$"):
        check_axioms(conda5, "nope")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("algebra conda5", "algebra conda 5", "algebra line needs exactly one name token"),
        ("elements 1 a b c d", "elements", "missing required section: elements"),
        ("table squig", "table arrow", "missing required section: table squig"),
    ],
    ids=["name", "elements", "table-header"],
)
def test_parse_header_errors(conda5, old, new, message):
    with pytest.raises(AlgebraError, match=f"^{message}$"):
        parse_algebra(serialize_algebra(conda5).replace(old, new))


@pytest.mark.parametrize(
    "text, message",
    [
        ("x -> (y = x", "declaration 'x -> (y = x': malformed term"),
        ("x -> = y", "declaration 'x -> = y': malformed term"),
        ("x -> y", "declaration 'x -> y': malformed equation 'x -> y'"),
        ("x = y = z", "declaration 'x = y = z': malformed equation 'x = y = z'"),
        ("x -> y = 1 | y", "declaration 'x -> y = 1 | y': malformed equation 'y'"),
    ],
    ids=["unclosed", "missing-operand", "no-sides", "three-sides", "disjunct-no-sides"],
)
def test_identity_rejects_malformed_declarations(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _identity(text)


@pytest.mark.parametrize(
    "text",
    [
        "x = 1 | y = 1 & x = y",
        "x = 1 & y = 1 | x = y",
        "x -> y = 1 <=> x = 1 | y = 1",
        "x = 1 | y = 1 => x = y",
    ],
    ids=["or-then-and", "and-then-or", "or-under-iff", "or-in-premise"],
)
def test_identity_rejects_a_disjunction_that_is_not_a_whole_conclusion(text):
    message = f"declaration {text!r}: | joins only a whole conclusion, after => or alone"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _identity(text)


def test_disjunction_is_broken_where_every_disjunct_fails():
    """On a 3-element table, totality streams exactly the pairs (x, y) where
    neither x -> y nor y -> x is the unit, in order."""
    arrow = ((0, 1, 2), (0, 0, 2), (0, 1, 0))
    squig = ((0, 1, 2), (0, 0, 0), (0, 0, 0))
    want = [
        (x, y) for x in range(3) for y in range(3) if arrow[x][y] != 0 and arrow[y][x] != 0
    ]
    assert want == [(1, 2), (2, 1)]
    assert list(_violations(arrow, squig, 0, "x -> y = 1 | y -> x = 1")) == want


def test_parse_map_rejects_a_bad_line(conda5):
    with pytest.raises(ValueError, match="^bad map line: 'map 1 1'$"):
        parse_map(conda5, conda5, "map 1 1\n", "map")


@given(st.integers(2, 4), st.data())
def test_random_tables_never_crash_axiom_checks(n, data):
    """check_axioms is total: any well-formed table pair gets a verdict."""
    draw = lambda: tuple(
        tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
        for _ in range(n)
    )
    a = FiniteAlgebra("rand", tuple("1abcd"[:n]), draw(), draw(), 0)
    for system in ("pseudo-BE", "pseudo-BCK", "condition-A", "distributive"):
        rep = check_axioms(a, system)
        assert rep.holds == (rep.total == 0)


def _unit_laws(arrow, squig, u):
    """Overwrite the cells that psBE1-3 fix, so that later axioms are not
    decided by the first cells alone."""
    for t in (arrow, squig):
        for x in range(len(t)):
            t[x][x] = t[x][u] = u
            t[u][x] = x


def _random_algebra(rng):
    """A table pair of size 1-5 with a random unit; in half of them psBE1-3
    hold."""
    n = rng.randint(1, 5)
    u = rng.randrange(n)
    arrow, squig = ([[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in "as")
    if rng.random() < 0.5:
        _unit_laws(arrow, squig, u)
    tables = (tuple(map(tuple, t)) for t in (arrow, squig))
    return FiniteAlgebra("rand", tuple("1abcd"[:n]), *tables, u)


def test_holds_agrees_with_check_axioms(small_inputs, fixtures_dir):
    """``_holds``, which stops at the first failing identity, decides every
    system as the full report does: on the six fixtures and every model of
    size <= 4."""
    extra = [
        parse_algebra((fixtures_dir / f).read_text()) for f in ("alarm2.alg", "constant2.alg")
    ]
    for a in small_inputs + extra:
        for system in AXIOM_SYSTEMS:
            holds = _holds(a.arrow, a.squig, a.unit, system)
            assert holds == check_axioms(a, system).holds, (a.name, system)


@given(st.integers(1, 4), st.data())
def test_holds_agrees_with_check_axioms_on_random_tables(n, data):
    """The same on random table pairs, most of them not pseudo-BE."""
    u = data.draw(st.integers(0, n - 1))
    cell = st.integers(0, n - 1)
    arrow, squig = ([[data.draw(cell) for _ in range(n)] for _ in range(n)] for _ in "as")
    if data.draw(st.booleans()):
        _unit_laws(arrow, squig, u)
    a = FiniteAlgebra("rand", tuple("1abc"[:n]), *(tuple(map(tuple, t)) for t in (arrow, squig)), u)
    for system in AXIOM_SYSTEMS:
        assert _holds(a.arrow, a.squig, a.unit, system) == check_axioms(a, system).holds, system


# sha256 of every AxiomReport below, recorded with the per-axiom predicates
# that the declared identities replaced
AXIOM_REPORTS_DIGEST = "eaa52a61212ed82ba0a87d41409ca71170133d8e5fb96d6359d13aaa6dc49ddd"


def test_axiom_reports_digest(small_inputs, fixtures_dir):
    extra = [
        parse_algebra((fixtures_dir / f).read_text()) for f in ("alarm2.alg", "constant2.alg")
    ]
    rng = random.Random(0)
    algebras = small_inputs + extra + [_random_algebra(rng) for _ in range(2000)]
    reports = [
        (r.system, r.violations, r.total)
        for a in algebras
        for r in (check_axioms(a, system) for system in AXIOM_SYSTEMS)
    ]
    assert len(AXIOM_SYSTEMS) == 7
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == AXIOM_REPORTS_DIGEST
