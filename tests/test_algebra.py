"""Axiom systems, classification, and the algebra file format."""

import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from pseudobe.algebra import (
    AlgebraError,
    AxiomReport,
    FiniteAlgebra,
    InconsistentOrderError,
    UnboundedAlgebraError,
    check_axioms,
    classify,
    leq,
    negations,
    parse_algebra,
    serialize_algebra,
    vee1,
    vee2,
)
from pseudobe.dsystems import parse_subset, quotient
from pseudobe.linalg import ConsistencyAlarmError


def test_all_fixtures_are_pseudo_be(bck4, proper6, bounded6, conda5):
    for a in (bck4, proper6, bounded6, conda5):
        assert check_axioms(a, "pseudo-BE").holds, a.name


def test_bck4_is_pseudo_bck(bck4):
    assert check_axioms(bck4, "pseudo-BCK").holds
    assert not bck4.is_be()


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


def test_axiom_report_alarm():
    with pytest.raises(ConsistencyAlarmError):
        AxiomReport("pseudo-BE", True, (("psBE1", (0,)),), 1)
    with pytest.raises(ConsistencyAlarmError):
        AxiomReport("pseudo-BE", False, (), 0)


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


@pytest.mark.parametrize("tok", ["x,y", "{x", "x}", "x=y", "x->y"])
def test_parse_rejects_separator_in_token(conda5, tok):
    renamed = dataclasses.replace(conda5, elements=("1", tok, "b", "c", "d"))
    with pytest.raises(AlgebraError, match="separator"):
        parse_algebra(serialize_algebra(renamed))


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
