"""Deductive systems: enumeration against a naive oracle, classification
on the fixture files, and quotients."""

import itertools

import pytest

from pseudobe import dsystems
from pseudobe.algebra import AlgebraError, check_axioms, parse_algebra
from pseudobe.dsystems import (
    ConsistencyAlarmError,
    NotADeductiveSystemError,
    NotDistributiveError,
    NotProperError,
    enumerate_ds,
    format_subset,
    is_deductive_system,
    is_fantastic,
    is_involutive_ds,
    is_maximal,
    is_normal,
    is_prime,
    parse_subset,
    prime_witness,
    quotient,
)
from pseudobe.finder import SearchConstraints, enumerate_models


def _subsets(a, text_list):
    return {parse_subset(a, t) for t in text_list}


def naive_ds_family(a):
    """Independent oracle: a subset is a DS iff it contains the unit and
    equals its own modus ponens closure, computed by fixpoint iteration."""
    out = set()
    others = [i for i in range(a.size) if i != a.unit]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            d = set(combo) | {a.unit}
            closure = set(d)
            while True:
                grown = set(closure)
                for x in list(closure):
                    for y in range(a.size):
                        if a.arrow[x][y] in closure:
                            grown.add(y)
                if grown == closure:
                    break
                closure = grown
            if closure == d:
                out.add(frozenset(d))
    return out


def test_enumeration_matches_naive_oracle(bck4, proper6, bounded6, conda5):
    for a in (bck4, proper6, bounded6, conda5):
        fam = enumerate_ds(a)
        assert set(fam.subsets) == naive_ds_family(a), a.name


def test_enumeration_members_re_verify(conda5):
    fam = enumerate_ds(conda5)
    for d in fam.subsets:
        assert is_deductive_system(conda5, d)


def test_bck4_family(bck4):
    fam = enumerate_ds(bck4)
    assert set(fam.subsets) == _subsets(bck4, ["{1}", "{1,b}", "{1,a,b,c}"])
    assert set(fam.prime) == _subsets(bck4, ["{1,b}"])
    assert set(fam.maximal) == _subsets(bck4, ["{1,b}"])


def test_lazy_tags_match_the_public_checks(small_inputs):
    """The prime and maximal tags, computed when first read, hold exactly the
    proper deductive systems that the public ``is_prime`` and ``is_maximal``
    accept, in family order."""
    for a in small_inputs:
        fam = enumerate_ds(a)
        assert "prime" not in vars(fam) and "maximal" not in vars(fam), a.name
        proper = [d for d in fam.subsets if len(d) < a.size]
        assert fam.prime == tuple(d for d in proper if is_prime(a, d)), a.name
        assert fam.maximal == tuple(d for d in proper if is_maximal(a, d)), a.name


def test_bck4_unit_ds_not_prime_with_witness(bck4):
    fam = enumerate_ds(bck4)
    unit_only = frozenset({bck4.unit})
    assert not is_prime(bck4, unit_only)
    w = prime_witness(bck4, unit_only, fam.subsets)
    assert w is not None and w[0] == "join"


def test_proper6_family(proper6):
    fam = enumerate_ds(proper6)
    assert len(fam.subsets) == 6
    assert set(fam.fantastic) == _subsets(
        proper6, ["{1,e}", "{1,a,e}", "{1,b,c,d,e}", "{1,a,b,c,d,e}"]
    )


def test_conda5_family(conda5):
    fam = enumerate_ds(conda5)
    expected = _subsets(conda5, ["{1}", "{1,a,d}", "{1,b,c}", "{1,a,b,c,d}"])
    assert set(fam.subsets) == expected
    assert set(fam.normal) == expected
    assert set(fam.fantastic) == expected


def test_distributive_implies_all_normal(proper6, conda5):
    for a in (proper6, conda5):
        assert check_axioms(a, "distributive").holds
        fam = enumerate_ds(a)
        assert set(fam.normal) == set(fam.subsets)


def test_fantastic_upward_closure(conda5, proper6):
    # D fantastic, D <= E, E a DS  =>  E fantastic (condition (A) holds here)
    for a in (conda5, proper6):
        fam = enumerate_ds(a)
        for d in fam.fantastic:
            for e in fam.subsets:
                if d <= e:
                    assert is_fantastic(a, e)


def test_unit_fantastic_iff_all_fantastic(bck4, proper6, conda5):
    for a in (bck4, proper6, conda5):
        fam = enumerate_ds(a)
        unit_only = frozenset({a.unit})
        assert is_fantastic(a, unit_only) == (
            set(fam.fantastic) == set(fam.subsets)
        )


def test_involutive_on_bounded(bounded6):
    fam = enumerate_ds(bounded6)
    assert fam.involutive is not None
    # fantastic => involutive on bounded algebras
    for d in fam.fantastic:
        assert is_involutive_ds(bounded6, d)


# the three-element Goedel chain b < a < 1: a's double negation is 1
GOEDEL3 = """algebra goedel3
elements 1 a b
unit 1
bottom b
table arrow
1 a b
1 1 b
1 1 1
table squig
1 a b
1 1 b
1 1 1
end
"""


def test_unit_ds_of_a_chain_not_involutive():
    a = parse_algebra(GOEDEL3)
    unit_only = frozenset({a.unit})
    assert check_axioms(a, "pseudo-BE").holds and is_deductive_system(a, unit_only)
    assert not is_involutive_ds(a, unit_only)
    assert enumerate_ds(a).involutive == (frozenset({0, 1}), frozenset(range(3)))


def test_involutive_requires_bottom(conda5):
    from pseudobe.algebra import UnboundedAlgebraError

    with pytest.raises(UnboundedAlgebraError):
        is_involutive_ds(conda5, frozenset({conda5.unit}))


def test_predicates_reject_non_ds(conda5):
    bad = frozenset({conda5.unit, conda5.index("a")})
    assert not is_deductive_system(conda5, bad)
    assert not is_deductive_system(conda5, frozenset(range(1, conda5.size)))
    with pytest.raises(NotADeductiveSystemError):
        is_normal(conda5, bad)


def test_prime_maximal_require_proper(conda5):
    full = frozenset(range(conda5.size))
    message = r"^\{1,a,b,c,d\} is not a proper deductive system$"
    with pytest.raises(NotProperError, match=message):
        is_prime(conda5, full)
    with pytest.raises(NotProperError, match=message):
        is_maximal(conda5, full)


def test_parse_subset_rejects_repeated_token(conda5):
    with pytest.raises(ValueError, match="repeated"):
        parse_subset(conda5, "{1,a,a}")


def test_parse_subset_empty_and_unbraced(conda5):
    assert parse_subset(conda5, " { } ") == frozenset()
    with pytest.raises(AlgebraError, match=r"^subset must be written \{tok,...\}, got '1,a'$"):
        parse_subset(conda5, "1,a")


def test_subset_format_round_trip(conda5):
    fam = enumerate_ds(conda5)
    for d in fam.subsets:
        assert parse_subset(conda5, format_subset(conda5, d)) == d


# ---------------------------------------------------------------------------
# quotients


def test_quotient_by_kernel(conda5):
    h = parse_subset(conda5, "{1,a,d}")
    q = quotient(conda5, h)
    assert len(q.classes) == 2
    assert q.quotient.arrow == q.quotient.squig
    assert check_axioms(q.quotient, "pseudo-BE").holds
    assert check_axioms(q.quotient, "commutative").holds
    # Ker(pi_H) = H
    ker = frozenset(
        x for x in range(conda5.size) if q.projection[x] == q.quotient.unit
    )
    assert ker == h


def test_quotient_full_carrier(conda5):
    q = quotient(conda5, frozenset(range(conda5.size)))
    assert len(q.classes) == 1
    assert q.quotient.size == 1


def test_quotient_proper6(proper6):
    h = parse_subset(proper6, "{1,e}")
    q = quotient(proper6, h)
    assert q.quotient.arrow == q.quotient.squig
    assert check_axioms(q.quotient, "pseudo-BE").holds
    # brute-force oracle for the classes
    expected = {frozenset({0, 5}), frozenset({1}), frozenset({2, 3, 4})}
    assert {frozenset(c) for c in q.classes} == expected


def test_quotient_class_tokens(conda5):
    q = quotient(conda5, parse_subset(conda5, "{1,a,d}"))
    assert q.quotient.elements == ("1|a|d", "b|c")


def test_quotient_refused_on_non_distributive(bck4):
    assert not check_axioms(bck4, "distributive").holds
    with pytest.raises(NotDistributiveError):
        quotient(bck4, frozenset({bck4.unit}))


def test_quotient_requires_ds(conda5):
    with pytest.raises(NotADeductiveSystemError):
        quotient(conda5, frozenset({conda5.unit, conda5.index("a")}))


def _distributive_bypassed(monkeypatch):
    """Let ``quotient`` run on a non-distributive algebra, where the
    relation need not be a congruence, so its alarms can fire."""
    real = dsystems._holds

    def holds(arrow, squig, unit, system):
        return system == "distributive" or real(arrow, squig, unit, system)

    monkeypatch.setattr(dsystems, "_holds", holds)


def test_quotient_alarm_squig_not_well_defined(bck4, monkeypatch):
    _distributive_bypassed(monkeypatch)
    with pytest.raises(ConsistencyAlarmError, match="^squig not well defined on classes$"):
        quotient(bck4, parse_subset(bck4, "{1,b}"))


def test_quotient_alarm_arrow_not_well_defined(monkeypatch):
    (m,) = [
        m for m in enumerate_models(SearchConstraints(size=4)) if m.name == "n4_b14599de2493"
    ]
    _distributive_bypassed(monkeypatch)
    with pytest.raises(ConsistencyAlarmError, match="^arrow not well defined on classes$"):
        quotient(m, parse_subset(m, "{1,c}"))
