"""Deductive systems: enumeration against a naive oracle, classification
on the fixture files, and quotients."""

import itertools

import pytest

from pseudobe import dsystems
from pseudobe.algebra import AxiomReport, check_axioms
from pseudobe.dsystems import (
    ConsistencyAlarmError,
    NotADeductiveSystemError,
    NotDistributiveError,
    NotProperError,
    enumerate_ds,
    format_subset,
    generated_ds,
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


def test_bck4_unit_ds_not_prime_with_witness(bck4):
    fam = enumerate_ds(bck4)
    unit_only = frozenset({bck4.unit})
    assert not is_prime(bck4, unit_only, fam)
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


def test_involutive_requires_bottom(conda5):
    from pseudobe.algebra import UnboundedAlgebraError

    with pytest.raises(UnboundedAlgebraError):
        is_involutive_ds(conda5, frozenset({conda5.unit}))


def test_predicates_reject_non_ds(conda5):
    bad = frozenset({conda5.unit, conda5.index("a")})
    assert not is_deductive_system(conda5, bad)
    with pytest.raises(NotADeductiveSystemError):
        is_normal(conda5, bad)


def test_prime_maximal_require_proper(conda5):
    full = frozenset(range(conda5.size))
    message = r"^\{1,a,b,c,d\} is not a proper deductive system$"
    with pytest.raises(NotProperError, match=message):
        is_prime(conda5, full)
    with pytest.raises(NotProperError, match=message):
        is_maximal(conda5, full)


def test_generated_ds(bck4):
    b_i, c_i = bck4.index("b"), bck4.index("c")
    assert generated_ds(bck4, frozenset({b_i})) == parse_subset(bck4, "{1,b}")
    assert generated_ds(bck4, frozenset({c_i})) == frozenset(range(bck4.size))


def test_generated_ds_is_least_ds_above_seed(small_inputs):
    for a in small_inputs:
        family = enumerate_ds(a).subsets
        for r in range(a.size + 1):
            for combo in itertools.combinations(range(a.size), r):
                seed = frozenset(combo)
                out = generated_ds(a, seed)
                assert is_deductive_system(a, out) and seed <= out, (a.name, combo)
                assert all(out <= d for d in family if seed <= d), (a.name, combo)


def test_generated_ds_alarm(bck4, monkeypatch):
    monkeypatch.setattr(dsystems, "is_deductive_system", lambda a, d: False)
    with pytest.raises(ConsistencyAlarmError):
        generated_ds(bck4, frozenset())


def test_parse_subset_rejects_repeated_token(conda5):
    with pytest.raises(ValueError, match="repeated"):
        parse_subset(conda5, "{1,a,a}")


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
    assert q.quotient.is_be()
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
    assert q.quotient.is_be()
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
    real = dsystems.check_axioms

    def check(a, system):
        if system == "distributive":
            return AxiomReport(system, True, (), 0)
        return real(a, system)

    monkeypatch.setattr(dsystems, "check_axioms", check)


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
