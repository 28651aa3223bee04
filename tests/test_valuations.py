"""Pseudo-valuations: named examples, characterization crosschecks, the
exact cone, and transport along homomorphisms."""

import random
from fractions import Fraction as F

import pytest

from pseudobe import valuations
from pseudobe.dsystems import ConsistencyAlarmError, parse_subset
from pseudobe.homs import Homomorphism, NotBijectiveError, identity_hom
from pseudobe.valuations import (
    NotAPseudoValuationError,
    characterization_crosscheck,
    commutative_pv_witness,
    is_commutative_pv,
    is_pseudo_valuation,
    is_valuation,
    is_weak_pseudo_valuation,
    pullback,
    pushforward,
    pv_witness,
    valuation_cone,
    valuation_equations,
    valuation_kernel,
    weak_pv_witness,
)

# values in carrier order 1 a b c d
PHI_1_3 = (F(0), F(1), F(3), F(3), F(1))
PHI_WEAK = (F(0), F(1), F(3), F(4), F(2))
RAY_BC = (F(0), F(0), F(1), F(1), F(0))
RAY_AD = (F(0), F(1), F(0), F(0), F(1))


def test_phi_1_3_full_stack(conda5):
    assert is_pseudo_valuation(conda5, PHI_1_3)
    assert is_valuation(conda5, PHI_1_3)
    assert is_commutative_pv(conda5, PHI_1_3)
    rep = characterization_crosscheck(conda5, PHI_1_3)
    assert rep.pv4_pv5 and rep.cpv3_cpv4
    assert rep.pv_equivalence_agrees and rep.cpv_equivalence_agrees


def test_weak_example_separates(conda5):
    assert is_weak_pseudo_valuation(conda5, PHI_WEAK)
    w = pv_witness(conda5, PHI_WEAK)
    assert w is not None and w[0] == "pv2"


def test_weak_violation_witness(conda5):
    bad = (F(0), F(0), F(0), F(5), F(0))
    assert weak_pv_witness(conda5, bad) is not None


def test_zero_map_is_pv_not_valuation(conda5):
    zero = (F(0),) * 5
    assert is_pseudo_valuation(conda5, zero)
    assert not is_valuation(conda5, zero)


def test_commutative_pv_requires_pv(conda5):
    with pytest.raises(NotAPseudoValuationError):
        is_commutative_pv(conda5, PHI_WEAK)


def test_crosscheck_requires_zero_at_unit(conda5):
    with pytest.raises(NotAPseudoValuationError):
        characterization_crosscheck(conda5, (F(1),) * 5)


# each failing branch of the crosscheck: (algebra, phi in carrier order,
# expected (pv4)/(pv5) witness, expected (cpv3)/(cpv4) witness)
CROSSCHECK_FAILURES = (
    ("bck4", (0, 0, 0, 1), ("pv4", ("1", "a", "c")), ("cpv4", ("a", "b", "a"))),
    ("bck4", (0, 0, 1, 0), ("pv4", ("1", "a", "b")), ("cpv3", ("a", "c", "a"))),
    ("conda5", (0, 0, 1, 0, 0), ("pv5", ("1", "a", "b")), ("cpv3", ("b", "1", "a"))),
)


@pytest.mark.parametrize("name,phi,pv_w,cpv_w", CROSSCHECK_FAILURES)
def test_crosscheck_failing_branches(request, name, phi, pv_w, cpv_w):
    a = request.getfixturevalue(name)
    rep = characterization_crosscheck(a, tuple(F(v) for v in phi))

    def witness(tag, toks):
        return (tag, tuple(a.index(t) for t in toks))

    assert rep.pv4_witness == witness(*pv_w) and not rep.pv4_pv5
    assert rep.cpv3_witness == witness(*cpv_w) and not rep.cpv3_cpv4
    assert not rep.is_pv and rep.is_commutative is None
    assert rep.pv_equivalence_agrees and rep.cpv_equivalence_agrees


def test_cone_rays(conda5):
    rays = valuation_cone(conda5)
    assert set(rays) == {RAY_BC, RAY_AD}
    # supports {b,c} and {a,d}
    for r in rays:
        support = frozenset(i for i, v in enumerate(r) if v != 0)
        assert support in (
            parse_subset(conda5, "{b,c}") ,
            parse_subset(conda5, "{a,d}"),
        )


def _ints(*rows):
    return tuple(tuple(F(v) for v in r) for r in rows)


# carrier order 1 a b c d e; the double description engine and the
# active-set audit agree on both cones
def test_cone_rays_proper6(proper6):
    assert valuation_cone(proper6) == _ints(
        (0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1)
    )


def test_cone_rays_bounded6(bounded6):
    assert valuation_cone(bounded6) == _ints(
        (0, 1, 1, 0, 1, 1),
        (0, 1, 1, 1, 0, 1),
        (0, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 1, 2),
        (0, 1, 2, 1, 1, 2),
        (0, 2, 1, 1, 1, 2),
        (0, 2, 2, 1, 1, 3),
    )


def test_cone_alarm_on_unverified_ray(conda5, monkeypatch):
    # a ray that is not a pseudo-valuation must not pass the re-verification
    monkeypatch.setattr(valuations, "cone_rays", lambda eqs, ineqs, n: (PHI_WEAK,))
    with pytest.raises(ConsistencyAlarmError):
        valuation_cone(conda5)


def test_equations_shape(conda5):
    eqs, ineqs = valuation_equations(conda5)
    assert len(eqs) == 1
    assert len(ineqs) == 2 * conda5.size ** 2


def test_random_cone_points_pv_iff_commutative(conda5):
    """On this algebra every pseudo-valuation is commutative, even though
    the algebra itself is not commutative; checked on 20 reproducible
    random rational cone points."""
    rng = random.Random(20260824)
    for _ in range(20):
        alpha = F(rng.randint(0, 40), rng.randint(1, 8))
        beta = F(rng.randint(0, 40), rng.randint(1, 8))
        phi = tuple(alpha * x + beta * y for x, y in zip(RAY_AD, RAY_BC))
        assert is_pseudo_valuation(conda5, phi)
        assert is_commutative_pv(conda5, phi)
        rep = characterization_crosscheck(conda5, phi)
        assert rep.pv_equivalence_agrees and rep.cpv_equivalence_agrees


def test_kernels(conda5):
    assert valuation_kernel(conda5, PHI_1_3) == parse_subset(conda5, "{1}")
    assert valuation_kernel(conda5, RAY_BC) == parse_subset(conda5, "{1,a,d}")
    assert valuation_kernel(conda5, RAY_AD) == parse_subset(conda5, "{1,b,c}")


def test_kernel_alarms(conda5, monkeypatch):
    monkeypatch.setattr(valuations, "is_fantastic", lambda a, d: False)
    with pytest.raises(ConsistencyAlarmError, match="fantastic"):
        valuation_kernel(conda5, PHI_1_3)
    monkeypatch.setattr(valuations, "is_deductive_system", lambda a, d: False)
    with pytest.raises(ConsistencyAlarmError, match="deductive system"):
        valuation_kernel(conda5, PHI_1_3)


@pytest.mark.parametrize("transport", [pullback, pushforward])
def test_transport_alarms(conda5, monkeypatch, transport):
    f = identity_hom(conda5)
    fresh = iter(range(100))  # a different kernel on every call
    monkeypatch.setattr(valuations, "valuation_kernel", lambda a, phi: frozenset({next(fresh)}))
    with pytest.raises(ConsistencyAlarmError, match="kernel"):
        transport(f, PHI_1_3)
    monkeypatch.setattr(valuations, "is_pseudo_valuation", lambda a, phi: False)
    with pytest.raises(ConsistencyAlarmError, match="not a pseudo-valuation"):
        transport(f, PHI_1_3)


def test_pullback_identity(conda5):
    psi = pullback(identity_hom(conda5), PHI_1_3)
    assert psi == PHI_1_3


def test_pullback_collapsing_hom(conda5):
    # endomorphism with image {1, b, c}
    f = Homomorphism(conda5, conda5, (0, 0, 2, 2, 0))
    psi = pullback(f, RAY_AD)
    # a, d map into the kernel of RAY_AD, so psi vanishes there too
    assert psi == (F(0), F(0), F(0), F(0), F(0))
    psi2 = pullback(f, RAY_BC)
    assert psi2 == RAY_BC


def test_pushforward_requires_isomorphism(conda5):
    f = Homomorphism(conda5, conda5, (0, 0, 2, 2, 0))
    with pytest.raises(NotBijectiveError):
        pushforward(f, RAY_BC)


def test_pushforward_along_automorphism(conda5):
    psi = pushforward(identity_hom(conda5), PHI_1_3)
    assert psi == PHI_1_3


def test_commutative_witness_on_noncommutative_pv():
    """Some 4-element model carries a pseudo-valuation violating the
    commutativity bound, exercising the witness path; on any such
    witness the triple-quantified characterization must agree."""
    from pseudobe.finder import SearchConstraints, enumerate_models

    found = None
    for m in enumerate_models(SearchConstraints(size=4)):
        for phi in valuation_cone(m):
            if commutative_pv_witness(m, phi) is not None:
                found = (m, phi)
                break
        if found:
            break
    assert found is not None
    m, phi = found
    rep = characterization_crosscheck(m, phi)
    assert rep.is_pv and rep.is_commutative is False
    assert not rep.cpv3_cpv4
    assert rep.cpv_equivalence_agrees
