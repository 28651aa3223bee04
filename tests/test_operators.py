"""Internal states and state-morphism operators on the fixture files.

The expected operator families below were frozen from an unpruned n^n
enumeration and hand-checked against the defining axioms.
"""

import itertools

import pytest

from conftest import count_map_search
from oracles import homomorphism_maps
from pseudobe import homs, operators
from pseudobe.algebra import FiniteAlgebra, check_axioms
from pseudobe.dsystems import ConsistencyAlarmError
from pseudobe.homs import PreconditionError, SizeGuardError, enumerate_homomorphisms
from pseudobe.operators import (
    as_endomorphism,
    enumerate_internal_states,
    enumerate_smo,
    internal_state_witness,
    is_internal_state,
    is_smo,
    kernel_image,
    parse_operator,
    smo_witness,
)


def _ops(a, rows):
    return {tuple(a.index(t) for t in row.split()) for row in rows}


# images in carrier order 1 a b c d
IS_ROWS = [
    "1 a a a a",
    "1 b b b b",
    "1 c c c c",
    "1 d d d d",
    "1 d c c d",
    "1 1 b b 1",
    "1 1 c c 1",
    "1 a 1 1 a",
    "1 d 1 1 d",
    "1 1 1 1 1",
]

SMO_ROWS = [
    "1 d c c d",
    "1 1 b b 1",
    "1 1 c c 1",
    "1 a 1 1 a",
    "1 d 1 1 d",
    "1 1 1 1 1",
    "1 a b c d",
    "1 a c c d",
    "1 d b c d",
]


def test_internal_state_families(conda5):
    expected = _ops(conda5, IS_ROWS)
    assert set(enumerate_internal_states(conda5, "I")) == expected
    assert set(enumerate_internal_states(conda5, "II")) == expected


def test_enumeration_pruning_audit(conda5):
    for kind in ("I", "II"):
        assert enumerate_internal_states(
            conda5, kind
        ) == enumerate_internal_states(conda5, kind, audit=True)


def test_pruned_searches_match_product_on_small_inputs(small_inputs):
    for a in small_inputs:
        for kind in ("I", "II"):
            assert enumerate_internal_states(a, kind) == enumerate_internal_states(
                a, kind, audit=True
            ), (a.name, kind)
        product = itertools.product(range(a.size), repeat=a.size)
        assert enumerate_smo(a) == tuple(mu for mu in product if is_smo(a, mu)), a.name


def test_no_unit_forcing_outside_pseudo_be(constant2):
    # no condition (A) and no x -> x = 1: mu(1) = 1 must not be assumed
    for kind in ("I", "II"):
        assert enumerate_internal_states(constant2, kind) == enumerate_internal_states(
            constant2, kind, audit=True
        )


def _goedel_chain(n):
    """The n-element Goedel chain 0 < c1 < ... < 1 as a BE algebra:
    x -> y = 1 if x <= y, else y."""
    rank = [n - 1] + list(range(n - 1))  # carrier 1, c0, ..., c(n-2)
    table = tuple(
        tuple(0 if rank[x] <= rank[y] else y for y in range(n)) for x in range(n)
    )
    tokens = ("1",) + tuple(f"c{i}" for i in range(n - 1))
    return FiniteAlgebra(f"goedel{n}", tokens, table, table, 0, 1)


def test_nine_element_chain_needs_no_product_scan(monkeypatch):
    g = _goedel_chain(9)
    assert check_axioms(g, "pseudo-BE").holds
    with monkeypatch.context() as patch:
        work = count_map_search(patch, homs, operators)
        endos = enumerate_homomorphisms(g, g)
        smo = enumerate_smo(g)
        enumerate_internal_states(g, "II")
    # measured: 18,846 check calls and 514 leaves (256 + 256 endomorphisms,
    # 2 internal states), against 9^9 = 387,420,489 maps in the product scan
    assert work["check"] < 20_000
    assert work["leaves"] <= 514
    # an endomorphism fixes 1, is injective on the elements it does not
    # send to 1, and those form a down-set: one per subset of the 8
    # non-unit elements; the idempotent ones are the identity below a cut
    assert len(endos) == 2**8
    assert len(smo) == 9
    with pytest.raises(SizeGuardError):
        enumerate_internal_states(g, "II", audit=True)
    with pytest.raises(SizeGuardError):
        homomorphism_maps(g, g)


def test_smo_family(conda5):
    assert set(enumerate_smo(conda5)) == _ops(conda5, SMO_ROWS)


def test_smo_not_subset_of_internal_states(conda5):
    smo = set(enumerate_smo(conda5))
    internal = set(enumerate_internal_states(conda5, "I"))
    assert smo - internal  # e.g. the identity map
    identity = tuple(range(conda5.size))
    assert identity in smo and identity not in internal


def test_witness_tags(conda5):
    mu = (0, 2, 1, 1, 2)  # crosses the two blocks: breaks (is3)
    assert internal_state_witness(conda5, mu, "I") == ("is3", (0, 1))
    swap = (0, 4, 2, 3, 1)  # transposes a and d
    assert smo_witness(conda5, swap) == ("hom-arrow", (2, 1))


def test_witness_is_the_first_pair_then_the_arrow_twin(bck4, conda5):
    # later pairs fail too, and on bck4 (1 a b c) the (is2) ~> twin fails
    # at an earlier pair than the -> twin: the witness is the first pair
    assert internal_state_witness(conda5, (0, 0, 0, 1, 1), "I") == ("is1", (1, 4))
    assert internal_state_witness(bck4, (0, 1, 0, 0), "I") == ("is2", (2, 1))
    assert internal_state_witness(bck4, (0, 1, 0, 0), "II") == ("is2'", (2, 1))


def test_invalid_kind(conda5):
    with pytest.raises(ValueError):
        internal_state_witness(conda5, tuple(range(5)), "III")


def test_kernels_and_images(conda5):
    from pseudobe.dsystems import parse_subset

    expected_kernels = {
        "1 a a a a": "{1}",
        "1 b b b b": "{1}",
        "1 c c c c": "{1}",
        "1 d d d d": "{1}",
        "1 d c c d": "{1}",
        "1 1 b b 1": "{1,a,d}",
        "1 1 c c 1": "{1,a,d}",
        "1 a 1 1 a": "{1,b,c}",
        "1 d 1 1 d": "{1,b,c}",
        "1 1 1 1 1": "{1,a,b,c,d}",
    }
    for row, ker_text in expected_kernels.items():
        mu = tuple(conda5.index(t) for t in row.split())
        ker, img = kernel_image(conda5, mu)
        assert ker == parse_subset(conda5, ker_text), row
        assert ker & img == {conda5.unit}


def test_kernel_image_precondition(conda5):
    mu = (0, 2, 1, 1, 2)
    assert not is_internal_state(conda5, mu, "I")
    assert not is_smo(conda5, mu)
    with pytest.raises(PreconditionError):
        kernel_image(conda5, mu)


def test_kernel_image_alarms(conda5, monkeypatch):
    # with the internal-state test forced true, operators that are not
    # internal states reach the re-checks of kernel and image
    monkeypatch.setattr(operators, "is_internal_state", lambda a, mu, kind: True)
    monkeypatch.setattr(operators, "is_deductive_system", lambda a, d: False)
    with pytest.raises(ConsistencyAlarmError, match="deductive system"):
        kernel_image(conda5, tuple(range(conda5.size)))
    monkeypatch.setattr(operators, "is_deductive_system", lambda a, d: True)
    with pytest.raises(ConsistencyAlarmError, match="not closed"):
        kernel_image(conda5, (0, 2, 1, 1, 2))  # a -> b = c leaves {1,a,b}
    with pytest.raises(ConsistencyAlarmError, match="meet"):
        kernel_image(conda5, (1, 0, 2, 3, 4))  # swaps 1 and a


def test_smo_as_endomorphism(conda5):
    from pseudobe.homs import is_homomorphism

    for mu in enumerate_smo(conda5):
        assert is_homomorphism(as_endomorphism(conda5, mu))


def test_parse_operator_file(conda5):
    # lines in any order, with comments and blank lines
    text = "# a, d to 1 and c to b\nmap 1->1\nmap a->1\n\nmap c->b  # with b\nmap b->b\nmap d->1\n"
    assert parse_operator(conda5, text) == (0, 0, 2, 2, 0)


def test_parse_operator_rejects_partial(conda5):
    with pytest.raises(ValueError, match="cover"):
        parse_operator(conda5, "map 1->1\n")


def test_parse_operator_rejects_repeated_element(conda5):
    text = "map 1->1\nmap a->a\nmap b->b\nmap c->c\nmap d->d\nmap b->1\n"
    with pytest.raises(ValueError, match="twice"):
        parse_operator(conda5, text)


def test_identity_and_constant_unit_are_smo(bck4, proper6, bounded6, conda5):
    for a in (bck4, proper6, bounded6, conda5):
        assert is_smo(a, tuple(range(a.size)))
        assert is_smo(a, (a.unit,) * a.size)
