"""Homomorphisms: verification, transport of deductive systems, and the
pruned enumeration audited against the full product filter."""

import pytest

from oracles import homomorphism_maps
from pseudobe import homs
from pseudobe.dsystems import ConsistencyAlarmError, parse_subset, quotient
from pseudobe.homs import (
    Homomorphism,
    NotAHomomorphismError,
    PreconditionError,
    check_hom_properties,
    enumerate_homomorphisms,
    hom_witness,
    identity_hom,
    image_ds,
    is_homomorphism,
    kernel,
    parse_hom,
    preimage_ds,
)


def test_identity_is_homomorphism(conda5):
    f = identity_hom(conda5)
    assert is_homomorphism(f)
    props = check_hom_properties(f)
    assert props["preserves_unit"] and props["monotone"]


def test_non_homomorphism_witness(conda5):
    # constant-unit map is a homomorphism only onto trivial targets; swap
    # two non-unit elements instead to break preservation
    m = list(range(conda5.size))
    m[conda5.index("a")], m[conda5.index("b")] = m[conda5.index("b")], m[conda5.index("a")]
    f = Homomorphism(conda5, conda5, tuple(m))
    assert not is_homomorphism(f)
    # ~> fails at (a,b) before -> fails at (c,a): the witness is the first pair
    assert hom_witness(Homomorphism(conda5, conda5, (0, 1, 1, 0, 0))) == ("squig", (1, 2))


def test_enumeration_matches_audit(bck4, conda5):
    for a in (bck4, conda5):
        pruned = enumerate_homomorphisms(a, a)
        assert [f.map for f in pruned] == sorted(homomorphism_maps(a, a))


def test_pruned_search_matches_product_on_small_inputs(small_inputs):
    for a in small_inputs:
        pruned = [f.map for f in enumerate_homomorphisms(a, a)]
        assert pruned == homomorphism_maps(a, a), a.name


def test_no_unit_forcing_outside_pseudo_be(constant2):
    # x -> x = 1 fails here, so f(1) = 1 is no theorem: 1->a, a->a is a
    # homomorphism that a search forcing f(1) = 1 would miss
    maps = [f.map for f in enumerate_homomorphisms(constant2, constant2)]
    assert maps == [(0, 1), (1, 1)]
    assert maps == homomorphism_maps(constant2, constant2)


def test_conda5_endomorphisms_contain_smo_maps(conda5):
    endos = {f.map for f in enumerate_homomorphisms(conda5, conda5)}
    assert (0, 0, 2, 2, 0) in endos
    assert (0, 1, 2, 3, 4) in endos


def test_iso_search(conda5, bck4):
    autos = enumerate_homomorphisms(conda5, conda5, iso_only=True)
    assert [f.map for f in autos] == [(0, 1, 2, 3, 4)]
    assert enumerate_homomorphisms(bck4, conda5, iso_only=True) == ()


def test_kernel_and_preimage(conda5):
    # project onto the image {1, b, c} via the idempotent endomorphism
    mu = (0, 0, 2, 2, 0)
    f = Homomorphism(conda5, conda5, mu)
    assert kernel(f) == parse_subset(conda5, "{1,a,d}")
    pre = preimage_ds(f, parse_subset(conda5, "{1}"))
    assert pre == parse_subset(conda5, "{1,a,d}")


def test_image_ds_preconditions(conda5):
    f = identity_hom(conda5)
    d = parse_subset(conda5, "{1,a,d}")
    assert image_ds(f, d) == d
    mu = (0, 0, 2, 2, 0)  # not surjective onto conda5
    g = Homomorphism(conda5, conda5, mu)
    with pytest.raises(PreconditionError):
        image_ds(g, d)


def test_transport_preconditions(conda5):
    f = identity_hom(conda5)
    not_ds = parse_subset(conda5, "{1,a}")
    with pytest.raises(PreconditionError, match="^E is not a deductive system of the target$"):
        preimage_ds(f, not_ds)
    with pytest.raises(PreconditionError, match="^D is not a deductive system of the source$"):
        image_ds(f, not_ds)
    # the projection onto conda5 / {1,a,d} is surjective with kernel {1,a,d}
    q = quotient(conda5, parse_subset(conda5, "{1,a,d}"))
    pi = Homomorphism(conda5, q.quotient, q.projection)
    with pytest.raises(PreconditionError, match=r"^Ker\(f\) is not contained in D$"):
        image_ds(pi, parse_subset(conda5, "{1}"))


def test_kernel_requires_homomorphism(conda5):
    m = list(range(conda5.size))
    m[1], m[2] = m[2], m[1]
    with pytest.raises(NotAHomomorphismError):
        kernel(Homomorphism(conda5, conda5, tuple(m)))


def test_parse_hom_file(conda5):
    # lines in any order, with comments and blank lines
    text = "# a, d to 1 and c to b\nhom 1->1\nhom a->1\n\nhom c->b  # with b\nhom b->b\nhom d->1\n"
    assert parse_hom(conda5, conda5, text).map == (0, 0, 2, 2, 0)


def test_parse_hom_rejects_partial(conda5):
    with pytest.raises(ValueError, match="cover"):
        parse_hom(conda5, conda5, "hom 1->1\n")


def test_parse_hom_rejects_repeated_element(conda5):
    text = "hom 1->1\nhom a->a\nhom b->b\nhom c->c\nhom d->d\nhom a->1  # a again\n"
    with pytest.raises(ValueError, match="twice"):
        parse_hom(conda5, conda5, text)


def test_ds_transport_alarms(conda5, monkeypatch):
    # the transported set is re-checked; a failing re-check is an alarm,
    # not a silently wrong answer (the hypotheses are checked first)
    f = identity_hom(conda5)
    d = parse_subset(conda5, "{1,a,d}")
    calls = []

    def second_call_fails(a, e):
        calls.append(e)
        return len(calls) == 1

    monkeypatch.setattr(homs, "is_deductive_system", second_call_fails)
    with pytest.raises(ConsistencyAlarmError, match="preimage"):
        preimage_ds(f, d)
    calls.clear()
    with pytest.raises(ConsistencyAlarmError, match="image"):
        image_ds(f, d)


def test_search_maps_streams_in_lexicographic_order():
    everything = homs.search_maps([range(2)] * 2, lambda f, k: True, lambda f: f)
    assert next(everything) == (0, 0)
    assert list(everything) == [(0, 1), (1, 0), (1, 1)]
    # no points: the empty map is the one candidate
    assert list(homs.search_maps([], lambda f, k: True, lambda f: f)) == [()]
    assert list(homs.search_maps([], lambda f, k: True, lambda f: None)) == []
    # pruning each value below its predecessor keeps exactly the monotone maps
    three = [range(3)] * 3
    monotone = homs.search_maps(three, lambda f, k: k == 0 or f[k - 1] <= f[k], lambda f: f)
    assert list(monotone) == list(
        homs.scan_maps(three, lambda f: f if f[0] <= f[1] <= f[2] else None)
    )
    # each point takes only its own values, ranked as its domain lists them
    domains = [(2, 0), (1,), (), (0,)]
    assert list(homs.search_maps(domains, lambda f, k: True, lambda f: f)) == []
    assert list(homs.scan_maps(domains, lambda f: f)) == []
    domains[2] = (1, 0)
    everything = [(2, 1, 1, 0), (2, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 0)]
    assert list(homs.search_maps(domains, lambda f, k: True, lambda f: f)) == everything
    assert list(homs.scan_maps(domains, lambda f: f)) == everything


@pytest.mark.parametrize("search", ["search_maps", "scan_maps"])
def test_map_searches_stream_what_accept_returns(search):
    """Both searches stream ``accept(f)`` in the order of f and skip only a
    None: every other value, a falsy one too, is streamed as it is."""

    def stream(domains, accept):
        if search == "search_maps":
            return list(homs.search_maps(domains, lambda f, k: True, accept))
        return list(homs.scan_maps(domains, accept))

    domains = [(2, 0), (1, 0)]
    order = [(2, 1), (2, 0), (0, 1), (0, 0)]
    assert stream(domains, lambda f: f) == order
    assert stream(domains, lambda f: None) == []
    # None is skipped; 0, (), False and "" are values like any other
    verdicts = dict(zip(order, (None, 0, (), None)))
    assert stream(domains, verdicts.get) == [0, ()]
    assert stream(domains, lambda f: f[0] - 2 if f[1] else None) == [0, -2]
    assert stream(domains, lambda f: False if f == (0, 0) else "") == ["", "", "", False]
    # the stream holds the object accept returned, not a copy
    token = object()
    assert stream([(0,)], lambda f: token)[0] is token


def test_scan_maps_guard_trips_at_first_next():
    maps = homs.scan_maps([range(8)] * 8, lambda f: True)  # 8^8 > SEARCH_GUARD
    with pytest.raises(homs.SizeGuardError):
        next(maps)


def test_enumerators_return_tuples(conda5):
    from pseudobe.operators import enumerate_internal_states, enumerate_smo

    assert isinstance(enumerate_homomorphisms(conda5, conda5), tuple)
    for audit in (False, True):
        for kind in ("I", "II"):
            assert isinstance(enumerate_internal_states(conda5, kind, audit=audit), tuple)
    assert isinstance(enumerate_smo(conda5), tuple)
