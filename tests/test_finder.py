"""Model enumeration: frozen counts, audit mode, canonicity, and the
meta-theorem sweep."""

import time

import pytest

from pseudobe import finder
from pseudobe.algebra import (
    FiniteAlgebra,
    check_axioms,
    classify,
    parse_algebra,
    serialize_algebra,
)
from pseudobe.dsystems import format_subset
from pseudobe.finder import (
    CounterexampleError,
    SearchConstraints,
    canonical_tables,
    detect_bottom,
    enumerate_models,
    verify_meta_theorems,
    with_detected_bottom,
)
from pseudobe.homs import SizeGuardError, enumerate_homomorphisms
from pseudobe.states import state_kernel, state_space

# frozen regression values from the exhaustive enumeration (audit mode
# agrees at n <= 3)
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 77}
EXPECTED_N3 = {"proper": 0, "commutative": 2, "pseudo-BCK": 3}
EXPECTED_N4 = {"proper": 26, "commutative": 5, "pseudo-BCK": 17}


def _models(n, **kw):
    return list(enumerate_models(SearchConstraints(size=n, **kw)))


def test_counts():
    for n, count in EXPECTED_COUNTS.items():
        assert len(_models(n)) == count, n


def test_flag_counts():
    for flag, count in EXPECTED_N3.items():
        assert len(_models(3, flags=(flag,))) == count, flag
    for flag, count in EXPECTED_N4.items():
        assert len(_models(4, flags=(flag,))) == count, flag


def test_audit_agrees_up_to_three():
    for n in (1, 2, 3):
        pruned = _models(n)
        audited = list(
            enumerate_models(SearchConstraints(size=n), audit=True)
        )
        assert [(m.arrow, m.squig) for m in pruned] == [
            (m.arrow, m.squig) for m in audited
        ]


def test_flagged_search_equals_filtered_search():
    """The declarations of an axiom-system flag prune inside the search;
    the models and their order, and the labelled table pairs, are those of
    the unflagged search filtered by the flag."""

    def labelled(n, flags=()):
        return list(finder._table_pairs(SearchConstraints(size=n, flags=flags), False))

    assert [len(labelled(n)) for n in (1, 2, 3, 4)] == [1, 1, 6, 388]
    for n in (1, 2, 3, 4):
        unflagged = _models(n)
        pairs = labelled(n)
        for flag in ("pseudo-BE", "pseudo-BCK", "condition-A", "distributive", "commutative"):
            want = [m.name for m in unflagged if check_axioms(m, flag).holds]
            assert [m.name for m in _models(n, flags=(flag,))] == want, (n, flag)
            algebras = [FiniteAlgebra("p", tuple("1abc"[:n]), *p, 0) for p in pairs]
            holds = [p for p, a in zip(pairs, algebras) if check_axioms(a, flag).holds]
            assert labelled(n, (flag,)) == holds, (n, flag)


def test_all_models_are_pseudo_be():
    for m in _models(4):
        assert check_axioms(m, "pseudo-BE").holds


def test_emitted_models_are_canonical():
    for m in _models(3):
        assert canonical_tables(m.arrow, m.squig, m.unit) == (m.arrow, m.squig)


def test_no_two_models_isomorphic():
    models = _models(3)
    for i, a in enumerate(models):
        for b in models[i + 1 :]:
            assert enumerate_homomorphisms(a, b, iso_only=True) == ()


def test_round_trip():
    for m in _models(3):
        assert parse_algebra(serialize_algebra(m)) == m


def test_limit():
    assert len(_models(4, limit=5)) == 5
    assert _models(3, limit=0) == []
    with pytest.raises(ValueError, match="limit"):
        SearchConstraints(size=3, limit=-1)


def test_meta_sweep_rejects_size_below_one():
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="max size"):
            verify_meta_theorems(n_max)


def test_size_guard():
    with pytest.raises(SizeGuardError):
        list(enumerate_models(SearchConstraints(size=6)))
    with pytest.raises(SizeGuardError):
        verify_meta_theorems(5)
    # 16^6 table pairs: the audit scan refuses instead of running for hours
    audit4 = enumerate_models(SearchConstraints(size=4), audit=True)
    with pytest.raises(SizeGuardError):
        next(audit4)


def test_size_five_search_streams():
    # the whole size-5 search takes minutes; its first models must not wait for it
    start = time.perf_counter()
    assert len(_models(5, limit=5)) == 5
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    first = next(enumerate_models(SearchConstraints(size=5)))
    assert time.perf_counter() - start < 1.0
    assert check_axioms(first, "pseudo-BE").holds


def test_invalid_flag():
    with pytest.raises(ValueError):
        SearchConstraints(size=3, flags=("shiny",))


def test_detect_bottom(conda5, bounded6):
    assert detect_bottom(conda5) is None
    assert detect_bottom(bounded6) == bounded6.bottom
    promoted = with_detected_bottom(bounded6)
    assert promoted.bottom == bounded6.bottom


def test_bounded_flag_declares_bottom():
    for m in _models(3, flags=("bounded",)):
        assert m.bottom is not None
        assert classify(m).bounded


def test_meta_sweep_vacuous():
    rep = verify_meta_theorems(1)
    assert rep.clean and rep.models == 1


def test_meta_sweep_three():
    rep = verify_meta_theorems(3)
    assert rep.clean
    assert rep.models == sum(EXPECTED_COUNTS[n] for n in (1, 2, 3))
    for stat in rep.stats.values():
        assert stat.checked == rep.models
        assert stat.counterexamples == 0


@pytest.mark.slow
def test_meta_sweep_four():
    rep = verify_meta_theorems(4)
    assert rep.clean
    assert rep.models == sum(EXPECTED_COUNTS.values())


def test_meta_sweep_counterexample(monkeypatch):
    monkeypatch.setattr(finder, "weak_pv_witness", lambda a, phi: ("pv6", (0, 0)))
    with pytest.raises(CounterexampleError) as exc:
        verify_meta_theorems(3)
    message = str(exc.value)
    assert message.startswith("pv-implies-weak-pv: pv that is not a weak pv\n")
    assert "algebra n2_5539bae4a742\n" in message

    rep = verify_meta_theorems(3, allow_counterexamples=True)
    assert not rep.clean
    failed = rep.stats["pv-implies-weak-pv"]
    # every model but the one-element one has a nonzero pseudo-valuation
    assert (failed.checked, failed.counterexamples) == (6, 5)
    assert failed.first_witness == message.split(": ", 1)[1]
    for tag, stat in rep.stats.items():
        if tag != "pv-implies-weak-pv":
            assert (stat.counterexamples, stat.first_witness) == (0, None), tag


def test_meta_sweep_reports_first_counterexample(monkeypatch):
    # on the four-element Boolean algebra two state kernels with s(0) = 0
    # differ; with every kernel failing, the first vertex's is the witness
    model = next(m for m in _models(4) if m.name == "n4_93090b9292cf")
    bottom = detect_bottom(model)
    kernels = [state_kernel(model, v) for v in state_space(model).vertices if v[bottom] == 0]
    assert kernels[0] != kernels[-1]
    monkeypatch.setattr(finder, "is_involutive_ds", lambda a, d: False)
    witness = finder._check_model(model)["bounded-state-kernels-involutive"]
    first = format_subset(model, kernels[0])
    assert witness == f"state kernel {first} not involutive\n{serialize_algebra(model)}"
