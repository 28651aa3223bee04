"""Model enumeration: frozen counts, audit mode, canonicity, and the
meta-theorem sweep."""

import collections
import hashlib
import io
import math
from contextlib import redirect_stdout
from dataclasses import replace
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conftest import count_map_search, is_linear
from pseudobe import algebra, cli, finder, linalg, states, valuations
from pseudobe.algebra import (
    _SYSTEM_AXIOMS,
    FiniteAlgebra,
    _identity,
    check_axioms,
    classify,
    parse_algebra,
    serialize_algebra,
)
from pseudobe.dsystems import enumerate_ds, format_subset
from pseudobe.finder import (
    SearchConstraints,
    canonical_tables,
    detect_bottom,
    enumerate_models,
    verify_meta_theorems,
    with_detected_bottom,
)
from pseudobe.homs import SizeGuardError, enumerate_homomorphisms
from pseudobe.operators import enumerate_internal_states
from pseudobe.states import _state_terms, _unit_free_rows, state_kernel, state_space
from pseudobe.valuations import _valuation_terms, valuation_cone

# frozen regression values from the exhaustive enumeration (audit mode
# agrees at n <= 4)
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 77}
EXPECTED_N3 = {"proper": 0, "commutative": 2, "pseudo-BCK": 3, "linear": 2}
EXPECTED_N4 = {"proper": 26, "commutative": 5, "pseudo-BCK": 17, "linear": 10}


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


@pytest.mark.slow
def test_audit_agrees_at_four(monkeypatch):
    """The unpruned scan of the 10^6 maps of the size-4 domains confirms the
    search's 388 labelled leaves, in the same order, and emits its 77
    names in order."""
    runs = {}
    for audit in (False, True):
        with monkeypatch.context() as patched:
            seen = _record_leaves(patched)
            names = [m.name for m in enumerate_models(SearchConstraints(4), audit=audit)]
        runs[audit] = names, seen["confirmed"]
    assert runs[True] == runs[False]
    assert (len(runs[True][0]), len(runs[True][1])) == (77, 388)


def test_search_domains_follow_the_axioms_written_out(monkeypatch):
    """psBE1-3 and psBE5 written out by hand for unit 0 and n <= 5: the unit
    row (1 -> x = x), the unit column (x -> 1 = 1) and the diagonal
    (x -> x = 1) are fixed in both tables, and each other cell, in
    row-major order, is handed to the search and to its audit with the
    pairs that psBE5 allows it (with the BE flag, the equal ones).  Every
    leaf the search tests is the fixed cells plus its map's pairs."""
    real = finder.search_maps
    for n in range(1, 6):
        rng = range(n)
        free = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]
        fixed = {(0, x): (x, x) for x in rng}
        fixed |= {(x, 0): (0, 0) for x in rng} | {(x, x): (0, 0) for x in rng}
        for flags in ((), ("BE",)):
            # a value pair arrow * n + squig: both entries the unit 0 or
            # neither (psBE5), and with BE equal entries
            domain = [
                a * n + s
                for a in rng
                for s in rng
                if (a == 0) == (s == 0) and (a == s or not flags)
            ]
            handed = []

            def recorded(domains, *args):
                handed.append(domains)
                return iter(())

            with monkeypatch.context() as patched:
                patched.setattr(finder, "search_maps", recorded)
                patched.setattr(finder, "scan_maps", recorded)
                for audit in (False, True):
                    finder._table_pairs(SearchConstraints(n, flags), audit)
            assert handed == [[domain] * len(free)] * 2, (n, flags)

            maps, leaves = [], []

            def leaf_maps(domains, check, accept):
                return real(domains, check, lambda f: maps.append(f) or accept(f))

            def holds(arrow, squig, unit, system):
                leaves.append({(x, y): (arrow[x][y], squig[x][y]) for x in rng for y in rng})
                return algebra._holds(arrow, squig, unit, system)

            with monkeypatch.context() as patched:
                patched.setattr(finder, "search_maps", leaf_maps)
                patched.setattr(finder, "_holds", holds)
                list(enumerate_models(SearchConstraints(n, flags, 20 if n == 5 else None)))
            assert len(maps) == len(leaves) > 0
            for f, tables in zip(maps, leaves):
                assert tables == {**fixed, **{c: divmod(p, n) for c, p in zip(free, f)}}


def test_be_flag_prunes_inside_the_search(monkeypatch):
    """The BE identity x -> y = x ~> y reads one cell, so the BE flag narrows
    each free cell to its equal pairs: the flagged search and its audit emit
    the unflagged search's BE models in order, after confirming its BE
    leaves, and the search makes fewer check calls."""
    for n in (1, 2, 3, 4):
        with monkeypatch.context() as patched:
            seen = _record_leaves(patched)
            unflagged = _models(n)
            be_leaves = [(a, s) for a, s in seen["confirmed"] if a == s]
            seen["confirmed"].clear()
            be = [m.name for m in _models(n, flags=("BE",))]
        assert seen["confirmed"] == be_leaves, n
        assert be == [m.name for m in unflagged if m.arrow == m.squig], n
        audited = enumerate_models(SearchConstraints(n, ("BE",)), audit=True)
        assert [m.name for m in audited] == be, n
    assert len(be) == 51
    calls = [_record_search(monkeypatch, SearchConstraints(4, f))[0] for f in (("BE",), ())]
    assert calls[0] < calls[1]


def _record_leaves(monkeypatch):
    """Wrap ``finder._holds`` and ``finder._freeze``.  The returned dict
    lists, in visit order, the labelled pairs (leaves) that ``_holds``
    confirms as pseudo-BE, frozen here, and the pairs the search freezes."""
    seen = {"confirmed": [], "frozen": []}
    real_holds, real_freeze = finder._holds, finder._freeze

    def holds(arrow, squig, unit, system):
        verdict = real_holds(arrow, squig, unit, system)
        if verdict and system == "pseudo-BE":
            seen["confirmed"].append(real_freeze(arrow, squig, {}))
        return verdict

    def freeze(arrow, squig, interned):
        pair = real_freeze(arrow, squig, interned)
        seen["frozen"].append(pair)
        return pair

    monkeypatch.setattr(finder, "_holds", holds)
    monkeypatch.setattr(finder, "_freeze", freeze)
    return seen


def test_flagged_search_equals_filtered_search(monkeypatch):
    """The declarations of an axiom-system flag, and linear's identities,
    prune inside the search; the models and their order, and the labelled
    table pairs that the search confirms, are those of the unflagged search
    filtered by the flag (``check_axioms`` for a system, ``classify`` for
    linear)."""

    def labelled(n, flags=()):
        with monkeypatch.context() as patched:
            seen = _record_leaves(patched)
            list(finder._table_pairs(SearchConstraints(size=n, flags=flags), False))
        return seen["confirmed"]

    def holds(a, flag):
        return classify(a).linear if flag == "linear" else check_axioms(a, flag).holds

    assert [len(labelled(n)) for n in (1, 2, 3, 4)] == [1, 1, 6, 388]
    flags = ("pseudo-BE", "pseudo-BCK", "condition-A", "distributive", "commutative", "linear")
    for n in (1, 2, 3, 4):
        unflagged = _models(n)
        pairs = labelled(n)
        algebras = [FiniteAlgebra("p", tuple("1abc"[:n]), *p, 0) for p in pairs]
        for flag in flags:
            want = [m.name for m in unflagged if holds(m, flag)]
            assert [m.name for m in _models(n, flags=(flag,))] == want, (n, flag)
            kept = [p for p, a in zip(pairs, algebras) if holds(a, flag)]
            assert labelled(n, (flag,)) == kept, (n, flag)


@pytest.mark.slow
def test_linear_flag_at_five_equals_filtered_models(size_five_models):
    """The linear search at n = 5 emits the 81 linear models of the full
    search, in its order, with linearity written out by hand."""
    want = [m.name for m in size_five_models if is_linear(m)]
    assert len(want) == 81
    assert [m.name for m in _models(5, flags=("linear",))] == want


# the flags that prune inside the search, and the identities each declares:
# an axiom system's, BE's one identity, or linear's totality and antisymmetry
PRUNING_FLAGS = (
    (), ("pseudo-BCK",), ("condition-A",), ("distributive",), ("commutative",), ("BE",),
    ("linear",),
)
DECLARED = {
    **_SYSTEM_AXIOMS,
    "BE": {"BE": "x -> y = x ~> y"},
    "linear": {
        "total": "x -> y = 1 | y -> x = 1",
        "antisymmetric": "x -> y = 1 & y -> x = 1 => x = y",
    },
}


def _record_search(monkeypatch, c, on_check=None):
    """Run ``enumerate_models(c)`` with the search's ``check`` and ``accept``
    wrapped.  Returns (check calls, accepted prefixes, leaves, digest), the
    digest hashing the accepted prefixes and the leaves in visit order.
    ``on_check(domains, f, k, verdict)`` sees every check call."""
    seen = {"calls": 0, "accepted": 0, "leaves": 0}
    digest = hashlib.sha256()
    real = finder.search_maps

    def recording(domains, check, accept):
        def checked(f, k):
            verdict = check(f, k)
            if on_check is not None:
                on_check(domains, f, k, verdict)
            seen["calls"] += 1
            if verdict:
                seen["accepted"] += 1
                digest.update(repr(f).encode())
            return verdict

        def leaf(f):
            seen["leaves"] += 1
            digest.update(b"L" + repr(f).encode())
            return accept(f)

        return real(domains, checked, leaf)

    monkeypatch.setattr(finder, "search_maps", recording)
    for _ in enumerate_models(c):
        pass
    monkeypatch.setattr(finder, "search_maps", real)
    return seen["calls"], seen["accepted"], seen["leaves"], digest.hexdigest()[:16]


def _linear_broken(arrow, n):
    """Written out for unit 0 on partial tables: some x != y with both arrow
    cells assigned where not exactly one of x -> y and y -> x is the unit."""
    return any(
        n != arrow[x][y] and n != arrow[y][x] and (arrow[x][y] == 0) == (arrow[y][x] == 0)
        for x in range(n)
        for y in range(n)
        if x != y
    )


def test_propagator_is_exact_on_every_visited_node(monkeypatch):
    """For n <= 4, with no flag and with each pruning flag, ``check(f, k)``
    answers on every node the search visits as a full scan would: whether
    any declared instance is violated on the partial tables of f[:k+1].
    Linear's instances are the rule written out by hand (``_linear_broken``),
    not its compiled declarations."""
    assert finder._FLAG_DECLARATIONS == DECLARED
    for n in (1, 2, 3, 4):
        # psBE1-3 with unit 0 fix row 0, column 0 and the diagonal; the
        # other cells are free, in row-major order, unassigned entries n
        free = [(x, y) for x in range(1, n) for y in range(1, n) if x != y]
        base = [[n] * (n + 1) for _ in range(n + 1)]
        for x in range(n):
            base[0][x], base[x][0], base[x][x] = x, 0, 0
        for flags in PRUNING_FLAGS:
            declared = [
                _identity(d)
                for s in ("pseudo-BE", *flags)
                if s != "linear"
                for d in DECLARED[s].values()
            ]

            def oracle(f):
                arrow, squig = [r[:] for r in base], [r[:] for r in base]
                for (x, y), p in zip(free, f):
                    arrow[x][y], squig[x][y] = divmod(p, n)
                if "linear" in flags and _linear_broken(arrow, n):
                    return False
                return not any(
                    any(violations(arrow, squig, 0, n, product(range(n), repeat=len(v))))
                    for v, _, violations, _ in declared
                )

            def compare(domains, f, k, verdict):
                assert len(domains) == len(free)
                assert verdict == oracle(f[: k + 1]), (n, flags, f)

            calls = _record_search(monkeypatch, SearchConstraints(n, flags), compare)[0]
            assert calls == SEARCH_TREES.get((n, flags, None), (0,))[0]


# (size, flags, limit): check calls, accepted prefixes, leaves and the digest
# of the visit.  Without the BE flag, the accepted prefixes, leaves and
# digests are those of the row-scan propagator, which tested every pending
# instance at each later cell in the rows it reads; the check calls count
# only the children that each cell's value-pair domain offers
SEARCH_TREES = {
    (3, (), None): (20, 9, 6, "39553931bc53f044"),
    (3, ("pseudo-BCK",), None): (20, 8, 5, "adb3bf43602f5c60"),
    (3, ("condition-A",), None): (20, 9, 6, "39553931bc53f044"),
    (3, ("distributive",), None): (15, 6, 4, "80c676184eba1402"),
    (3, ("commutative",), None): (20, 6, 3, "eafe45d280873987"),
    (4, (), None): (4870, 874, 388, "8d72b0fa1217bdcd"),
    (4, ("pseudo-BCK",), None): (3000, 384, 85, "a905c36b90fed04d"),
    (4, ("condition-A",), None): (4040, 627, 224, "dadb41b59029be74"),
    (4, ("distributive",), None): (1310, 192, 62, "3a50192e0e5bd0fb"),
    (4, ("commutative",), None): (1640, 182, 19, "9bebde1844d25bff"),
    (5, (), 3000): (305099, 28920, 10917, "9b9ba7aa97e56fb7"),
    (3, ("BE",), None): (12, 9, 6, "39553931bc53f044"),
    (4, ("BE",), None): (1108, 526, 250, "0d4f4c21a3f20ced"),
    (3, ("linear",), None): (20, 7, 4, "addb67fed474b3d7"),
    (4, ("linear",), None): (2320, 287, 56, "32d245cf97b70482"),
}


def test_search_tree_pinned(monkeypatch):
    """The watched-cell propagator visits the tree the row-scan propagator
    visited: the same nodes accepted and the same leaves, in the same order,
    for each axiom-system flag at n <= 4 and up to the 3000th size-5 model;
    and the searches of the BE and linear flags are pinned, too.  The
    linear search makes fewer check calls than the unflagged one."""
    for (n, flags, limit), want in SEARCH_TREES.items():
        assert _record_search(monkeypatch, SearchConstraints(n, flags, limit)) == want
    assert SEARCH_TREES[4, ("linear",), None][0] < SEARCH_TREES[4, (), None][0]


def test_all_models_are_pseudo_be():
    for m in _models(4):
        assert check_axioms(m, "pseudo-BE").holds


def test_emitted_models_are_canonical():
    for m in _models(3):
        assert canonical_tables(m.arrow, m.squig, m.unit) == (m.arrow, m.squig)


def test_early_exit_canonicity_equals_canonical_tables(monkeypatch):
    """On every labelled pair that the search confirms for n <= 4, and on
    those up to the 300th size-5 model, the early-exit test answers as the
    full canonical form, and the search streams exactly the canonical ones."""
    for n, limit in ((1, None), (2, None), (3, None), (4, None), (5, 300)):
        with monkeypatch.context() as patched:
            seen = _record_leaves(patched)
            streamed = [(m.arrow, m.squig) for m in enumerate_models(SearchConstraints(n, (), limit))]
        relabellings = finder._relabellings(n, 0)
        canonical = []
        for pair in seen["confirmed"]:
            want = canonical_tables(*pair, 0) == pair
            assert finder._is_canonical(*pair, relabellings) == want
            canonical += [pair] * want
        assert streamed == canonical, n
    assert len(streamed) == 300


@st.composite
def table_pairs(draw):
    n = draw(st.integers(1, 5))
    table = st.tuples(*[st.tuples(*[st.integers(0, n - 1)] * n)] * n)
    return draw(table), draw(table), draw(st.integers(0, n - 1))


@settings(deadline=None)
@given(table_pairs())
def test_early_exit_canonicity_on_random_tables(pair):
    """Any table pair and any unit, pseudo-BE or not: the early exit follows
    tuple order, arrow table first, and accepts every canonical image."""
    a, s, u = pair
    relabellings = finder._relabellings(len(a), u)
    best = canonical_tables(a, s, u)
    assert finder._is_canonical(a, s, relabellings) == (best == (a, s))
    assert finder._is_canonical(*best, relabellings)


def _labelled_pairs(models, n):
    """Each model of size n stands for (n-1)!/|Aut(A)| labelled pairs with
    unit 0: the relabellings that fix the unit, up to its automorphisms."""
    return sum(
        math.factorial(n - 1) // len(enumerate_homomorphisms(m, m, iso_only=True))
        for m in models
    )


def test_orbit_counting():
    """The emitted models account for every labelled pair: at n = 4 the 388
    labelled leaves that the search confirms."""
    for n, labelled in zip((1, 2, 3, 4), (1, 1, 6, 388)):
        assert _labelled_pairs(_models(n), n) == labelled, n


@pytest.mark.slow
def test_orbit_counting_at_five(size_five_models):
    """The same identity over the 9,698 models of size 5: the count of
    labelled pairs that an orderly cut of the search must still account
    for."""
    assert len(size_five_models) == 9698
    assert _labelled_pairs(size_five_models, 5) == 221_729


def test_find_size_four_output_pinned():
    """The names and the order of the 77 size-4 models."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.run(["find", "--size", "4"]) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "cc9a809bfaab4db82a920b2225edaafee0f8080fad39a85daeb9686b6497c1b9"


def test_models_share_rows_and_elements():
    """Equal rows and equal tables of the emitted models are one tuple
    object each, and all models share one carrier tuple."""
    models = _models(4)
    tables = [t for m in models for t in (m.arrow, m.squig)]
    rows = [r for t in tables for r in t]
    assert len({id(r) for r in rows}) == len(set(rows))
    # the BE models' two tables are equal
    assert len({id(t) for t in tables}) == len(set(tables)) < len(tables)
    assert len({id(m.elements) for m in models}) == 1


def test_every_labelled_pair_is_confirmed(monkeypatch):
    """The search confirms each labelled pair with the pseudo-BE scans
    (``algebra._holds``) before it tests its canonicity, and streams only
    confirmed pairs."""
    seen = _record_leaves(monkeypatch)
    tested = []
    real = finder._is_canonical

    def after_holds(arrow, squig, relabellings):
        tested.append((tuple(map(tuple, arrow)), tuple(map(tuple, squig))))
        assert tested[-1:] == seen["confirmed"][-1:]
        return real(arrow, squig, relabellings)

    monkeypatch.setattr(finder, "_is_canonical", after_holds)
    pairs = 0
    for pair in finder._table_pairs(SearchConstraints(size=4), False):
        assert pair in seen["confirmed"]
        pairs += 1
    assert len(seen["confirmed"]) == len(tested) == 388
    assert pairs == 77


def test_search_confirms_every_leaf_and_freezes_only_what_it_emits(monkeypatch):
    """``_holds`` confirms every leaf the search visits, and only the pairs
    the search streams are frozen: at n = 4 and up to the 3000th size-5
    model.  Running the canonicity test first would confirm fewer leaves."""
    cases = ((SearchConstraints(4), 388, 77), (SearchConstraints(5, (), 3000), 10_917, 3_000))
    for c, leaves, models in cases:
        with monkeypatch.context() as patched:
            seen = _record_leaves(patched)
            work = count_map_search(patched, finder)
            assert len(list(enumerate_models(c))) == models
        assert work["leaves"] == len(seen["confirmed"]) == leaves, c
        assert len(seen["frozen"]) == models, c


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


def test_search_size_below_one():
    with pytest.raises(ValueError, match="^size must be >= 1$"):
        SearchConstraints(0)


def test_meta_sweep_rejects_size_below_one():
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="max size"):
            verify_meta_theorems(n_max)


def test_size_guard():
    with pytest.raises(SizeGuardError):
        list(enumerate_models(SearchConstraints(size=6)))
    with pytest.raises(SizeGuardError):
        verify_meta_theorems(5)
    # 17^12 table pairs: the audit scan refuses instead of running for years
    audit5 = enumerate_models(SearchConstraints(size=5), audit=True)
    with pytest.raises(SizeGuardError):
        next(audit5)


def test_size_five_search_streams(monkeypatch):
    # the whole size-5 search makes 6,552,242 check calls over 221,729
    # leaves; its first models must not wait for it
    work = count_map_search(monkeypatch, finder)
    assert len(_models(5, limit=5)) == 5
    # measured: 204 check calls and 8 leaves
    assert work["check"] < 1_000 and work["leaves"] <= 8
    work.clear()
    first = next(enumerate_models(SearchConstraints(size=5)))
    # measured: 204 check calls and 1 leaf
    assert work["check"] < 1_000 and work["leaves"] == 1
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


def test_meta_sweep_runs_two_cone_engines_per_model(monkeypatch):
    """The state polytope and the pv cone are the sweep's only engine runs:
    the measure kernels come off the pv rays (``states.measure_face``), not
    off a third run in ``measure_cone``."""
    runs = collections.Counter()
    for module in (states, valuations):

        def counted(*args, _name=module.__name__, _run=module._cone):
            runs[_name] += 1
            return _run(*args)

        monkeypatch.setattr(module, "_cone", counted)

    def no_measure_cone(a):
        raise AssertionError("the sweep ran the measure cone's engine")

    monkeypatch.setattr(states, "measure_cone", no_measure_cone)
    monkeypatch.setattr(finder, "measure_cone", no_measure_cone, raising=False)
    assert verify_meta_theorems(4).models == 83
    # 166 = 2 x 83 cone calls; models with equal cones share one engine run
    # (test_sweep_runs_the_engine_once_per_distinct_row_set)
    assert runs == {"pseudobe.states": 83, "pseudobe.valuations": 83}


def _count_engine_runs(monkeypatch):
    """The list of ``num_vars`` of every ``_cone`` call that misses the
    shared cones: each miss, and nothing else, reads a null basis."""
    runs = []
    null_basis = linalg._null_basis

    def counted(reduced, pivots, num_vars):
        runs.append(num_vars)
        return null_basis(reduced, pivots, num_vars)

    monkeypatch.setattr(linalg, "_null_basis", counted)
    return runs


def _cones(a):
    return state_space(a).vertices, valuation_cone(a)


def test_shared_cones_equal_unshared_runs(monkeypatch):
    """Every model of size <= 4 gets the same state vertices and pv rays
    from the shared cones as from its own engine runs."""
    models = [m for n in range(1, 5) for m in _models(n)]
    unshared = [_cones(m) for m in models]
    runs = _count_engine_runs(monkeypatch)
    with linalg._shared_cones():
        shared = [_cones(m) for m in models]
    assert shared == unshared
    assert len(runs) < 2 * len(models)


def _primitive(row):
    g = math.gcd(*row)
    return tuple(v // g for v in row)


def _row_space(rows):
    """The nonzero rows of sympy's RREF of ``rows``: equal exactly when the
    row spaces are."""
    if not rows:
        return ()
    reduced, _ = sympy.Matrix(rows).rref()
    return tuple(r for r in map(tuple, reduced.tolist()) if any(r))


def _cone_keys(n):
    """The sweep's cones on the size-n models, counted here from
    ``_unit_free_rows``: the pv cones by their nonzero primitive rows, the
    state cones by their equality rows up to sign and by the row space of
    those rows, each with the number of variables.  The state polytope's
    inequalities, its homogenised unit box x >= 0, x <= t and t >= 0 with t
    the last of its n variables, are the same for every size-n model, so
    its row space alone tells its cones apart."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    box = frozenset(
        unit[:-1] + [tuple(t - e for t, e in zip(unit[-1], x)) for x in unit[:-1]] + unit[-1:]
    )
    pv, state_sets, state_spaces = set(), set(), set()
    for a in _models(n):
        pv_rows = _unit_free_rows(a, _valuation_terms(a), n - 1)
        state_rows = list(map(_primitive, filter(any, _unit_free_rows(a, _state_terms(a), n))))
        pv.add(((), frozenset(map(_primitive, filter(any, pv_rows))), n - 1))
        state_sets.add((frozenset(max(r, tuple(-v for v in r)) for r in state_rows), n))
        state_spaces.add((_row_space(state_rows), box, n))
    return pv, state_sets, state_spaces


def test_sweep_runs_the_engine_once_per_distinct_row_set(monkeypatch):
    runs = _count_engine_runs(monkeypatch)
    assert verify_meta_theorems(4).models == 83
    keys = zip(*map(_cone_keys, range(1, 5)))
    pv, state_sets, state_spaces = (set().union(*per_size) for per_size in keys)
    # the 53 distinct state row sets span 22 row spaces
    assert (len(state_sets), len(state_spaces)) == (53, 22)
    # 166 cone calls; the one-variable orthant is both the state polytope's
    # cone at n = 1 and the pv cone at n = 2
    assert len(runs) == len(pv | state_spaces) == 82


def test_shared_cones_last_one_sweep(monkeypatch):
    """The memo opens with the sweep, is filled while it runs, and is gone
    after it, also when a model's check raises."""
    assert linalg._cone_memo is None
    verify_meta_theorems(3)
    assert linalg._cone_memo is None
    sizes = []
    check = finder._check_model

    def failing(a):
        outcome = check(a)
        sizes.append(len(linalg._cone_memo))
        if len(sizes) == 4:
            raise RuntimeError("injected")
        return outcome

    monkeypatch.setattr(finder, "_check_model", failing)
    with pytest.raises(RuntimeError, match="injected"):
        verify_meta_theorems(3)
    assert linalg._cone_memo is None
    assert sizes == sorted(sizes) and sizes[0] > 0


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


def test_meta_sweep_four():
    rep = verify_meta_theorems(4)
    assert rep.clean
    assert rep.models == sum(EXPECTED_COUNTS.values())


def test_meta_sweep_counterexample(monkeypatch):
    # a counterexample does not stop the sweep: every model is checked and
    # the tag keeps the witness of its first counterexample
    monkeypatch.setattr(finder, "weak_pv_witness", lambda a, phi: ("pv6", (0, 0)))
    rep = verify_meta_theorems(3)
    assert not rep.clean
    assert rep.models == 6
    failed = rep.stats["pv-implies-weak-pv"]
    # every model but the one-element one has a nonzero pseudo-valuation
    assert (failed.checked, failed.counterexamples) == (6, 5)
    (first,) = _models(2)
    assert first.name == "n2_5539bae4a742"
    assert failed.first_witness == f"pv that is not a weak pv\n{serialize_algebra(first)}"
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
    real = finder.enumerate_ds
    monkeypatch.setattr(finder, "enumerate_ds", lambda a: replace(real(a), involutive=()))
    witness = finder._check_model(model)["bounded-state-kernels-involutive"]
    first = format_subset(model, kernels[0])
    assert witness == f"state kernel {first} not involutive\n{serialize_algebra(model)}"


def _replaced(name, **fields):
    """Patch ``finder.<name>`` to return its result with ``fields`` replaced."""

    def patch(monkeypatch):
        real = getattr(finder, name)
        monkeypatch.setattr(finder, name, lambda *args: replace(real(*args), **fields))

    return patch


def _failing(name, value):
    """Patch ``finder.<name>`` to return ``value``, a failed verdict."""
    return lambda monkeypatch: monkeypatch.setattr(finder, name, lambda *args: value)


def _family(a):
    return enumerate_ds(with_detected_bottom(a) or a)


def _measure_rays(a):
    return states.measure_face(a, valuations.valuation_cone(a))


def _kernels(a, bottom_zero=False):
    bottom = detect_bottom(a)
    return [
        state_kernel(a, v)
        for v in state_space(a).vertices
        if not bottom_zero or bottom is not None and v[bottom] == 0
    ]


# tag -> (premise on the model, the patch of the one predicate the claim
# reads, the first counterexample message the patch must produce); the
# search puts the unit first, so {1} is frozenset({0})
LIVE_CLAIMS = {
    "bck-implies-two-implication-core": (
        lambda a: classify(a).pseudo_bck,
        _replaced("_classify", pseudo_be=False),
        lambda a: "pseudo-BCK but not pseudo-BE",
    ),
    "commutative-implies-bck": (
        lambda a: classify(a).commutative,
        _replaced("_classify", pseudo_bck=False),
        lambda a: "commutative but not pseudo-BCK",
    ),
    "finite-commutative-implies-single-implication": (
        lambda a: classify(a).commutative,
        _replaced("_classify", be=False),
        lambda a: "commutative but arrow != squig",
    ),
    "p-system-iff-commutative": (
        lambda a: classify(a).commutative,
        _replaced("_classify", p_system=False),
        lambda a: "P-system=False, commutative=True",
    ),
    "q-system-iff-commutative": (
        lambda a: classify(a).commutative,
        _replaced("_classify", q_system=False),
        lambda a: "Q-system=False, commutative=True",
    ),
    "distributive-ds-all-normal": (
        lambda a: classify(a).distributive,
        _replaced("enumerate_ds", normal=()),
        lambda a: f"non-normal DS {format_subset(a, _family(a).subsets[0])}",
    ),
    "commutative-ds-all-fantastic": (
        lambda a: classify(a).commutative,
        _replaced("enumerate_ds", fantastic=()),
        lambda a: "DS != fantastic DS",
    ),
    "fantastic-upward-closed": (
        lambda a: classify(a).condition_a and len(_family(a).subsets) > 1,
        _replaced("enumerate_ds", fantastic=(frozenset({0}),)),
        lambda a: "{1} fantastic but superset "
        f"{format_subset(a, next(e for e in _family(a).subsets if e != {0}))} is not",
    ),
    "fantastic-implies-involutive": (
        lambda a: detect_bottom(a) is not None,
        _replaced("enumerate_ds", involutive=()),
        lambda a: f"fantastic DS {format_subset(a, _family(a).fantastic[0])} not involutive",
    ),
    "state-kernels-fantastic": (
        lambda a: True,
        _replaced("enumerate_ds", fantastic=()),
        lambda a: f"state kernel {format_subset(a, _kernels(a)[0])} not fantastic",
    ),
    "bounded-state-kernels-involutive": (
        lambda a: _kernels(a, bottom_zero=True) != [],
        _replaced("enumerate_ds", involutive=()),
        lambda a: "state kernel "
        f"{format_subset(a, _kernels(a, bottom_zero=True)[0])} not involutive",
    ),
    "measure-kernels-normal-fantastic": (
        lambda a: _measure_rays(a) != (),
        _replaced("enumerate_ds", normal=()),
        lambda a: "measure kernel "
        f"{format_subset(a, {x for x in range(a.size) if _measure_rays(a)[0][x] == 0})} "
        "not normal+fantastic",
    ),
    "pv-implies-weak-pv": (
        lambda a: valuations.valuation_cone(a) != (),
        _failing("weak_pv_witness", ("pv6", (0, 0))),
        lambda a: "pv that is not a weak pv",
    ),
    "commutative-pv-all-commutative": (
        lambda a: classify(a).commutative and valuations.valuation_cone(a) != (),
        _failing("commutative_pv_witness", ("cpv1", (0, 0))),
        lambda a: "non-commutative pv on a commutative algebra",
    ),
    "linear-type2-states-are-smo": (
        lambda a: classify(a).linear and enumerate_internal_states(a, "II") != (),
        _failing("is_smo", False),
        lambda a: f"type-II state {enumerate_internal_states(a, 'II')[0]} is not an SMO",
    ),
    "linear-commutative-type1-states-are-smo": (
        lambda a: classify(a).linear
        and classify(a).commutative
        and enumerate_internal_states(a, "I") != (),
        _failing("is_smo", False),
        lambda a: f"type-I state {enumerate_internal_states(a, 'I')[0]} is not an SMO",
    ),
}


def test_every_swept_claim_has_a_liveness_case():
    assert set(LIVE_CLAIMS) == set(finder._check_model(_models(1)[0]))


@pytest.mark.parametrize("tag", LIVE_CLAIMS)
def test_every_swept_claim_is_live(monkeypatch, tag):
    """On the first model of size <= 4 where the claim's premise holds,
    the claim holds, and failing the one predicate it reads makes its
    first counterexample the witness: no claim can be switched off unseen."""
    premise, patch, message = LIVE_CLAIMS[tag]
    model = next(m for n in range(1, 5) for m in _models(n) if premise(m))
    assert finder._check_model(model)[tag] is None
    expected = f"{message(model)}\n{serialize_algebra(model)}"
    patch(monkeypatch)
    assert finder._check_model(model)[tag] == expected


def test_sweep_verdicts_match_the_full_scans(small_inputs):
    """On every pseudo-BE algebra among the small inputs, the sweep's
    classification, which takes pseudo-BE as decided, equals ``classify``,
    and its P- and Q-system verdicts equal the full scans of
    ``check_axioms``."""
    checked = set()
    for a in small_inputs:
        if not check_axioms(a, "pseudo-BE").holds:
            continue
        rep = finder._classify(a, ("pseudo-BE",))
        assert rep == classify(a), a.name
        assert rep.p_system == check_axioms(a, "P-system").holds, a.name
        assert rep.q_system == check_axioms(a, "Q-system").holds, a.name
        checked.add((rep.p_system, rep.q_system))
    # both verdicts occur, so a sweep that skipped the swap law would fail
    assert checked == {(True, True), (False, False)}


def test_sweep_scans_each_declaration_at_most_once(monkeypatch):
    """On each size-4 model, one ``_check_model`` call scans none of
    psBE1-5, which every emitted model has passed, and the swap law, which
    the P- and Q-systems share, exactly once; no declaration is scanned
    twice."""
    scanned = collections.Counter()
    real = algebra._violations

    def recording(arrow, squig, unit, text):
        scanned[text] += 1
        return real(arrow, squig, unit, text)

    monkeypatch.setattr(algebra, "_violations", recording)
    pseudo_be = set(_SYSTEM_AXIOMS["pseudo-BE"].values())
    swap = _SYSTEM_AXIOMS["P-system"]["P3"]
    assert _SYSTEM_AXIOMS["Q-system"]["Q2"] == swap
    for m in _models(4):
        scanned.clear()
        finder._check_model(m)
        assert not pseudo_be & scanned.keys(), m.name
        assert scanned[swap] == 1, m.name
        assert max(scanned.values()) == 1, m.name
