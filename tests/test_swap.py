"""The swap (A, ->, ~>, 1) to (A, ~>, ->, 1) as a test oracle.

A is pseudo-BE exactly when its swap is, and every notion carried over
from pseudo-BCK algebras is a pair of -> and ~> twin conditions that the
swap exchanges.  So each witness scan gives the same verdict and the same
first tuple on A and on its swap (only the tag may name the other twin),
and the deductive systems with their normal and fantastic tags, the
valuation cone and both kinds of internal state are the same.  A check
that tests one twin only, or one direction of a two-way condition, breaks
the relation on some small input.  The searches keep it, too: the models
the finder emits are closed under the swap, and Hom(A, B) is
Hom(A^op, B^op).  Every structural flag but ``distributive``, which is
one-sided as declared, is the same on A and A^op.

A relabelling p of the carrier, which carries the unit along, is the
second oracle: each answer on p(A) is p's image of the answer on A.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from pseudobe import linalg
from pseudobe.algebra import FiniteAlgebra, check_axioms, classify
from pseudobe.dsystems import enumerate_ds
from pseudobe.finder import (
    SearchConstraints,
    _model_name,
    canonical_tables,
    enumerate_models,
    with_detected_bottom,
)
from pseudobe.homs import Homomorphism, enumerate_homomorphisms, hom_witness
from pseudobe.operators import (
    enumerate_internal_states,
    enumerate_smo,
    internal_state_witness,
    smo_witness,
)
from pseudobe.states import (
    _nonnegative_witness,
    _unit_interval_witness,
    bosbach_witness,
    measure_cone,
    measure_morphism_witness,
    measure_witness,
    state_morphism_witness,
    state_space,
)
from pseudobe.valuations import (
    characterization_crosscheck,
    commutative_pv_witness,
    pv_witness,
    valuation_cone,
    weak_pv_witness,
)


def _swap(a):
    """(A, ~>, ->, 1): ``a`` with its two implications exchanged."""
    return FiniteAlgebra(a.name, a.elements, a.squig, a.arrow, a.unit, a.bottom)


@pytest.fixture(scope="module")
def pseudo_be(small_inputs):
    """The pseudo-BE algebras among the small inputs: the four fixtures and
    the 83 models of size <= 4."""
    return [a for a in small_inputs if check_axioms(a, "pseudo-BE").holds]


def _tuple(witness):
    return None if witness is None else witness[1]


def _untagged(report):
    """A crosscheck report with its two witnesses cut to their tuples."""
    return dataclasses.replace(
        report, pv4_witness=_tuple(report.pv4_witness), cpv3_witness=_tuple(report.cpv3_witness)
    )


ASSIGNMENT_CHECKS = (
    _unit_interval_witness,
    bosbach_witness,
    state_morphism_witness,
    _nonnegative_witness,
    measure_witness,
    measure_morphism_witness,
    pv_witness,
    weak_pv_witness,
    commutative_pv_witness,
)

VALUES = (F(0), F(1, 2), F(1), F(2))


def test_swap_is_an_involution_on_pseudo_be(pseudo_be):
    assert len(pseudo_be) == 87
    for a in pseudo_be:
        assert _swap(_swap(a)) == a
        assert check_axioms(_swap(a), "pseudo-BE").holds, a.name


def test_assignment_witnesses_are_swap_invariant(pseudo_be):
    """Seeded random assignments, with the unit at 0 and at 1 so that the
    scans reach their pairs, and the pv rays, which pass them."""
    rng = random.Random(26)
    for a in pseudo_be:
        b, u = _swap(a), a.unit
        drawn = [[rng.choice(VALUES) for _ in range(a.size)] for _ in range(20)]
        pinned = [tuple(v[:u] + [F(end)] + v[u + 1 :]) for v in drawn for end in (0, 1)]
        for v in pinned + list(valuation_cone(a)):
            for check in ASSIGNMENT_CHECKS:
                assert _tuple(check(a, v)) == _tuple(check(b, v)), (check.__name__, a.name, v)
            if v[u] == 0:
                on_a, on_b = characterization_crosscheck(a, v), characterization_crosscheck(b, v)
                assert _untagged(on_a) == _untagged(on_b), (a.name, v)


def test_map_witnesses_are_swap_invariant(pseudo_be):
    """Seeded random unary maps and homomorphism candidates, and the
    identity, which passes the homomorphism and SMO checks."""
    rng = random.Random(26)
    for a in pseudo_be:
        b, n = _swap(a), a.size
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(20)]
        for mu in maps + [tuple(range(n))]:
            for kind in ("I", "II"):
                assert _tuple(internal_state_witness(a, mu, kind)) == _tuple(
                    internal_state_witness(b, mu, kind)
                ), (a.name, mu, kind)
            assert _tuple(smo_witness(a, mu)) == _tuple(smo_witness(b, mu)), (a.name, mu)
        target = rng.choice(pseudo_be)
        m = target.size
        for f in [tuple(rng.randrange(m) for _ in range(n)) for _ in range(10)]:
            on_a = hom_witness(Homomorphism(a, target, f))
            on_b = hom_witness(Homomorphism(b, _swap(target), f))
            assert _tuple(on_a) == _tuple(on_b), (a.name, target.name, f)


def test_structures_are_swap_invariant(pseudo_be):
    for a in pseudo_be:
        b = _swap(a)
        family, swapped = enumerate_ds(a), enumerate_ds(b)
        assert swapped.subsets == family.subsets, a.name
        assert swapped.normal == family.normal, a.name
        assert swapped.fantastic == family.fantastic, a.name
        assert set(valuation_cone(b)) == set(valuation_cone(a)), a.name
        for kind in ("I", "II"):
            assert enumerate_internal_states(b, kind) == enumerate_internal_states(a, kind)
        assert state_space(b).vertices == state_space(a).vertices, a.name
        assert measure_cone(b) == measure_cone(a), a.name
        assert enumerate_smo(b) == enumerate_smo(a), a.name


def test_flags_but_distributive_are_swap_invariant(pseudo_be):
    """Every classification field but ``distributive`` is the same on A and
    A^op; the one-sided distributive identity tells some of them apart."""
    flipped = 0
    for a in pseudo_be:
        on_a, on_b = classify(a), classify(_swap(a))
        assert dataclasses.replace(on_b, distributive=on_a.distributive) == on_a, a.name
        flipped += on_b.distributive != on_a.distributive
    assert flipped > 0


def _assert_swap_closed(models):
    """The canonical name of each model's swap is an emitted name, and each
    BE model, its own swap, is self-dual; ``models`` are every model of one
    size."""
    names = {m.name for m in models}
    for m in models:
        dual = _model_name(m.size, *canonical_tables(m.squig, m.arrow, m.unit))
        assert dual in names, m.name
        assert dual == m.name or m.arrow != m.squig, m.name


def test_search_is_closed_under_the_swap():
    """For n <= 4 the search treats -> and ~> alike: the models it emits
    are closed under the swap."""
    for n in (1, 2, 3, 4):
        _assert_swap_closed(list(enumerate_models(SearchConstraints(n))))


@pytest.mark.slow
def test_search_is_closed_under_the_swap_at_five(size_five_models):
    """The same at n = 5, where no audit of the search runs: the one check
    there that the propagator keeps the -> and ~> twins alike."""
    _assert_swap_closed(size_five_models)


def test_a_model_and_its_swap_share_their_cones(pseudo_be):
    """The state and pv rows are built from both tables alike, so A^op adds
    no entry to the sweep's shared cones once A is in."""
    shared = 0
    for a in pseudo_be:
        with linalg._shared_cones():
            answers = state_space(a).vertices, valuation_cone(a)
            entries = dict(linalg._cone_memo)
            b = _swap(a)
            assert (state_space(b).vertices, valuation_cone(b)) == answers, a.name
            assert linalg._cone_memo == entries, a.name
        shared += a.arrow != a.squig
    assert shared > 0


def test_homomorphisms_are_swap_invariant(pseudo_be):
    """Hom(A, B) and Hom(A^op, B^op) are the same maps, on a seeded sample
    of 600 pairs of the pseudo-BE small inputs of size <= 4."""
    small = [a for a in pseudo_be if a.size <= 4]
    pairs = random.Random(5).sample([(a, b) for a in small for b in small], 600)
    for a, b in pairs:
        on_a = [f.map for f in enumerate_homomorphisms(a, b)]
        on_swap = [f.map for f in enumerate_homomorphisms(_swap(a), _swap(b))]
        assert on_swap == on_a, (a.name, b.name)


def _relabel(a, p):
    """p(A): element x of ``a`` renamed to position p[x], the unit and the
    bottom carried along."""
    n = a.size
    inverse = [0] * n
    for x in range(n):
        inverse[p[x]] = x

    def table(t):
        return tuple(tuple(p[t[inverse[x]][inverse[y]]] for y in range(n)) for x in range(n))

    return FiniteAlgebra(
        a.name,
        tuple(a.elements[inverse[x]] for x in range(n)),
        table(a.arrow),
        table(a.squig),
        p[a.unit],
        None if a.bottom is None else p[a.bottom],
    )


def test_answers_are_relabelling_equivariant(pseudo_be):
    """For a seeded random permutation p of each carrier: the deductive
    systems of p(A) with their normal and fantastic tags are the images
    p(D), its valuation rays, state vertices and measure rays are those of
    A with coordinate x moved to p(x), its internal states of both kinds
    and its SMOs are the conjugates p o mu o p^-1, and the classification
    of p(A), bounded where A has a least element, has the same flags and
    its regular and dense elements moved by p."""
    rng = random.Random(29)
    for a in pseudo_be:
        n = a.size
        p = list(range(n))
        rng.shuffle(p)
        b, inverse = _relabel(a, p), [p.index(y) for y in range(n)]

        def image(subsets):
            return {frozenset(p[x] for x in d) for d in subsets}

        def moved(vectors):
            return {tuple(v[x] for x in inverse) for v in vectors}

        def conjugates(maps):
            return {tuple(p[mu[x]] for x in inverse) for mu in maps}

        family, relabelled = enumerate_ds(a), enumerate_ds(b)
        assert set(relabelled.subsets) == image(family.subsets), a.name
        assert set(relabelled.normal) == image(family.normal), a.name
        assert set(relabelled.fantastic) == image(family.fantastic), a.name
        assert set(valuation_cone(b)) == moved(valuation_cone(a)), a.name
        assert set(state_space(b).vertices) == moved(state_space(a).vertices), a.name
        assert set(measure_cone(b)) == moved(measure_cone(a)), a.name
        for kind in ("I", "II"):
            on_a, on_b = enumerate_internal_states(a, kind), enumerate_internal_states(b, kind)
            assert set(on_b) == conjugates(on_a), (a.name, kind)
        assert set(enumerate_smo(b)) == conjugates(enumerate_smo(a)), a.name
        # the bounded copy, where there is one, has regular and dense elements
        bounded = with_detected_bottom(a) or a
        flags = classify(bounded)
        elements = {
            name: None if (xs := getattr(flags, name)) is None else frozenset(p[x] for x in xs)
            for name in ("regular_elements", "dense_elements")
        }
        assert classify(_relabel(bounded, p)) == dataclasses.replace(flags, **elements), a.name
