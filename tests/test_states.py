"""Bosbach states, state-morphisms, measures, and their exact geometry on
the fixture files."""

import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import FIXTURES, load_fixture
from oracles import box_vertices, measure_equations, residual, valuation_equations
from pseudobe import states
from pseudobe.algebra import FiniteAlgebra, UnboundedAlgebraError, check_axioms, negations, vee1
from pseudobe.dsystems import is_involutive_ds
from pseudobe.finder import SearchConstraints, enumerate_models
from pseudobe.linalg import ConsistencyAlarmError, LinearEquation, cone_rays, solve_affine
from pseudobe.states import (
    ConditionAMissingError,
    MembershipError,
    bosbach_witness,
    is_bosbach_state,
    is_measure,
    is_measure_morphism,
    is_state_measure,
    is_state_measure_morphism,
    is_state_morphism,
    lukasiewicz,
    measure_cone,
    measure_face,
    measure_kernel,
    measure_morphism_witness,
    measure_witness,
    parse_assignment,
    sm_characterization_check,
    state_equations,
    state_kernel,
    state_morphism_witness,
    state_space,
    state_measure_bijection,
)
from pseudobe.valuations import is_pseudo_valuation, valuation_cone

# the four named state families of the 5-element algebra, at the
# parameter values used throughout the suite (carrier order 1 a b c d)
S1_HALF = (F(1), F(1), F(1, 2), F(1, 2), F(1))
S2_THIRD = (F(1), F(1, 3), F(1), F(1), F(1, 3))
S3 = (F(1), F(1, 2), F(1, 3), F(1, 3), F(1, 2))
S4 = (F(1),) * 5

M1_1 = (F(0), F(0), F(1), F(1), F(0))
M2_1 = (F(0), F(1), F(0), F(0), F(1))
M3_1_2 = (F(0), F(1), F(2), F(2), F(1))
M4 = (F(0),) * 5


def test_named_states_verify(conda5):
    for s in (S1_HALF, S2_THIRD, S3, S4):
        assert is_bosbach_state(conda5, s)


def test_non_state_witness(conda5):
    s = (F(1), F(1), F(1), F(1), F(0))  # s(a)=1, s(d)=0 breaks symmetry
    assert bosbach_witness(conda5, s) == ("bs2", (1, 2))


def test_out_of_range_rejected(conda5):
    s = (F(1), F(2), F(2), F(2), F(2))
    assert bosbach_witness(conda5, s) == ("range", (1,))


def test_witness_is_the_first_pair_then_the_arrow_twin(bck4):
    # on bck4 (1 a b c) each scan's ~> twin fails at an earlier pair than
    # its -> twin, and later pairs fail too: the witness is the first pair
    s = (F(1), F(1, 2), F(1), F(1))
    assert bosbach_witness(bck4, s) == ("bs3", (1, 2))
    assert state_morphism_witness(bck4, s) == ("sm", (2, 1))
    m = (F(0), F(3), F(0), F(1, 2))
    assert measure_witness(bck4, m) == ("m", (2, 1))
    assert measure_morphism_witness(bck4, m) == ("mm", (2, 1))


def test_state_space_conda5(conda5):
    res = state_space(conda5)
    assert res.affine.dimension == 2
    # implied equalities: s(a) = s(d) and s(b) = s(c)
    a_i, b_i, c_i, d_i = (conda5.index(t) for t in "abcd")
    for lam in [(F(0), F(0)), (F(1, 7), F(3, 5))]:
        pt = oracles.point(res.affine, lam)
        assert pt[conda5.unit] == 1
        assert pt[a_i] == pt[d_i]
        assert pt[b_i] == pt[c_i]
    assert len(res.vertices) == 4
    for v in res.vertices:
        assert is_bosbach_state(conda5, v)


def test_state_space_trivial_algebra():
    from pseudobe.algebra import FiniteAlgebra

    one = FiniteAlgebra("triv", ("1",), ((0,),), ((0,),), 0)
    res = state_space(one)
    assert res.affine.dimension == 0
    assert res.vertices == ((F(1),),)


def test_constant_one_always_a_state(bck4, proper6, bounded6, conda5):
    for a in (bck4, proper6, bounded6, conda5):
        assert is_bosbach_state(a, (F(1),) * a.size)


@given(st.fractions(min_value=0, max_value=1, max_denominator=20))
def test_lukasiewicz_range(x):
    assert F(0) <= lukasiewicz(x, F(0)) <= F(1)
    assert lukasiewicz(x, x) == F(1)
    assert lukasiewicz(F(1), x) == x


def test_state_morphism_discrimination(conda5):
    assert is_state_morphism(conda5, S1_HALF)
    assert is_state_morphism(conda5, S2_THIRD)
    assert is_state_morphism(conda5, S4)
    assert state_morphism_witness(conda5, S3) == ("sm", (1, 2))


def test_s3_max_witness(conda5):
    # s3(a v1 b) = 1 exceeds max{s3(a), s3(b)}
    a_i, b_i = conda5.index("a"), conda5.index("b")
    j = vee1(conda5, a_i, b_i)
    assert S3[j] == F(1)
    assert max(S3[a_i], S3[b_i]) < F(1)


def test_max_characterization_agrees(conda5):
    for s in (S1_HALF, S2_THIRD, S3, S4):
        assert sm_characterization_check(conda5, s) == is_state_morphism(conda5, s)


def test_characterization_requires_state(conda5):
    with pytest.raises(MembershipError):
        sm_characterization_check(conda5, (F(0),) * 5)


def test_characterization_requires_condition_a(bounded6):
    # bounded6 satisfies condition (A); build one that does not
    from pseudobe.finder import enumerate_models, SearchConstraints
    from pseudobe.algebra import check_axioms

    found = None
    for m in enumerate_models(SearchConstraints(size=4)):
        if not check_axioms(m, "condition-A").holds:
            found = m
            break
    assert found is not None
    with pytest.raises(
        ConditionAMissingError, match=rf"^{found.name} does not satisfy condition \(A\)$"
    ):
        sm_characterization_check(found, (F(1),) * found.size)


# ---------------------------------------------------------------------------
# measures


def test_named_measures_verify(conda5):
    for m in (M1_1, M2_1, M3_1_2, M4):
        assert is_measure(conda5, m)


def test_measure_morphism_discrimination(conda5):
    assert is_measure_morphism(conda5, M1_1)
    assert is_measure_morphism(conda5, M2_1)
    assert is_measure_morphism(conda5, M4)
    assert not is_measure_morphism(conda5, M3_1_2)


def test_measure_morphisms_are_measures(conda5):
    # the actual inclusion on this algebra: every measure-morphism that
    # verifies is also a measure; the separating example goes one way only
    for m in (M1_1, M2_1, M3_1_2, M4):
        if is_measure_morphism(conda5, m):
            assert is_measure(conda5, m)
    assert is_measure(conda5, M3_1_2) and not is_measure_morphism(conda5, M3_1_2)


def test_negative_values_rejected(conda5):
    m = (F(0), F(-1), F(0), F(0), F(-1))
    assert measure_witness(conda5, m) == ("range", (1,))


def test_morphism_checks_share_the_range_prefix(conda5):
    # the unit-interval and nonnegativity prefixes decide before any pair
    assert state_morphism_witness(conda5, (F(0),) + S4[1:]) == ("bs1", (0,))
    assert state_morphism_witness(conda5, (F(1), F(2), F(1), F(1), F(1))) == ("range", (1,))
    m = (F(0), F(0), F(0), F(-1), F(0))
    assert measure_morphism_witness(conda5, m) == ("range", (3,))


def test_measure_cone_two_rays(conda5):
    rays = measure_cone(conda5)
    assert len(rays) == 2
    assert set(rays) == {M1_1, M2_1}
    for r in rays:
        assert is_measure(conda5, r)


def test_kernels(conda5):
    from pseudobe.dsystems import parse_subset

    assert state_kernel(conda5, S1_HALF) == parse_subset(conda5, "{1,a,d}")
    assert state_kernel(conda5, S2_THIRD) == parse_subset(conda5, "{1,b,c}")
    assert state_kernel(conda5, S3) == parse_subset(conda5, "{1}")
    assert state_kernel(conda5, S4) == frozenset(range(5))
    assert measure_kernel(conda5, M1_1) == parse_subset(conda5, "{1,a,d}")
    assert measure_kernel(conda5, M2_1) == parse_subset(conda5, "{1,b,c}")
    assert measure_kernel(conda5, M3_1_2) == parse_subset(conda5, "{1}")
    assert measure_kernel(conda5, M4) == frozenset(range(5))


def test_kernel_requires_verified_input(conda5):
    with pytest.raises(MembershipError):
        state_kernel(conda5, (F(0),) * 5)
    with pytest.raises(MembershipError):
        measure_kernel(conda5, (F(1),) * 5)


def _two_chain():
    from pseudobe.algebra import FiniteAlgebra

    table = ((0, 1), (0, 0))
    return FiniteAlgebra("chain2", ("1", "0"), table, table, 0, 1)


def test_bounded6_only_state_is_constant_one(bounded6):
    # its Bosbach equations pin every value to 1, so no state vanishes
    # at the bottom and the state-measure correspondence is vacuous there
    res = state_space(bounded6)
    assert res.vertices == ((F(1),) * 6,)


def test_state_measure_bijection():
    a = _two_chain()
    res = state_space(a)
    zero_states = [v for v in res.vertices if v[a.bottom] == 0]
    assert zero_states
    for s in zero_states:
        m = state_measure_bijection(a, s, "state-to-measure")
        assert is_state_measure(a, m)
        back = state_measure_bijection(a, m, "measure-to-state")
        assert back == s


@pytest.mark.parametrize(
    "direction,check,broken,message",
    [
        # the broken check reads only the output: the input goes through the other one
        ("state-to-measure", "is_state_measure", lambda a, v: False, "state-measure check"),
        ("measure-to-state", "bosbach_witness", lambda a, v: ("bs1", (0,)), "state check"),
    ],
    ids=["state-to-measure", "measure-to-state"],
)
def test_bijection_output_alarm(monkeypatch, direction, check, broken, message):
    a = _two_chain()
    values = (F(1), F(0))
    if direction == "measure-to-state":
        values = state_measure_bijection(a, values, "state-to-measure")
    monkeypatch.setattr(states, check, broken)
    with pytest.raises(ConsistencyAlarmError, match=f"^bijection output failed the {message}$"):
        state_measure_bijection(a, values, direction)


def test_bijection_preconditions():
    a = _two_chain()
    with pytest.raises(MembershipError, match="does not vanish at bottom"):
        state_measure_bijection(a, (F(1), F(1)), "state-to-measure")
    with pytest.raises(MembershipError, match="not a Bosbach state"):
        state_measure_bijection(a, (F(0), F(0)), "state-to-measure")
    with pytest.raises(MembershipError, match="not a state-measure"):
        state_measure_bijection(a, (F(0), F(1, 2)), "measure-to-state")
    with pytest.raises(ValueError, match="unknown direction"):
        state_measure_bijection(a, (F(1), F(0)), "sideways")
    (no_a,) = [
        m
        for m in enumerate_models(SearchConstraints(size=4, flags=("bounded",)))
        if m.name == "n4_3a54d71e669b"
    ]
    with pytest.raises(
        ConditionAMissingError, match=r"^n4_3a54d71e669b does not satisfy condition \(A\)$"
    ):
        state_measure_bijection(no_a, (F(1),) * 4, "state-to-measure")


@pytest.mark.parametrize(
    "check",
    [
        lambda a: negations(a, a.unit),
        lambda a: is_involutive_ds(a, frozenset({a.unit})),
        lambda a: is_state_measure(a, M4),
        lambda a: is_state_measure_morphism(a, M4),
        lambda a: state_measure_bijection(a, S1_HALF, "state-to-measure"),
    ],
    ids=["negations", "involutive-ds", "state-measure", "state-measure-morphism", "bijection"],
)
def test_bottom_required_with_one_message(conda5, check):
    with pytest.raises(UnboundedAlgebraError, match=r"^algebra 'conda5' has no bottom$"):
        check(conda5)


@pytest.mark.parametrize(
    "check",
    [
        sm_characterization_check,
        lambda a, s: state_measure_bijection(a, s, "state-to-measure"),
        state_kernel,
    ],
    ids=["sm-characterization", "bijection", "state-kernel"],
)
def test_state_required_with_one_message(check):
    a = _two_chain()
    with pytest.raises(MembershipError, match=r"^not a Bosbach state: \('bs1', \(0,\)\)$"):
        check(a, (F(0), F(0)))


def test_state_measure_morphism(conda5):
    a = _two_chain()
    assert is_state_measure_morphism(a, (F(0), F(1)))
    # a measure-morphism that is not 1 at the bottom
    assert is_measure_morphism(a, (F(0), F(1, 2)))
    assert not is_state_measure_morphism(a, (F(0), F(1, 2)))
    # 1 at the bottom, but m(1 -> 1) = 1 != max(0, m(1) - m(1))
    assert not is_state_measure_morphism(a, (F(1), F(1)))
    with pytest.raises(UnboundedAlgebraError):
        is_state_measure_morphism(conda5, (F(0),) * 5)


def test_bijection_requires_bounded(conda5):
    with pytest.raises(UnboundedAlgebraError):
        state_measure_bijection(conda5, S1_HALF, "state-to-measure")


def test_parse_assignment_file(conda5):
    text = "# as s1_half.state\nstate s1_half\n1 = 1\na = 1\n\nb = 1/2\nc = 1/2  # with b\nd = 1\n"
    name, values = parse_assignment(conda5, text, "state")
    assert (name, values) == ("s1_half", S1_HALF)


def test_assignment_missing_element(conda5):
    with pytest.raises(ValueError, match="missing"):
        parse_assignment(conda5, "state s\n1 = 1\n", "state")


def test_assignment_line_without_equals(conda5):
    with pytest.raises(ValueError, match=r"^bad assignment line: 'a 1'$"):
        parse_assignment(conda5, "state s\n1 = 1\na 1\n", "state")


def test_assignment_without_lines(conda5):
    with pytest.raises(ValueError, match="^empty assignment file$"):
        parse_assignment(conda5, "# only a comment\n\n", "state")


def test_assignment_wrong_kind(conda5):
    with pytest.raises(ValueError, match="expected header"):
        parse_assignment(conda5, "valuation v\n", "state")


def test_assignment_duplicate_key(conda5):
    text = "state s\n1 = 1\na = 1\nb = 1/2\nc = 1/2\nd = 1\nb = 1  # b again\n"
    with pytest.raises(ValueError, match="assigned twice"):
        parse_assignment(conda5, text, "state")


# their valuation-cone audits take about 5.3 s; the other 85 inputs take
# about 0.6 s together (2 vCPUs)
SIX_ELEMENT_FIXTURES = ("proper6", "bounded6")


def _engine_matches_audit(a):
    n = a.size
    for eqs in (state_equations(a), measure_equations(a)):
        assert repr(solve_affine(eqs, n)) == repr(oracles.solve_affine(eqs, n)), a.name
    nonneg = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    cones = [
        (valuation_equations(a), valuation_cone(a)),
        ((measure_equations(a), nonneg), measure_cone(a)),
    ]
    for (eqs, ineqs), public in cones:
        rays = cone_rays(eqs, ineqs, n)
        audit = oracles.cone_rays(eqs, ineqs, n)
        assert rays == public == audit, a.name
        assert all(type(v) is int for r in rays + public + audit for v in r), a.name


def test_engine_matches_audit_on_small_models(small_inputs):
    """The double description engine and the active-set oracle return the
    same tuples for the valuation cone and the measure cone, and the
    integer elimination and the Fraction oracle the same state and measure
    solution spaces (compared by repr, so types count), on bck4, conda5 and
    every model of size <= 4; the six-element fixtures are the next test's
    (the state polytope is compared with ``box_vertices`` further down).
    Every ray coordinate, from ``cone_rays``, its oracle, ``measure_cone``
    and ``valuation_cone``, is an ``int``."""
    assert len(small_inputs) == 87
    rest = [a for a in small_inputs if a.name not in SIX_ELEMENT_FIXTURES]
    assert len(rest) == 85
    for a in rest:
        _engine_matches_audit(a)


@pytest.mark.slow
def test_engine_matches_audit_on_six_element_fixtures(proper6, bounded6):
    """The comparisons of the previous test on proper6 and bounded6."""
    assert (proper6.name, bounded6.name) == SIX_ELEMENT_FIXTURES
    for a in (proper6, bounded6):
        _engine_matches_audit(a)


def _every_input(small_inputs):
    """The small inputs and the .alg fixtures outside them."""
    names = {a.name for a in small_inputs}
    fixtures = [load_fixture(p.stem) for p in sorted(FIXTURES.glob("*.alg"))]
    return small_inputs + [a for a in fixtures if a.name not in names]


def test_state_space_matches_the_fraction_box_audit(small_inputs):
    """``state_space`` reads its rays off the integer cone over the
    homogenised system, with the unit's coordinate as t; the independent
    path solves ``state_equations`` with the Fraction oracle and runs the
    active-set enumerator ``box_vertices`` on that space.  ``affine`` is
    that space (by repr, so types count).  The meta sweep reads the state
    kernels and the bounded filter off the integer rays (s(0) t, ...,
    s(n-1) t, t): each ray scaled to t = 1 is a vertex, {x : r[x] = t} is
    ``state_kernel`` of it, and r[x] = 0 exactly where it is 0.  Checked on
    every model of size <= 4 and every .alg fixture."""
    inputs = _every_input(small_inputs)
    assert len(inputs) == 89
    for a in inputs:
        n = a.size
        space = oracles.solve_affine(state_equations(a), n)
        result = state_space(a)
        assert repr(result.affine) == repr(space), a.name
        assert repr(result.vertices) == repr(box_vertices(space, [0] * n, [1] * n)), a.name
        scaled = [tuple(F(v, r[-1]) for v in r[:-1]) for r in result.rays]
        assert sorted(scaled) == list(result.vertices), a.name
        for r, v in zip(result.rays, scaled):
            assert all(type(c) is int for c in r) and r[a.unit] == r[-1] > 0, a.name
            assert frozenset(x for x in range(n) if r[x] == r[-1]) == state_kernel(a, v), a.name
            assert [r[x] == 0 for x in range(n)] == [v[x] == 0 for x in range(n)], a.name


def test_all_ones_solves_every_state_system(small_inputs):
    """s(1) = 1, and each symmetry row's coefficients sum to 0, so the
    all-ones point solves the state equations of any table pair, and
    ``affine``, their canonical solution space, is never empty."""
    for a in _every_input(small_inputs):
        ones = (1,) * a.size
        assert all(residual(eq, ones) == 0 for eq in state_equations(a)), a.name
        assert all(residual(eq, ones) == 0 for eq in state_space(a).affine.equalities), a.name


def test_empty_state_system_alarms(conda5, monkeypatch):
    # an empty solution space would contradict the all-ones point
    monkeypatch.setattr(states, "solve_affine", lambda eqs, n: None)
    with pytest.raises(ConsistencyAlarmError):
        state_space(conda5).affine


def _outcome(build):
    """repr of ``build()``, or the type of the exception it raises."""
    try:
        return repr(build())
    except Exception as e:  # the comparison is of which exception, if any
        return type(e)


def _state_vertices_by_box(a):
    space = oracles.solve_affine(state_equations(a), a.size)
    return box_vertices(space, [0] * a.size, [1] * a.size)


@st.composite
def table_pairs(draw):
    """Any two operation tables on at most 4 elements, with any unit: most
    are not pseudo-BE algebras."""
    n = draw(st.integers(1, 4))
    cell = st.integers(0, n - 1)
    table = st.tuples(*[st.tuples(*[cell] * n)] * n)
    return FiniteAlgebra("random", tuple("1abc"[:n]), draw(table), draw(table), draw(cell))


@settings(max_examples=300, deadline=None)
@given(table_pairs())
# the two orders disagree on 1 <= a, so measure_equations raises
@example(FiniteAlgebra("order", ("1", "a"), ((0, 1), (0, 1)), ((1, 1), (1, 0)), 0))
def test_polyhedra_match_the_public_builders(a):
    """The three polyhedra, built from distinct terms without the unit's
    coordinate, equal the cones and box of the equation systems written
    out in full by the oracles, or raise the same exception."""
    n = a.size
    nonneg = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pairs = [
        (lambda: state_space(a).vertices, lambda: _state_vertices_by_box(a)),
        (lambda: measure_cone(a), lambda: cone_rays(measure_equations(a), nonneg, n)),
        (lambda: valuation_cone(a), lambda: cone_rays(*valuation_equations(a), n)),
    ]
    for built, public in pairs:
        assert _outcome(built) == _outcome(public)


def test_equations_have_int_rhs_and_solve_alike_with_fractions(small_inputs):
    # solve_affine returns the same space (by repr, so types count) when the
    # right-hand sides are Fractions
    for a in small_inputs:
        for eqs in (state_equations(a), measure_equations(a), valuation_equations(a)[0]):
            assert all(type(eq.rhs) is int for eq in eqs), a.name
            fracs = [LinearEquation(eq.coeffs, F(eq.rhs)) for eq in eqs]
            assert repr(solve_affine(eqs, a.size)) == repr(solve_affine(fracs, a.size)), a.name


def test_vertices_and_rays_pass_the_witness_scans(small_inputs):
    """The meta sweep reads state and measure kernels straight off the
    vertices and rays; the Fraction witness scans accept every one."""
    for a in small_inputs:
        for v in state_space(a).vertices:
            assert bosbach_witness(a, v) is None, a.name
        for r in measure_cone(a):
            assert measure_witness(a, r) is None, a.name


def test_equation_rows_are_integer(small_inputs):
    """The state, measure and valuation builders give integer coefficient
    rows; the digest of their values was recorded when the rows were built
    from Fractions, whose str() is the same."""
    lines = []
    for a in small_inputs:
        v_eqs, v_ineqs = valuation_equations(a)
        eqs = state_equations(a) + measure_equations(a) + v_eqs
        rows = [eq.coeffs for eq in eqs] + v_ineqs
        assert all(type(v) is int for row in rows for v in row), a.name
        lines += [" ".join(map(str, (*eq.coeffs, "=", eq.rhs))) for eq in eqs]
        lines += [" ".join(map(str, row)) for row in v_ineqs]
    assert len(lines) == 5827
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "107811939796b800ac7976e0ee50c332e060b257e9e6481286b2054d24ceff2a"


def test_measure_face_is_the_measure_cone(small_inputs):
    """On a pseudo-BE algebra the measure rays are the pv rays on which the
    comparable-pair rows are tight, in the pv cone's order (reversing the
    pv rays reverses the face), because every measure ray is a pv."""
    inputs = small_inputs + list(enumerate_models(SearchConstraints(size=5, limit=300)))
    assert len(inputs) == 387
    for a in inputs:
        assert check_axioms(a, "pseudo-BE").holds, a.name
        rays, measures = valuation_cone(a), measure_cone(a)
        assert all(is_pseudo_valuation(a, r) for r in measures), a.name
        assert measure_face(a, rays) == measures, a.name
        assert measure_face(a, rays[::-1]) == measures[::-1], a.name
