"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
``criterion NN ... PASS`` or ``... FAIL`` line (visible with ``pytest -s``
or in captured output on failure).
"""

import functools
import io
import itertools
import time
from contextlib import redirect_stdout
from fractions import Fraction as F

from conftest import load_fixture
from oracles import point, solve_affine, state_equations
from pseudobe import cli
from pseudobe.algebra import (
    FiniteAlgebra,
    check_axioms,
    classify,
    leq,
    vee1,
)
from pseudobe.dsystems import (
    enumerate_ds,
    is_deductive_system,
    is_fantastic,
    is_involutive_ds,
    is_normal,
    parse_subset,
    quotient,
)
from pseudobe.finder import SearchConstraints, enumerate_models, verify_meta_theorems
from pseudobe.operators import enumerate_internal_states, enumerate_smo, kernel_image
from pseudobe.states import (
    is_bosbach_state,
    is_measure,
    is_measure_morphism,
    is_state_morphism,
    measure_cone,
    measure_kernel,
    sm_characterization_check,
    state_kernel,
    state_morphism_witness,
    state_space,
)
from pseudobe.valuations import (
    characterization_crosscheck,
    is_commutative_pv,
    is_pseudo_valuation,
    is_valuation,
    is_weak_pseudo_valuation,
    pv_witness,
    valuation_cone,
)

BCK4 = load_fixture("bck4")
PROPER6 = load_fixture("proper6")
BOUNDED6 = load_fixture("bounded6")
CONDA5 = load_fixture("conda5")
ALL_FIXTURES = (BCK4, PROPER6, BOUNDED6, CONDA5)

CHAIN2 = FiniteAlgebra(
    "chain2", ("1", "0"), ((0, 1), (0, 0)), ((0, 1), (0, 0)), 0, 1
)

S1_HALF = (F(1), F(1), F(1, 2), F(1, 2), F(1))
S2_THIRD = (F(1), F(1, 3), F(1), F(1), F(1, 3))
S3 = (F(1), F(1, 2), F(1, 3), F(1, 3), F(1, 2))
S4 = (F(1),) * 5
M1_1 = (F(0), F(0), F(1), F(1), F(0))
M2_1 = (F(0), F(1), F(0), F(0), F(1))
M3_1_2 = (F(0), F(1), F(2), F(2), F(1))
M4 = (F(0),) * 5
PHI_1_3 = (F(0), F(1), F(3), F(3), F(1))
PHI_WEAK = (F(0), F(1), F(3), F(4), F(2))


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} {desc}: FAIL")
                raise
            print(f"criterion {num:02d} {desc}: PASS")

        return wrapper

    return deco


def _sub(a, text):
    return parse_subset(a, text)


@criterion(1, "deductive systems of the 4-element algebra")
def test_criterion_01():
    fam = enumerate_ds(BCK4)
    full = frozenset(range(4))
    assert set(fam.subsets) == {_sub(BCK4, "{1}"), _sub(BCK4, "{1,b}"), full}
    assert set(fam.prime) == {_sub(BCK4, "{1,b}")}
    assert set(fam.maximal) == {_sub(BCK4, "{1,b}")}


@criterion(2, "proper 6-element algebra axioms and distributivity")
def test_criterion_02():
    assert check_axioms(PROPER6, "pseudo-BE").holds
    rep = check_axioms(PROPER6, "pseudo-BCK")
    assert not rep.holds
    witnesses = [tup for tag, tup in rep.violations if tag == "psBCK6"]
    assert witnesses
    x, y = witnesses[0]
    assert x != y and leq(PROPER6, x, y) and leq(PROPER6, y, x)
    assert classify(PROPER6).distributive


@criterion(3, "deductive-system families of the 6- and 5-element algebras")
def test_criterion_03():
    fam6 = enumerate_ds(PROPER6)
    assert len(fam6.subsets) == 6
    assert set(fam6.fantastic) == {
        _sub(PROPER6, "{1,e}"),
        _sub(PROPER6, "{1,a,e}"),
        _sub(PROPER6, "{1,b,c,d,e}"),
        frozenset(range(6)),
    }
    fam5 = enumerate_ds(CONDA5)
    expected = {
        _sub(CONDA5, "{1}"),
        _sub(CONDA5, "{1,a,d}"),
        _sub(CONDA5, "{1,b,c}"),
        frozenset(range(5)),
    }
    assert set(fam5.subsets) == expected
    assert set(fam5.normal) == expected
    assert set(fam5.fantastic) == expected


@criterion(4, "state space geometry of the 5-element algebra")
def test_criterion_04():
    res = state_space(CONDA5)
    assert res.dimension == 2
    a_i, b_i, c_i, d_i = (CONDA5.index(t) for t in "abcd")
    space = solve_affine(state_equations(CONDA5), CONDA5.size)
    for lam in ((F(0), F(0)), (F(2, 7), F(5, 9)), (F(1), F(1))):
        pt = point(space, lam)
        assert pt[a_i] == pt[d_i] and pt[b_i] == pt[c_i]
    assert len(res.vertices) == 4
    for s in (S1_HALF, S2_THIRD, S3, S4):
        assert is_bosbach_state(CONDA5, s)


@criterion(5, "state-morphism discrimination and max characterization")
def test_criterion_05():
    assert is_state_morphism(CONDA5, S1_HALF)
    assert is_state_morphism(CONDA5, S4)
    w = state_morphism_witness(CONDA5, S3)
    assert w == ("sm", (1, 2))
    x, y = w[1]
    j = vee1(CONDA5, x, y)
    assert S3[j] > max(S3[x], S3[y])
    for s in (S1_HALF, S2_THIRD, S3, S4):
        assert sm_characterization_check(CONDA5, s) == is_state_morphism(CONDA5, s)


@criterion(6, "measures, measure-morphisms, cone rays, and kernels")
def test_criterion_06():
    for m in (M1_1, M2_1, M4):
        assert is_measure(CONDA5, m) and is_measure_morphism(CONDA5, m)
    assert is_measure(CONDA5, M3_1_2) and not is_measure_morphism(CONDA5, M3_1_2)
    assert len(measure_cone(CONDA5)) == 2
    assert measure_kernel(CONDA5, M1_1) == _sub(CONDA5, "{1,a,d}")
    assert measure_kernel(CONDA5, M2_1) == _sub(CONDA5, "{1,b,c}")
    assert measure_kernel(CONDA5, M3_1_2) == _sub(CONDA5, "{1}")
    assert measure_kernel(CONDA5, M4) == frozenset(range(5))


@criterion(7, "internal-state and state-morphism operator families")
def test_criterion_07():
    is_one = set(enumerate_internal_states(CONDA5, "I"))
    is_two = set(enumerate_internal_states(CONDA5, "II"))
    assert is_one == is_two and len(is_one) == 10
    smo = set(enumerate_smo(CONDA5))
    assert len(smo) == 9
    assert smo - is_one
    expected_kernels = {
        "1 1 b b 1": "{1,a,d}",
        "1 a 1 1 a": "{1,b,c}",
        "1 1 1 1 1": "{1,a,b,c,d}",
    }
    for row, ker_text in expected_kernels.items():
        mu = tuple(CONDA5.index(t) for t in row.split())
        ker, _ = kernel_image(CONDA5, mu)
        assert ker == _sub(CONDA5, ker_text)


@criterion(8, "pseudo-valuation replay and cone geometry")
def test_criterion_08():
    import random

    assert is_pseudo_valuation(CONDA5, PHI_1_3)
    assert is_valuation(CONDA5, PHI_1_3)
    assert is_commutative_pv(CONDA5, PHI_1_3)
    rep = characterization_crosscheck(CONDA5, PHI_1_3)
    assert rep.pv_equivalence_agrees and rep.cpv_equivalence_agrees
    assert is_weak_pseudo_valuation(CONDA5, PHI_WEAK)
    assert pv_witness(CONDA5, PHI_WEAK) is not None

    rays = valuation_cone(CONDA5)
    assert len(rays) == 2
    supports = {
        frozenset(i for i, v in enumerate(r) if v != 0) for r in rays
    }
    assert supports == {_sub(CONDA5, "{a,d}"), _sub(CONDA5, "{b,c}")}

    ray_ad, ray_bc = sorted(rays)
    rng = random.Random(20260824)
    for _ in range(20):
        alpha = F(rng.randint(0, 40), rng.randint(1, 8))
        beta = F(rng.randint(0, 40), rng.randint(1, 8))
        phi = tuple(alpha * x + beta * y for x, y in zip(ray_ad, ray_bc))
        assert is_pseudo_valuation(CONDA5, phi)
        assert is_commutative_pv(CONDA5, phi) == is_pseudo_valuation(CONDA5, phi)


@criterion(9, "state and measure kernels classify as expected")
def test_criterion_09():
    for a in ALL_FIXTURES + (CHAIN2,):
        for s in state_space(a).vertices:
            ker = state_kernel(a, s)
            assert is_deductive_system(a, ker)
            assert is_fantastic(a, ker)
            if a.bottom is not None and s[a.bottom] == 0:
                assert is_involutive_ds(a, ker)
        for m in measure_cone(a):
            ker = measure_kernel(a, m)
            assert is_deductive_system(a, ker)
            assert is_normal(a, ker)
            assert is_fantastic(a, ker)


@criterion(10, "quotient by a state kernel is a commutative BE algebra")
def test_criterion_10():
    k = state_kernel(CONDA5, S1_HALF)
    assert k == _sub(CONDA5, "{1,a,d}")
    q = quotient(CONDA5, k).quotient
    assert q.arrow == q.squig
    for x in range(q.size):
        for y in range(q.size):
            assert vee1(q, x, y) == vee1(q, y, x)


@criterion(11, "meta-theorem sweep is counterexample-free")
def test_criterion_11():
    start = time.monotonic()
    rep = verify_meta_theorems(3)
    elapsed = time.monotonic() - start
    assert rep.clean
    assert elapsed < 60


@criterion(11, "meta-theorem sweep at size 4")
def test_criterion_11_size_four():
    start = time.monotonic()
    rep = verify_meta_theorems(4)
    elapsed = time.monotonic() - start
    assert rep.clean
    assert elapsed < 600


@criterion(12, "byte-identical CLI output across reruns")
def test_criterion_12(fixtures_dir):
    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.run(argv)
        return buf.getvalue()

    conda5 = str(fixtures_dir / "conda5.alg")
    bck4 = str(fixtures_dir / "bck4.alg")
    commands = [
        ["check", conda5],
        ["classify", conda5],
        ["ds", conda5],
        ["quotient", conda5, "--ds", "{1,a,d}"],
        ["states", conda5, "--vertices"],
        ["measures", conda5, "--rays"],
        ["internal", conda5, "--kind", "smo"],
        ["valuations", conda5, "--rays"],
        ["hom", bck4, bck4],
        ["find", "--size", "3"],
        ["meta", "--max-size", "2"],
    ]
    for argv in commands:
        runs = {capture(argv) for _ in range(3)}
        assert len(runs) == 1, argv


def _naive_ds_family(a):
    """Independent oracle: filter all subsets by direct closure checks."""
    out = []
    for bits in itertools.product((0, 1), repeat=a.size):
        d = frozenset(i for i in range(a.size) if bits[i])
        if a.unit not in d:
            continue
        ok = all(
            not (x in d and table[x][y] in d) or y in d
            for table in (a.arrow, a.squig)
            for x in range(a.size)
            for y in range(a.size)
        )
        if ok:
            out.append(d)
    return set(out)


@criterion(13, "enumeration results survive independent audits")
def test_criterion_13():
    for n in (1, 2, 3):
        pruned = list(enumerate_models(SearchConstraints(size=n)))
        audited = list(enumerate_models(SearchConstraints(size=n), audit=True))
        assert [(m.arrow, m.squig) for m in pruned] == [
            (m.arrow, m.squig) for m in audited
        ]
    for a in ALL_FIXTURES:
        assert set(enumerate_ds(a).subsets) == _naive_ds_family(a)
