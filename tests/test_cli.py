"""Command-line interface: exit codes, output formats, determinism."""

import argparse
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pseudobe
from pseudobe import cli, dsystems, finder
from pseudobe.algebra import check_axioms, parse_algebra, serialize_algebra
from pseudobe.dsystems import (
    enumerate_ds,
    format_subset,
    is_deductive_system,
    is_maximal,
    is_normal,
    is_prime,
    parse_subset,
)
from pseudobe.linalg import ConsistencyAlarmError


def run(capsys, *argv):
    code = cli.run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def alg(fixtures_dir):
    def path(name):
        return str(fixtures_dir / name)

    return path


def test_check_pass(capsys, alg):
    code, out, err = run(capsys, "check", alg("proper6.alg"))
    assert code == 0
    assert "holds true" in out and err == ""


def test_check_fail_with_witness(capsys, alg):
    code, out, _ = run(
        capsys, "check", alg("proper6.alg"), "--system", "pseudo-BCK"
    )
    assert code == 1
    assert "holds false" in out
    assert "violation psBCK" in out
    assert "violations-total" in out


def test_classify_text(capsys, alg):
    code, out, _ = run(capsys, "classify", alg("bounded6.alg"))
    assert code == 0
    assert "bounded true" in out
    assert "good " in out and "regular {" in out


def test_classify_exit_on_non_model(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        "algebra bad\nelements 1 a\nunit 1\n"
        "table arrow\n1 a\na a\ntable squig\n1 a\na a\nend\n"
    )
    code, out, _ = run(capsys, "classify", str(bad))
    assert code == 1
    assert "pseudo-be false" in out


def test_classify_linear_needs_each_element_below_itself(capsys, tmp_path):
    # 1 <= a fails and a <= 1 holds, so the two elements are comparable one
    # way; but a -> a = a is not 1, so a <= a fails and the order is not linear
    table = tmp_path / "table.alg"
    table.write_text(
        "algebra table\nelements 1 a\nunit 1\n"
        "table arrow\n1 a\n1 a\ntable squig\n1 a\n1 a\nend\n"
    )
    code, out, _ = run(capsys, "classify", str(table))
    assert code == 1
    assert "linear false\n" in out


def test_ds_listing(capsys, alg):
    code, out, _ = run(capsys, "ds", alg("bck4.alg"))
    assert code == 0
    assert "ds {1,b} prime maximal" in out
    assert "count 3" in out


def test_ds_filtered(capsys, alg):
    code, out, _ = run(capsys, "ds", alg("proper6.alg"), "--fantastic")
    assert code == 0
    assert "count 4" in out


@pytest.mark.parametrize("kind", ["prime", "maximal"])
@pytest.mark.parametrize("name", ["alarm2", "bck4", "bounded6", "conda5", "constant2", "proper6"])
def test_ds_prime_and_maximal_list_the_public_checks(capsys, alg, name, kind):
    """``ds --prime`` and ``ds --maximal`` list, in family order, the proper
    deductive systems that ``is_prime`` / ``is_maximal`` accept, in text and
    json; on alarm2, whose two modus ponens closures disagree, both exit 2."""
    a = parse_algebra(pathlib.Path(alg(f"{name}.alg")).read_text())
    text = run(capsys, "ds", alg(f"{name}.alg"), f"--{kind}")
    code, out, err = run(capsys, "--format", "json", "ds", alg(f"{name}.alg"), f"--{kind}")
    try:
        subsets = enumerate_ds(a).subsets
    except ConsistencyAlarmError as exc:
        assert text == (code, out, err) == (2, "", f"alarm: {exc}\n")
        return
    test = {"prime": is_prime, "maximal": is_maximal}[kind]
    chosen = [format_subset(a, d) for d in subsets if len(d) < a.size and test(a, d)]
    assert text == (0, "".join(f"ds {d}\n" for d in chosen) + f"count {len(chosen)}\n", "")
    assert (code, err) == (0, "")
    listed = {} if not chosen else {"ds": chosen[0] if len(chosen) == 1 else chosen}
    assert json.loads(out) == {"count": len(chosen), **listed}


def test_ds_two_kind_flags_exit_two(capsys, alg):
    # the kind flags are mutually exclusive: no flag silently wins
    with pytest.raises(SystemExit) as exc:
        cli.run(["ds", alg("conda5.alg"), "--normal", "--fantastic"])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "not allowed with argument" in cap.err


@pytest.fixture
def n4_df7d317709e7(tmp_path):
    """The size-4 model of the search named n4_df7d317709e7, written to a file."""
    models = finder.enumerate_models(finder.SearchConstraints(4))
    model = next(m for m in models if m.name == "n4_df7d317709e7")
    path = tmp_path / "n4_df7d317709e7.alg"
    path.write_text(serialize_algebra(model))
    return path


def test_ds_normal_needs_both_implications(capsys, n4_df7d317709e7):
    # {1,c} is a DS, and x -> y in {1,c} implies x ~> y in it, but not the
    # converse: b ~> a = c while b -> a = a
    a = parse_algebra(n4_df7d317709e7.read_text())
    assert is_deductive_system(a, parse_subset(a, "{1,c}"))
    assert not is_normal(a, parse_subset(a, "{1,c}"))
    code, out, err = run(capsys, "ds", str(n4_df7d317709e7), "--normal")
    assert (code, out, err) == (0, "ds {1}\nds {1,a,b,c}\ncount 2\n", "")


def test_valuations_verify_bounds_phi_by_both_implications(capsys, n4_df7d317709e7, tmp_path):
    # phi(a) - phi(b) = 1 is at most phi(b -> a) = phi(a) = 1 but exceeds
    # phi(b ~> a) = phi(c) = 0, so a bound by the larger of the two passes it
    phi = tmp_path / "phi.valuation"
    phi.write_text("valuation phi\n1 = 0\na = 1\nb = 0\nc = 0\n")
    code, out, err = run(capsys, "valuations", str(n4_df7d317709e7), "--verify", str(phi))
    assert (code, err) == (1, "")
    assert out == (
        "valuation phi\nis-pseudo-valuation false\nis-weak-pseudo-valuation true\n"
        "violation pv2 (b,a)\n"
    )


def test_ds_involutive_requires_bounded(capsys, alg):
    code, _, err = run(capsys, "ds", alg("bck4.alg"), "--involutive")
    assert code == 2
    assert err.startswith("error:")


def test_quotient(capsys, alg):
    code, out, _ = run(
        capsys, "quotient", alg("conda5.alg"), "--ds", "{1,a,d}"
    )
    assert code == 0
    assert "class {1,a,d}" in out and "class {b,c}" in out
    quoted = "\n".join(
        line.split(" ", 1)[1]
        for line in out.splitlines()
        if line.startswith("quotient ")
    )
    q = parse_algebra(quoted)
    assert q.size == 2 and check_axioms(q, "pseudo-BE").holds
    assert q.arrow == q.squig


def test_quotient_rejects_non_ds(capsys, alg):
    code, out, err = run(
        capsys, "quotient", alg("conda5.alg"), "--ds", "{1,a}"
    )
    assert code == 2 and out == ""
    assert err == "error: {1,a} is not a deductive system\n"


def test_quotient_rejects_non_distributive(capsys, alg):
    code, out, err = run(capsys, "quotient", alg("bck4.alg"), "--ds", "{1}")
    assert code == 2 and out == ""
    assert err == (
        "error: bck4 is not distributive; quotients are defined on "
        "distributive algebras only\n"
    )


# each table pair passes the distributive identity; none is pseudo-BE, so
# the quotient refuses each before its construction starts
QUOTIENT_ALARMS = {
    # x -> x = a everywhere, so no x is related to itself by {1}
    "reflexive": ("constant2", None, "quotient relation not reflexive"),
    # {1} relates no two elements, and the tables stay apart on the classes
    "differ": (
        "differ2",
        "elements 1 a\nunit 1\ntable arrow\n1 a\na 1\ntable squig\n1 a\n1 a\n",
        "quotient tables differ; expected a BE quotient",
    ),
    # {1} relates a to b and b to c, but not a to c
    "transitive": (
        "trans4",
        "elements 1 a b c\nunit 1\n"
        "table arrow\n1 a a a\n1 1 1 a\n1 1 1 1\n1 1 1 1\n"
        "table squig\n1 a a c\n1 a a c\n1 a a c\n1 a a c\n",
        "quotient relation not transitive",
    ),
}


def _quotient_input(alg, tmp_path, case):
    name, body, _ = QUOTIENT_ALARMS[case]
    if body is None:
        return name, alg(f"{name}.alg")
    path = tmp_path / f"{name}.alg"
    path.write_text(f"algebra {name}\n{body}end\n")
    return name, str(path)


@pytest.mark.parametrize("case", QUOTIENT_ALARMS)
def test_quotient_rejects_non_pseudo_be(capsys, alg, tmp_path, case):
    name, path = _quotient_input(alg, tmp_path, case)
    code, out, err = run(capsys, "quotient", path, "--ds", "{1}")
    assert (code, out, err) == (
        2, "", f"error: {name} is not pseudo-BE; quotients are defined on "
        "pseudo-BE algebras only\n"
    )


@pytest.mark.parametrize("case", QUOTIENT_ALARMS)
def test_quotient_alarms(capsys, alg, tmp_path, monkeypatch, case):
    # fault injection: with both hypothesis checks passing every table, each
    # input reaches the construction and trips its alarm
    monkeypatch.setattr(dsystems, "_holds", lambda *args: True)
    _, path = _quotient_input(alg, tmp_path, case)
    code, out, err = run(capsys, "quotient", path, "--ds", "{1}")
    assert (code, out, err) == (2, "", f"alarm: {QUOTIENT_ALARMS[case][2]}\n")


def test_states_summary_and_vertices(capsys, alg):
    code, out, _ = run(capsys, "states", alg("conda5.alg"), "--vertices")
    assert code == 0
    assert "dimension 2" in out
    assert "vertex-count 4" in out
    assert out.count("vertex ") == 4


def test_states_verify(capsys, alg):
    code, out, _ = run(
        capsys,
        "states",
        alg("conda5.alg"),
        "--verify",
        alg("s1_half.state"),
        "--morphism",
    )
    assert code == 0
    assert "bosbach true" in out and "state-morphism true" in out


def test_states_verify_morphism_failure(capsys, alg):
    code, out, _ = run(
        capsys,
        "states",
        alg("conda5.alg"),
        "--verify",
        alg("s3_half_third.state"),
        "--morphism",
    )
    assert code == 1
    assert "state-morphism false" in out and "violation sm" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["states", "conda5.alg", "--morphism"], "--morphism needs --verify"),
        (["valuations", "conda5.alg", "--commutative"], "--commutative needs --verify"),
        (
            ["states", "conda5.alg", "--vertices", "--verify", "s1_half.state"],
            "--vertices cannot be combined with --verify",
        ),
        (
            ["measures", "conda5.alg", "--rays", "--verify", "m1_1.measure"],
            "--rays cannot be combined with --verify",
        ),
        (
            ["valuations", "conda5.alg", "--rays", "--verify", "phi_1_3.valuation"],
            "--rays cannot be combined with --verify",
        ),
        (
            ["hom", "conda5.alg", "conda5.alg", "--verify", "id_conda5.hom", "--iso"],
            "--iso cannot be combined with --verify",
        ),
    ],
    ids=[
        "states-morphism",
        "valuations-commutative",
        "states-vertices",
        "measures-rays",
        "valuations-rays",
        "hom-iso",
    ],
)
def test_ignored_flag_exits_two(capsys, alg, argv, message):
    # each of these flags used to be accepted and silently do nothing
    code, out, err = run(capsys, *(alg(t) if "." in t else t for t in argv))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_measures(capsys, alg):
    code, out, _ = run(capsys, "measures", alg("conda5.alg"), "--rays")
    assert code == 0
    assert "ray-count 2" in out and out.count("ray ") == 2

    code, out, _ = run(
        capsys, "measures", alg("conda5.alg"), "--verify", alg("m3_1_2.measure")
    )
    assert code == 0
    assert "is-measure true" in out and "is-measure-morphism false" in out


def test_internal(capsys, alg):
    code, out, _ = run(capsys, "internal", alg("conda5.alg"), "--kind", "I")
    assert code == 0 and "count 10" in out

    code, out, _ = run(capsys, "internal", alg("conda5.alg"), "--kind", "smo")
    assert code == 0 and "count 9" in out

    code, out, _ = run(
        capsys,
        "internal",
        alg("conda5.alg"),
        "--kind",
        "II",
        "--verify",
        alg("mu6.op"),
    )
    assert code == 0 and "valid true" in out


def test_internal_smo_verify(capsys, alg):
    argv = ("internal", alg("conda5.alg"), "--kind", "smo", "--verify", alg("mu6.op"))
    assert run(capsys, *argv) == (0, "operator 1 1 b b 1\nvalid true\n", "")


def test_valuations(capsys, alg):
    code, out, _ = run(capsys, "valuations", alg("conda5.alg"), "--rays")
    assert code == 0 and "ray-count 2" in out

    code, out, _ = run(
        capsys,
        "valuations",
        alg("conda5.alg"),
        "--verify",
        alg("phi_1_3.valuation"),
        "--commutative",
    )
    assert code == 0
    assert "is-pseudo-valuation true" in out and "is-commutative true" in out

    code, out, _ = run(
        capsys,
        "valuations",
        alg("conda5.alg"),
        "--verify",
        alg("phi_weak.valuation"),
    )
    assert code == 1
    assert "is-pseudo-valuation false" in out
    assert "is-weak-pseudo-valuation true" in out


def test_valuations_rays_proper6(capsys, alg):
    code, out, err = run(capsys, "valuations", alg("proper6.alg"), "--rays")
    assert code == 0 and err == ""
    assert out == (
        "ray-count 3\n"
        "ray 1=0 a=0 b=1 c=1 d=1 e=0\n"
        "ray 1=0 a=1 b=0 c=0 d=0 e=0\n"
        "ray 1=0 a=1 b=0 c=0 d=0 e=1\n"
    )


def test_hom(capsys, alg):
    code, out, _ = run(
        capsys,
        "hom",
        alg("conda5.alg"),
        alg("conda5.alg"),
        "--verify",
        alg("id_conda5.hom"),
    )
    assert code == 0
    assert "is-homomorphism true" in out and "kernel {1}" in out

    code, out, _ = run(
        capsys, "hom", alg("conda5.alg"), alg("conda5.alg"), "--iso"
    )
    assert code == 0 and "count 1" in out

    code, out, _ = run(
        capsys, "hom", alg("bck4.alg"), alg("conda5.alg"), "--iso"
    )
    assert code == 1 and "count 0" in out


def test_hom_outside_pseudo_be(capsys, alg):
    # 1->a, a->a preserves both tables of constant2 but does not fix 1
    code, out, _ = run(capsys, "hom", alg("constant2.alg"), alg("constant2.alg"))
    assert code == 0
    assert out == "hom 1 a\nhom a a\ncount 2\n"


@pytest.mark.parametrize(
    "argv, text, expected",
    [
        (
            ["states", "conda5.alg"],
            "state bad\n1 = 1\na = 2\nb = 1\nc = 1\nd = 1\n",
            "state bad\nbosbach false\nviolation range (a)\n",
        ),
        (
            ["measures", "conda5.alg"],
            "measure bad\n1 = 0\na = -1\nb = 0\nc = 0\nd = 0\n",
            "measure bad\nis-measure false\nviolation range (a)\n",
        ),
        (
            # constant2 has no comparable pair, so only m(1) = 0 rejects this
            ["measures", "constant2.alg"],
            "measure bad\n1 = 1\na = 0\n",
            "measure bad\nis-measure false\nviolation m1 (1)\n",
        ),
        (
            # a ray of the valuation cone, so a pv, but not a commutative one
            ["valuations", "bck4.alg", "--commutative"],
            "valuation phi\n1 = 0\na = 1\nb = 0\nc = 1\n",
            "valuation phi\nis-pseudo-valuation true\nis-weak-pseudo-valuation true\n"
            "is-commutative false\nviolation cpv2 (c,a)\n",
        ),
        (
            ["hom", "conda5.alg", "conda5.alg"],
            "hom 1->a\nhom a->a\nhom b->a\nhom c->a\nhom d->a\n",
            "is-homomorphism false\nviolation arrow (1,1)\n",
        ),
        (
            # b and c go to a, which goes to 1: mu(mu(b)) != mu(b)
            ["internal", "conda5.alg", "--kind", "smo"],
            "map 1->1\nmap a->1\nmap b->a\nmap c->a\nmap d->1\n",
            "operator 1 1 a a 1\nvalid false\nviolation idempotent (b)\n",
        ),
        (
            # s(a) + s(a ~> b) = 1/2 but s(b) + s(b ~> a) = 1
            ["states", "conda5.alg"],
            "state s\n1 = 1\na = 0\nb = 0\nc = 1/2\nd = 1/2\n",
            "state s\nbosbach false\nviolation bs3 (a,b)\n",
        ),
        (
            ["valuations", "conda5.alg"],
            "valuation phi\n1 = 1\na = 0\nb = 0\nc = 0\nd = 0\n",
            "valuation phi\nis-pseudo-valuation false\nis-weak-pseudo-valuation false\n"
            "violation pv1 (1)\n",
        ),
    ],
    ids=[
        "states",
        "measures",
        "measures-unit",
        "valuations-commutative",
        "hom",
        "internal-smo",
        "states-bs3",
        "valuations-pv1",
    ],
)
def test_verify_failure_exits_one(capsys, alg, tmp_path, argv, text, expected):
    verify = tmp_path / "input"
    verify.write_text(text)
    argv = [alg(t) if t.endswith(".alg") else t for t in argv]
    code, out, err = run(capsys, *argv, "--verify", str(verify))
    assert (code, out, err) == (1, expected, "")


def test_repeated_lines_are_usage_errors(capsys, alg, tmp_path):
    op = tmp_path / "twice.op"
    op.write_text("map 1->1\nmap a->1\nmap b->b\nmap c->b\nmap d->1\nmap d->d\n")
    hom = tmp_path / "twice.hom"
    hom.write_text("hom 1->1\nhom a->a\nhom a->d\nhom b->b\nhom c->c\nhom d->d\n")
    state = tmp_path / "twice.state"
    state.write_text("state s\n1 = 1\na = 1\nb = 1/2\nc = 1/2\nd = 1\na = 0\n")
    c5 = alg("conda5.alg")
    for argv in (
        ("internal", c5, "--kind", "smo", "--verify", str(op)),
        ("hom", c5, c5, "--verify", str(hom)),
        ("states", c5, "--verify", str(state)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_separator_in_token_is_usage_error(capsys, tmp_path):
    # an element x=y could never be named in a state file's "x=y = 1" line
    bad = tmp_path / "eq.alg"
    bad.write_text(
        "algebra eq\nelements 1 x=y\nunit 1\n"
        "table arrow\n1 x=y\n1 1\ntable squig\n1 x=y\n1 1\nend\n"
    )
    code, out, err = run(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert err == (
        "error: element token 'x=y' contains '=', a separator of subsets, "
        "assignments and maps\n"
    )


def test_ambiguous_input_is_usage_error(capsys, alg, tmp_path):
    c5 = alg("conda5.alg")
    trailing = tmp_path / "trailing.alg"
    trailing.write_text(pathlib.Path(c5).read_text() + "table arrow\n")
    decimal = tmp_path / "decimal.state"
    decimal.write_text("state s\n1 = 1\na = 1\nb = 0.5\nc = 0.5\nd = 1\n")
    for argv in (
        ("classify", str(trailing)),
        ("states", c5, "--verify", str(decimal)),
        ("quotient", c5, "--ds", "{1,a,a,d}"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_alarm_exits_two(capsys, alg):
    # alarm2 is not pseudo-BE: its arrow and squig closures of {1} disagree
    a2 = alg("alarm2.alg")
    for argv in (
        ("ds", a2),
        ("ds", a2, "--prime"),
        ("ds", a2, "--involutive"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == "alarm: modus ponens closures disagree on {1}\n", argv
    # the quotient checks its pseudo-BE hypothesis before any closure runs
    code, out, err = run(capsys, "quotient", a2, "--ds", "{1}")
    assert (code, out, err) == (
        2, "", "error: alarm2 is not pseudo-BE; quotients are defined on "
        "pseudo-BE algebras only\n"
    )


# every subcommand once per file; hom takes the file twice
FUZZ_COMMANDS = (
    ("check",),
    ("classify",),
    ("ds",),
    ("ds", "--prime"),
    ("ds", "--involutive"),
    ("quotient", "--ds", "{1}"),
    ("states",),
    ("measures",),
    ("internal", "--kind", "I"),
    ("internal", "--kind", "II"),
    ("internal", "--kind", "smo"),
    ("valuations",),
    ("hom", "--iso"),
)


@st.composite
def algebra_texts(draw):
    """A random table pair on at most 3 elements, sometimes with a bottom,
    sometimes with one line dropped, duplicated or garbled."""
    n = draw(st.integers(1, 3))
    toks = "1ab"[:n]

    def rows():
        return [" ".join(draw(st.lists(st.sampled_from(toks), min_size=n, max_size=n)))
                for _ in range(n)]

    lines = ["algebra fuzz", "elements " + " ".join(toks), "unit 1"]
    if draw(st.booleans()):
        lines.append("bottom " + draw(st.sampled_from(toks)))
    lines += ["table arrow", *rows(), "table squig", *rows(), "end"]
    mutation = draw(st.sampled_from(("none", "drop", "duplicate", "garble")))
    k = draw(st.integers(0, len(lines) - 1))
    if mutation == "drop":
        del lines[k]
    elif mutation == "duplicate":
        lines.insert(k, lines[k])
    elif mutation == "garble":
        lines[k] = draw(st.text(alphabet="1ab ->{},=/#", max_size=10))
    return "\n".join(lines) + "\n"


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=algebra_texts())
def test_fuzz_every_subcommand(tmp_path, text):
    path = tmp_path / "fuzz.alg"
    path.write_text(text)
    for cmd, *rest in FUZZ_COMMANDS:
        files = [str(path)] * (2 if cmd == "hom" else 1)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.run([cmd, *files, *rest])
        assert code in (0, 1, 2), (cmd, rest)


@pytest.mark.parametrize("module", ["pseudobe", "pseudobe.cli"])
def test_module_entry_points(alg, module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudobe.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", module, "hom", alg("constant2.alg"), alg("constant2.alg")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "hom 1 a\nhom a a\ncount 2\n"


def test_find_and_emit(capsys, tmp_path):
    outdir = tmp_path / "models"
    code, out, _ = run(
        capsys, "find", "--size", "3", "--emit", str(outdir)
    )
    assert code == 0 and "count 4" in out
    emitted = sorted(outdir.glob("*.alg"))
    assert len(emitted) == 4
    for path in emitted:
        m = parse_algebra(path.read_text())
        assert check_axioms(m, "pseudo-BE").holds
    # each file is <hash>.alg for a printed model name n3_<hash>
    names = [line.split()[1] for line in out.splitlines() if line.startswith("model ")]
    assert all(name.startswith("n3_") for name in names)
    assert sorted(f"{name[3:]}.alg" for name in names) == [p.name for p in emitted]
    for name in names:
        assert parse_algebra((outdir / f"{name[3:]}.alg").read_text()).name == name


def test_find_flags_and_limit(capsys):
    code, out, _ = run(
        capsys, "find", "--size", "4", "--flag", "commutative", "--limit", "3"
    )
    assert code == 0 and "count 3" in out


def test_find_limit_zero_and_negative(capsys):
    assert run(capsys, "find", "--size", "3", "--limit", "0") == (0, "count 0\n", "")
    assert run(capsys, "find", "--size", "3", "--limit", "-1") == (
        2, "", "error: limit must be >= 0\n"
    )


def test_meta_max_size_below_one(capsys):
    for n in ("0", "-3"):
        assert run(capsys, "meta", "--max-size", n) == (
            2, "", "error: max size must be >= 1\n"
        )


def test_meta(capsys):
    code, out, _ = run(capsys, "meta", "--max-size", "3")
    assert code == 0
    assert "models 6" in out and "clean true" in out
    assert out.count("theorem ") == 16


SWEEP4_TAGS = (
    "bck-implies-two-implication-core",
    "bounded-state-kernels-involutive",
    "commutative-ds-all-fantastic",
    "commutative-implies-bck",
    "commutative-pv-all-commutative",
    "distributive-ds-all-normal",
    "fantastic-implies-involutive",
    "fantastic-upward-closed",
    "finite-commutative-implies-single-implication",
    "linear-commutative-type1-states-are-smo",
    "linear-type2-states-are-smo",
    "measure-kernels-normal-fantastic",
    "p-system-iff-commutative",
    "pv-implies-weak-pv",
    "q-system-iff-commutative",
    "state-kernels-fantastic",
)


def test_meta_size_four_stdout_frozen(capsys):
    code, out, err = run(capsys, "meta", "--max-size", "4")
    assert code == 0 and err == ""
    theorems = [f"theorem {tag} checked=83 counterexamples=0" for tag in SWEEP4_TAGS]
    assert out.splitlines() == ["models 83", *theorems, "clean true"]


@pytest.fixture
def weak_pv_fails(monkeypatch):
    """Make every pseudo-valuation ray fail the weak-pv test in the sweep."""
    monkeypatch.setattr(finder, "weak_pv_witness", lambda a, phi: ("pv6", (0, 0)))


def test_meta_counterexample_exits_one(capsys, weak_pv_fails):
    # the sweep runs to the end, reports every count on stdout and each
    # failing tag's first witness on stderr
    code, out, err = run(capsys, "meta", "--max-size", "3")
    assert code == 1
    lines = out.splitlines()
    assert "theorem pv-implies-weak-pv checked=6 counterexamples=5" in lines
    assert "theorem commutative-pv-all-commutative checked=6 counterexamples=0" in lines
    assert lines[-1] == "clean false"
    (model,) = finder.enumerate_models(finder.SearchConstraints(size=2))
    assert model.name == "n2_5539bae4a742"
    witness = f"pv that is not a weak pv\n{serialize_algebra(model)}"
    assert err == f"counterexample: pv-implies-weak-pv: {witness}\n"


def test_meta_allow_counterexamples_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["meta", "--max-size", "3", "--allow-counterexamples"])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "unrecognized arguments: --allow-counterexamples" in cap.err


def test_json_output(capsys, alg):
    code, out, _ = run(
        capsys, "--format", "json", "ds", alg("bck4.alg")
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert isinstance(obj["ds"], list) and len(obj["ds"]) == 3


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.alg")
    assert code == 2 and err.startswith("error:")


def test_malformed_file_is_usage_error(capsys, alg, tmp_path):
    # a file that ends after its elements, and one without its end line
    bck4 = pathlib.Path(alg("bck4.alg")).read_text()
    bad = tmp_path / "bad.alg"
    for text in ("algebra x\nelements 1 a\n", bck4[: bck4.rindex("end")]):
        bad.write_text(text)
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out, err) == (2, "", "error: unexpected end of input\n"), text


def test_unknown_flag_exits_two(capsys, alg):
    with pytest.raises(SystemExit) as exc:
        cli.run(["check", alg("bck4.alg"), "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_determinism_three_runs(capsys, alg, tmp_path):
    commands = [
        ["check", alg("proper6.alg"), "--system", "pseudo-BE"],
        ["classify", alg("bounded6.alg")],
        ["ds", alg("conda5.alg")],
        ["quotient", alg("conda5.alg"), "--ds", "{1,a,d}"],
        ["states", alg("conda5.alg"), "--vertices"],
        ["measures", alg("conda5.alg"), "--rays"],
        ["internal", alg("conda5.alg"), "--kind", "smo"],
        ["valuations", alg("conda5.alg"), "--rays"],
        ["hom", alg("bck4.alg"), alg("bck4.alg")],
        ["find", "--size", "3"],
        ["meta", "--max-size", "2"],
    ]
    for argv in commands:
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, *argv)
            outs.add(out)
        assert len(outs) == 1, argv


def test_workers_option_is_a_usage_error(capsys):
    # the sweep runs in one loop; no option sets a worker count
    with pytest.raises(SystemExit) as exc:
        cli.run(["--workers", "1", "meta", "--max-size", "2"])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "pseudobe: error:" in cap.err


def test_readme_command_line_matches_parser():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    usage = section.split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsers = [parser, *subparsers.choices.values()]
    options = {
        opt
        for p in parsers
        for action in p._actions
        for opt in action.option_strings
    } - {"-h", "--help"}
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert documented - options == set()
    assert options - documented == set()
    missing = [
        name for name in subparsers.choices if f"pseudobe {name} " not in usage
    ]
    assert missing == []
