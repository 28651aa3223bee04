"""Mutation runner: does the non-slow test suite kill each listed mutant?

Each mutant is one small edit of the source: a file, an exact old text
(which must occur exactly once in that file), the new text, and the test
expected to kill it.  For each mutant the script copies the checkout to a
temporary directory, applies the edit there, runs

    python -m pytest -x -q -m "not slow"

in the copy, leaving out the test that checks this list against the
source (``GUARD``), and reports the mutant as killed (the run failed; the
first failing test is named) or survived.  A killed mutant whose expected
test was not the first to fail is checked again with that test alone.
The checkout itself is never edited.

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named mutants

Each mutant costs one suite run, about half a minute.  The exit code is 0
when every mutant run was killed by its expected test, 1 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the tier-1 test that each old text below occurs once in its file: it
# fails on every mutated copy, so the runs leave it out
GUARD = "tests/test_source.py::test_mutants_still_apply"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    killer: str  # a pytest node id


MUTANTS = (
    Mutant(
        "pv-bound-by-max",
        "src/pseudobe/valuations.py",
        "for t in (a.arrow, a.squig)\n         if phi[y] - phi[x] > phi[t[x][y]]),",
        "for t in (a.arrow,)\n"
        "         if phi[y] - phi[x] > max(phi[a.arrow[x][y]], phi[a.squig[x][y]])),",
        "tests/test_cli.py::test_valuations_verify_bounds_phi_by_both_implications",
    ),
    Mutant(
        "pv-arrow-twin-only",
        "src/pseudobe/valuations.py",
        "for t in (a.arrow, a.squig)\n         if phi[y] - phi[x] > phi[t[x][y]]),",
        "for t in (a.arrow,)\n         if phi[y] - phi[x] > phi[t[x][y]]),",
        "tests/test_cli.py::test_valuations_verify_bounds_phi_by_both_implications",
    ),
    Mutant(
        "cpv-without-cpv2",
        "src/pseudobe/valuations.py",
        'twins = (("cpv1", a.arrow, vee1), ("cpv2", a.squig, vee2))',
        'twins = (("cpv1", a.arrow, vee1),)',
        "tests/test_cli.py::test_verify_failure_exits_one",
    ),
    Mutant(
        "normal-one-way",
        "src/pseudobe/dsystems.py",
        "if (a.arrow[x][y] in d) != (a.squig[x][y] in d):",
        "if a.arrow[x][y] in d and a.squig[x][y] not in d:",
        "tests/test_cli.py::test_ds_normal_needs_both_implications",
    ),
    Mutant(
        "fantastic-arrow-half-only",
        "src/pseudobe/dsystems.py",
        "            if a.squig[y][x] in d and a.squig[vee2(a, x, y)][x] not in d:\n"
        "                return False\n",
        "",
        "tests/test_cli.py::test_ds_listing",
    ),
    Mutant(
        "ds-subsets-reversed",
        "src/pseudobe/dsystems.py",
        "subsets = tuple(d for d in candidates if is_deductive_system(a, d))",
        "subsets = tuple(reversed([d for d in candidates if is_deductive_system(a, d)]))",
        "tests/test_cli.py::test_ds_normal_needs_both_implications",
    ),
    Mutant(
        "quotient-transitivity-unchecked",
        "src/pseudobe/dsystems.py",
        "if related[x][y] and related[y][z] and not related[x][z]:",
        "if False:",
        "tests/test_cli.py::test_quotient_alarms",
    ),
    Mutant(
        "disjunction-read-as-conjunction",
        "src/pseudobe/algebra.py",
        '" and " if disjunctive else " or "',
        '" or "',
        "tests/test_algebra.py::test_disjunction_is_broken_where_every_disjunct_fails",
    ),
    Mutant(
        "linear-without-antisymmetry",
        "src/pseudobe/algebra.py",
        ", antisymmetric=_ANTISYMMETRY",
        "",
        "tests/test_algebra.py::test_classify_decides_be_and_linear_by_their_identities",
    ),
    Mutant(
        "be-not-declared",
        "src/pseudobe/algebra.py",
        '"BE": dict(BE="x -> y = x ~> y"),',
        '"BE": dict(),',
        "tests/test_finder.py::test_search_domains_follow_the_axioms_written_out",
    ),
    Mutant(
        "measure-face-by-inequality",
        "src/pseudobe/states.py",
        "if all(r[t] + r[x] == r[y] for (t, x), (y,) in terms)",
        "if all(r[t] + r[x] >= r[y] for (t, x), (y,) in terms)",
        "tests/test_acceptance.py::test_criterion_11",
    ),
    Mutant(
        "state-dimension-keeps-t",
        "src/pseudobe/states.py",
        "return a.size - 1 - len(_integer_rref(rows)[0])",
        "return a.size - len(_integer_rref(rows)[0])",
        "tests/test_cli.py::test_states_summary_on_every_fixture",
    ),
    Mutant(
        "measure-cone-without-equalities",
        "src/pseudobe/states.py",
        "_cone(_unit_free_rows(a, _measure_terms(a), n - 1), nonneg, n - 1)",
        "_cone((), nonneg, n - 1)",
        "tests/test_states.py::test_measure_cone_two_rays",
    ),
    Mutant(
        "unit-coordinate-first",
        "src/pseudobe/states.py",
        "return values[: a.unit] + (value,) + values[a.unit :]",
        "return (value,) + values",
        "tests/test_states.py::test_polyhedra_match_the_public_builders",
    ),
    Mutant(
        "dd-without-adjacency-test",
        "src/pseudobe/linalg.py",
        "                if any(\n"
        "                    zeros[t] & common == common\n"
        "                    for t in range(len(rays))\n"
        "                    if t != p and t != q\n"
        "                ):\n"
        "                    continue\n",
        "",
        "tests/test_swap.py::test_answers_are_relabelling_equivariant",
    ),
    Mutant(
        "null-basis-without-pivot-scale",
        "src/pseudobe/linalg.py",
        "x[c] = -row[free] * (scale // row[c])",
        "x[c] = -row[free]",
        "tests/test_linalg.py::test_integer_cone_basis_matches_fraction_audit",
    ),
    Mutant(
        "cone-memo-key-drops-equalities",
        "src/pseudobe/linalg.py",
        "key = (space, tuple(sorted(rows)), num_vars)",
        "key = (tuple(sorted(rows)), num_vars)",
        "tests/test_finder.py::test_shared_cones_equal_unshared_runs",
    ),
    Mutant(
        "row-space-key-keeps-first-row",
        "src/pseudobe/linalg.py",
        "key = (space, tuple(sorted(rows)), num_vars)",
        "key = (space[:1], tuple(sorted(rows)), num_vars)",
        "tests/test_finder.py::test_shared_cones_equal_unshared_runs",
    ),
    Mutant(
        "cone-memo-outlives-sweep",
        "src/pseudobe/linalg.py",
        "    finally:\n        _cone_memo = None\n",
        "    finally:\n        pass\n",
        "tests/test_finder.py::test_shared_cones_last_one_sweep",
    ),
    Mutant(
        "canonical-on-arrow-only",
        "src/pseudobe/finder.py",
        "(_first_difference(arrow, p, cells) or _first_difference(squig, p, cells)) >= 0",
        "_first_difference(arrow, p, cells) >= 0",
        "tests/test_algebra.py::test_axiom_reports_digest",
    ),
    Mutant(
        "watch-only-later-rows",
        "src/pseudobe/finder.py",
        "if k == last or free[k][0] in rows or None in rows:",
        "if free[k][0] in rows or None in rows:",
        "tests/test_finder.py::test_flagged_search_equals_filtered_search",
    ),
    Mutant(
        "domains-without-psbe5",
        "src/pseudobe/finder.py",
        "in map(_identity, dict.fromkeys(declared)):",
        'in map(_identity, (d for d in dict.fromkeys(declared) if "<=>" not in d)):',
        "tests/test_finder.py::test_search_domains_follow_the_axioms_written_out",
    ),
    Mutant(
        "domains-without-last-pair",
        "src/pseudobe/finder.py",
        "domains = [sorted(pairs[cell]) for cell in free]",
        "domains = [sorted(pairs[cell])[:-1] for cell in free]",
        "tests/test_algebra.py::test_axiom_reports_digest",
    ),
    Mutant(
        "audit-over-all-pairs",
        "src/pseudobe/finder.py",
        "return scan_maps(domains, accept) if audit",
        "return scan_maps([range(n * n)] * len(free), accept) if audit",
        "tests/test_finder.py::test_search_domains_follow_the_axioms_written_out",
    ),
    Mutant(
        "assign-keeps-stale-cells",
        "src/pseudobe/finder.py",
        "        for x, y in free[len(f) :]:\n            arrow[x][y] = squig[x][y] = n\n",
        "",
        "tests/test_algebra.py::test_axiom_reports_digest",
    ),
    Mutant(
        "accept-without-assign",
        "src/pseudobe/finder.py",
        "        assign(f)\n        leaf = ",
        "        leaf = ",
        "tests/test_acceptance.py::test_criterion_13",
    ),
    Mutant(
        "commutative-pv-claim-off",
        "src/pseudobe/finder.py",
        '"non-commutative pv on a commutative algebra"\n            for phi in rays',
        '"non-commutative pv on a commutative algebra"\n            for phi in ()',
        "tests/test_finder.py::test_every_swept_claim_is_live",
    ),
    Mutant(
        "search-streams-truthy-only",
        "src/pseudobe/homs.py",
        "            if (kept := accept(f)) is not None:\n                yield kept\n"
        "            continue",
        "            if (kept := accept(f)):\n                yield kept\n            continue",
        "tests/test_homs.py::test_search_maps_streams_in_lexicographic_order",
    ),
    Mutant(
        "meta-exits-zero-on-counterexample",
        "src/pseudobe/cli.py",
        "return 0 if result.clean else 1",
        "return 0",
        "tests/test_cli.py::test_meta_counterexample_exits_one",
    ),
)

_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")


def mutated(root: pathlib.Path, m: Mutant) -> str:
    """The text of ``m.path`` under ``root`` with the mutant applied."""
    text = (root / m.path).read_text(encoding="utf-8")
    count = text.count(m.old)
    if count != 1:
        raise ValueError(f"{m.name}: old text occurs {count} times in {m.path}")
    return text.replace(m.old, m.new)


def _pytest(copy: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    path = filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def run(m: Mutant) -> tuple[bool, str, bool]:
    """(killed, first failing test or "", whether the expected killer fails)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        (copy / m.path).write_text(mutated(ROOT, m), encoding="utf-8")
        suite = _pytest(copy, "-x", "-m", "not slow", "--deselect", GUARD)
        if suite.returncode == 0:
            return False, "", False
        found = re.search(r"^(?:FAILED|ERROR) (\S+)", suite.stdout, re.M)
        first = found.group(1) if found else f"pytest exit {suite.returncode}"
        # pytest exits 1 when a collected test failed; 4 and 5 mean the
        # expected test was not found
        expected = first.split("[")[0] == m.killer or _pytest(copy, m.killer).returncode == 1
        return True, first, expected


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = p.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        p.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    failures = 0
    for m in chosen:
        killed, first, expected = run(m)
        if not killed:
            verdict = "SURVIVED"
        elif expected:
            verdict = f"killed by {first}"
        else:
            verdict = f"killed by {first}, but {m.killer} passes"
        failures += not (killed and expected)
        print(f"{m.name}: {verdict}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} killed by their expected test")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
