"""The three benchmark workloads: what one op is, how a pass runs, and how
its outputs are checked.

Every workload is a closed loop with one client: each op starts when the
previous one has ended.  A pass is the unit the harness repeats:

* ``sweep4``  -- one op, ``pseudobe meta --max-size 4`` (83 models);
* ``search5`` -- one op per model yielded by the size-5 search, limited to
  ``SEARCH_LIMIT`` models;
* ``queries`` -- one op per CLI query in ``QUERIES``, in an order shuffled
  by the seed.

``run_pass`` returns each op's (start, end) ``time.perf_counter`` readings
and raw output; ``check`` judges those outputs afterwards, so that output
checks never run inside a timed op or inside a traced span.  The program's functions are looked up on
their modules at call time, so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time

SEARCH_LIMIT = 3000
SWEEP_MAX_SIZE = 4

FIXTURES = "tests/fixtures"
ALGEBRAS = ("bck4", "conda5", "proper6", "bounded6")
# `valuations --rays` on the 6-element algebras takes minutes per query.
VALUATION_RAYS = ("bck4", "conda5")
# `quotient` is defined on the distributive algebras only.
QUOTIENT_DS = {"conda5": "{1,a,d}", "proper6": "{1,e}"}
STATES = ("s1_half", "s2_third", "s3_half_third", "s4")
MEASURES = ("m1_1", "m2_1", "m3_1_2", "m4")
VALUATIONS = ("phi_1_3", "phi_weak")

# Values frozen in the test suite, checked again on the parsed output.
FROZEN = {
    "states tests/fixtures/conda5.alg --vertices": ("vertex-count", 4),
    "measures tests/fixtures/conda5.alg --rays": ("ray-count", 2),
    "valuations tests/fixtures/conda5.alg --rays": ("ray-count", 2),
    "internal tests/fixtures/conda5.alg --kind I": ("count", 10),
    "internal tests/fixtures/conda5.alg --kind smo": ("count", 9),
}

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def _fx(name: str) -> str:
    return f"{FIXTURES}/{name}"


def build_queries(algebras=ALGEBRAS) -> list[tuple[str, ...]]:
    """Every subcommand on each algebra, plus the --verify paths on conda5.

    Paths are relative to the repository root.
    """
    out: list[tuple[str, ...]] = []
    for name in algebras:
        p = _fx(f"{name}.alg")
        out += [
            ("check", p),
            ("check", p, "--system", "pseudo-BCK"),
            ("classify", p),
            ("ds", p, "--normal"),
            ("ds", p, "--prime"),
            ("states", p, "--vertices"),
            ("measures", p, "--rays"),
            ("internal", p, "--kind", "I"),
            ("internal", p, "--kind", "II"),
            ("internal", p, "--kind", "smo"),
            ("hom", p, p),
            ("hom", p, p, "--iso"),
        ]
        if name in QUOTIENT_DS:
            out.append(("quotient", p, "--ds", QUOTIENT_DS[name]))
        if name in VALUATION_RAYS:
            out.append(("valuations", p, "--rays"))
    if "conda5" in algebras:
        c5 = _fx("conda5.alg")
        out += [("states", c5, "--verify", _fx(f"{s}.state"), "--morphism") for s in STATES]
        out += [("measures", c5, "--verify", _fx(f"{m}.measure")) for m in MEASURES]
        out += [
            ("valuations", c5, "--verify", _fx(f"{v}.valuation"), "--commutative")
            for v in VALUATIONS
        ]
        out.append(("internal", c5, "--kind", "smo", "--verify", _fx("mu6.op")))
        out.append(("hom", c5, c5, "--verify", _fx("id_conda5.hom")))
    return out


QUERIES = build_queries()


def query_key(argv) -> str:
    return " ".join(argv)


def input_files(queries) -> list[str]:
    return sorted({a for q in queries for a in q if a.startswith(FIXTURES + "/")})


def load_goldens() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Raised:
    """Output of an op that raised instead of returning."""


def run_cli(cli, argv) -> tuple[tuple[float, float], object]:
    """One timed ``cli.run``: ((start, end), (exit code, stdout) | Raised)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception:  # an op that raises is a failed op, not a crash
        return (t0, time.perf_counter()), Raised()
    return (t0, time.perf_counter()), (code, out.getvalue())


def search_order(m) -> tuple:
    """The order the size-n search emits models in: cell by cell, row-major,
    comparing the arrow entry and then the squig entry of each cell."""
    return tuple(zip(sum(m.arrow, ()), sum(m.squig, ())))


def names_digest(names) -> str:
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads


class Sweep:
    """Batch meta-theorem sweep: every analysis layer once per model."""

    name = "sweep4"
    seeded = False

    def __init__(self, root: str, max_size: int = SWEEP_MAX_SIZE) -> None:
        self.root = root
        self.max_size = max_size
        self.argv = ("meta", "--max-size", str(max_size))

    def load(self) -> None:
        """Nothing to read: the sweep generates its own models."""

    def run_pass(self, pb, rng) -> tuple[list, list]:
        times, output = run_cli(pb.cli, self.argv)
        return [times], [output]

    def check(self, pb, goldens, outputs) -> tuple[int, int]:
        models = goldens["sweep"][str(self.max_size)]["models"]
        theorems = goldens["sweep"][str(self.max_size)]["theorems"]
        line = re.compile(rf"theorem \S+ checked={models} counterexamples=0")
        failed = 0
        for output in outputs:
            if isinstance(output, Raised):
                failed += 1
                continue
            code, text = output
            lines = text.splitlines()
            ok = (
                code == 0
                and lines[:1] == [f"models {models}"]
                and lines[-1:] == ["clean true"]
                and len(lines) == theorems + 2
                and all(line.fullmatch(x) for x in lines[1:-1])
            )
            failed += not ok
        return len(outputs), failed


class Search:
    """Exhaustive size-5 model search, cut at a fixed number of models."""

    name = "search5"
    seeded = False

    def __init__(self, root: str, limit: int = SEARCH_LIMIT, size: int = 5) -> None:
        self.root = root
        self.limit = limit
        self.size = size
        self._checked: dict = {}

    def load(self) -> None:
        """Nothing to read: the search generates its own models."""

    def run_pass(self, pb, rng) -> tuple[list, list]:
        constraints = pb.finder.SearchConstraints(self.size, limit=self.limit)
        times: list[tuple[float, float]] = []
        models: list = []
        it = iter(pb.finder.enumerate_models(constraints))
        while True:
            t0 = time.perf_counter()
            try:
                model = next(it)
            except StopIteration:
                break
            except Exception:  # a raising search ends the pass
                times.append((t0, time.perf_counter()))
                models.append(Raised())
                break
            times.append((t0, time.perf_counter()))
            models.append(model)
        return times, models

    def check(self, pb, goldens, outputs) -> tuple[int, int]:
        """Per model: pseudo-BE, canonical, strictly after its predecessor.

        The search fills the free cells in row-major order, each with an
        (arrow, squig) value pair, so its output increases in
        ``search_order``.  A pass with the wrong number of models or the
        wrong name digest fails as a whole; missing models count as
        failed ops.
        """
        expected = goldens["search"][str(self.limit)]
        attempted = max(len(outputs), self.limit)
        failed = attempted - len(outputs)
        prev = None
        names = []
        for m in outputs:
            if isinstance(m, Raised):
                failed += 1
                continue
            key = search_order(m)
            ok = (
                m.unit == 0
                and (prev is None or key > prev)
                and self._verified(pb, m, (m.arrow, m.squig))
            )
            failed += not ok
            prev = key
            names.append(m.name)
        if len(names) != self.limit or names_digest(names) != expected:
            failed = attempted
        return attempted, failed

    def _verified(self, pb, m, tables) -> bool:
        # passes repeat the same models, so each table pair is checked once
        if tables not in self._checked:
            self._checked[tables] = (
                pb.algebra.check_axioms(m, "pseudo-BE").holds
                and pb.finder.canonical_tables(m.arrow, m.squig, 0) == tables
            )
        return self._checked[tables]


class Queries:
    """Interactive desk use: every subcommand on four fixture algebras."""

    name = "queries"
    seeded = True

    def __init__(self, root: str, queries=QUERIES) -> None:
        self.root = root
        self.queries = list(queries)

    def abs_argv(self, argv) -> tuple[str, ...]:
        return tuple(
            os.path.join(self.root, a) if a.startswith(FIXTURES + "/") else a
            for a in argv
        )

    def load(self) -> list:
        """Read and parse every input file the queries name."""
        from pseudobe.algebra import parse_algebra

        parsed = []
        for rel in input_files(self.queries):
            with open(os.path.join(self.root, rel), "r", encoding="utf-8") as fh:
                text = fh.read()
            parsed.append(parse_algebra(text) if rel.endswith(".alg") else text)
        return parsed

    def run_pass(self, pb, rng) -> tuple[list, list]:
        order = list(self.queries)
        rng.shuffle(order)
        times, outputs = [], []
        for argv in order:
            op_times, output = run_cli(pb.cli, self.abs_argv(argv))
            times.append(op_times)
            outputs.append((query_key(argv), output))
        return times, outputs

    def check(self, pb, goldens, outputs) -> tuple[int, int]:
        """Exit code and stdout byte-equal to the goldens; frozen counts hold."""
        want = goldens["queries"]
        failed = 0
        for key, output in outputs:
            if isinstance(output, Raised) or key not in want:
                failed += 1
                continue
            code, text = output
            ok = [code, text] == want[key]
            if ok and key in FROZEN:
                field, value = FROZEN[key]
                ok = f"{field} {value}" in text.splitlines()
            failed += not ok
        return len(outputs), failed


WORKLOADS = {w.name: w for w in (Sweep, Search, Queries)}
