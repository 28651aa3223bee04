"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs ``meta --max-size 2``, a 20-model size-5 search and the bck4 queries
through the same pass and check code as ``run.py``: first as they are,
where every op must pass, then with the program's output deliberately
corrupted, where the corrupted ops must count as failed.  It also runs
each tiny workload traced and checks that the tracer restores every name
it rebinds and that the search makes no ``linalg`` call.  Exits 1 on the
first broken expectation.
"""

import contextlib
import random
import sys

from run import ROOT, import_program
from tracer import LAYERS, Tracer
from workloads import Queries, Search, Sweep, build_queries, load_goldens


@contextlib.contextmanager
def patched(obj, attr, make):
    original = getattr(obj, attr)
    setattr(obj, attr, make(original))
    try:
        yield
    finally:
        setattr(obj, attr, original)


def corrupt_classify(run):
    """`classify` prints one extra line; every other query is untouched."""

    def corrupted(argv):
        code = run(argv)
        if argv[0] == "classify":
            sys.stdout.write("corrupted\n")
        return code

    return corrupted


def corrupt_theorem(run):
    def corrupted(argv):
        code = run(argv)
        sys.stdout.write("theorem corrupted checked=0 counterexamples=1\n")
        return code

    return corrupted


def drop_one_model(enumerate_models):
    def corrupted(c, audit=False):
        for i, model in enumerate(enumerate_models(c, audit)):
            if i != 3:
                yield model

    return corrupted


def snapshot(pb) -> dict:
    mods = [pb] + [getattr(pb, m) for m in LAYERS]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def main() -> int:
    pb = import_program()
    goldens = load_goldens()
    bck4_queries = build_queries(("bck4",))
    failures = []

    def expect(label, cond):
        print(("ok    " if cond else "FAIL  ") + label)
        if not cond:
            failures.append(label)

    def one_pass(wl):
        _, outputs = wl.run_pass(pb, random.Random(0))
        return wl.check(pb, goldens, outputs)

    workloads = [Sweep(ROOT, 2), Search(ROOT, 20), Queries(ROOT, bck4_queries)]
    for wl in workloads:
        attempted, failed = one_pass(wl)
        expect(f"{wl.name} (tiny): {attempted} ops, none failed", attempted > 0 and failed == 0)

    with patched(pb.cli, "run", corrupt_theorem):
        attempted, failed = one_pass(Sweep(ROOT, 2))
    expect("sweep with a corrupted theorem line: the op fails", (attempted, failed) == (1, 1))

    with patched(pb.finder, "enumerate_models", drop_one_model):
        attempted, failed = one_pass(Search(ROOT, 20))
    expect("search missing one model: the pass fails", attempted == 20 and failed == 20)

    with patched(pb.cli, "run", corrupt_classify):
        attempted, failed = one_pass(Queries(ROOT, bck4_queries))
    expect("queries with corrupted classify output: exactly that op fails", failed == 1)

    before = snapshot(pb)
    traces = {}
    for wl in workloads:
        tracer = Tracer()
        tracer.install()
        try:
            _, outputs = wl.run_pass(pb, random.Random(0))
        finally:
            tracer.uninstall()
        traces[wl.name] = tracer.metrics(1.0, 1.0)
        expect(f"{wl.name} traced: outputs still correct", wl.check(pb, goldens, outputs)[1] == 0)
    expect("tracer restored every rebound name", snapshot(pb) == before)
    expect("search trace: no linalg call", traces["search5"]["linalg.calls"][0] == 0)
    expect("search trace: models counted", traces["search5"]["finder.models_emitted"][0] == 20)
    expect("sweep trace: one valuation cone per model", traces["sweep4"]["valuations.cone_calls"][0] == 2)
    expect("queries trace: one cli.run per query", traces["queries"]["cli.queries"][0] == len(bck4_queries))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
