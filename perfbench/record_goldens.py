"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record_goldens.py

Writes ``perfbench/goldens.json``: the exit code and stdout of every query,
the model count and theorem count of the sweeps, and a digest of the model
names of each search.  The file in the repository was recorded at the
commit named in its ``recorded_at`` field; recording it again moves the
correctness contract, so do it only when the program's output is meant to
change.
"""

import json
import subprocess
import sys

from run import ROOT, import_program
from workloads import GOLDENS, QUERIES, Queries, Search, Sweep, names_digest, query_key, run_cli

SWEEP_SIZES = (2, 4)
SEARCH_LIMITS = (20, 3000)


def main() -> None:
    pb = import_program()
    queries = {}
    for argv in QUERIES:
        _, output = run_cli(pb.cli, Queries(ROOT).abs_argv(argv))
        queries[query_key(argv)] = list(output)
    sweep = {}
    for n in SWEEP_SIZES:
        _, (code, text) = run_cli(pb.cli, Sweep(ROOT, n).argv)
        if code != 0:
            sys.exit(f"meta --max-size {n} exited {code}")
        lines = text.splitlines()
        sweep[str(n)] = {"models": int(lines[0].split()[1]), "theorems": len(lines) - 2}
    search = {}
    for k in SEARCH_LIMITS:
        _, models = Search(ROOT, k).run_pass(pb, None)
        search[str(k)] = names_digest(m.name for m in models)
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(
            {"recorded_at": commit, "sweep": sweep, "search": search, "queries": queries},
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")


if __name__ == "__main__":
    main()
