"""pseudobe benchmark: one workload per run, in-process, one thread.

    python3 perfbench/run.py --workload sweep4|search5|queries \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the environment the numbers were taken on.

``--trace 0`` repeats whole passes of the workload while the run's wall
time stays within ``--seconds`` (at least one pass) and reports the
end-to-end metrics, with every timing scaled to a nominal host speed
(see reference.py).  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics of the traced one.  Every op's output is
checked in both modes.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S, SpeedGauge, scaled_call
from tracer import COMPUTED, Tracer
from workloads import WORKLOADS, load_goldens

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 11


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import pseudobe from this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pseudobe", "__init__.py")):
        fail(f"no pseudobe sources under {SRC}")
    sys.path.insert(0, SRC)
    import pseudobe
    import pseudobe.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(pseudobe.__file__))) != SRC:
        fail(f"pseudobe imported from {pseudobe.__file__}, not from {SRC}")
    return pseudobe


def p90(values) -> float:
    """90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """(raw, scaled) fresh-process set-up times: interpreter, import,
    input loading.  The benchmark and its probes are held on one CPU
    meanwhile, so that the reference blocks time the CPU the probe ran on."""
    probe = os.path.join(HERE, "probe.py")

    def one() -> float:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, probe, workload],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        return float(done.stdout.strip().splitlines()[-1]) - t0

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return [scaled_call(one) for _ in range(SETUP_PROBES)]
    finally:
        os.sched_setaffinity(0, cpus)


def _head_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _head_commit(),
        "workload": wl.name,
        "seed": seed,
        "seed_use": (
            "shuffles the query order of every pass"
            if wl.seeded
            else "none: the workload is exhaustive and deterministic"
        ),
        "workers": "default (--workers 1)",
    }


def latency_metrics(lat: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90(lat) * 1e3, "ms"),
    }


def timed_run(pb, wl, goldens, rng, seconds: float):
    """Whole passes while the run's wall time, plus one more mean pass,
    fits in ``seconds``.  Timings are scaled to the nominal host speed
    (see reference.py); the raw ones go to the record."""
    times: list[tuple[float, float]] = []
    pass_ops: list[int] = []
    attempted = failed = 0
    start = time.perf_counter()
    with SpeedGauge() as gauge:
        while True:
            pass_times, outputs = wl.run_pass(pb, rng)
            times += pass_times
            pass_ops.append(len(pass_times))
            a, f = wl.check(pb, goldens, outputs)
            attempted, failed = attempted + a, failed + f
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(pass_ops) > seconds:
                break
    raw, scaled = (list(x) for x in zip(*gauge.scale(times)))
    setup_raw, setup = zip(*setup_seconds(wl.name))
    bounds = list(itertools.accumulate(pass_ops, initial=0))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        **latency_metrics(scaled),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    notes = {
        "passes": len(pass_ops),
        "ops": len(raw),
        "failed_frac": failed / attempted,
        "pass_s": {
            "raw": [sum(raw[i:j]) for i, j in zip(bounds, bounds[1:])],
            "scaled": [sum(scaled[i:j]) for i, j in zip(bounds, bounds[1:])],
        },
        "raw": {
            "setup_s": statistics.median(setup_raw),
            **{k: v for k, (v, _) in latency_metrics(raw).items()},
        },
        "reference_block_s": {
            "nominal": NOMINAL_S,
            "median": statistics.median(gauge.block_seconds()),
            "count": len(gauge.blocks),
        },
        "setup_samples_s": list(setup_raw),
    }
    return attempted, failed, metrics, notes


def traced_run(pb, wl, goldens, rng):
    """One untraced pass, then one traced pass; raw seconds throughout."""

    def seconds(times) -> float:
        return sum(t1 - t0 for t0, t1 in times)

    times, outputs = wl.run_pass(pb, rng)
    attempted, failed = wl.check(pb, goldens, outputs)
    untraced_s = seconds(times)

    tracer = Tracer()
    tracer.install()
    try:
        times, outputs = wl.run_pass(pb, rng)
    finally:
        tracer.uninstall()
    a, f = wl.check(pb, goldens, outputs)
    metrics = tracer.metrics(seconds(times), untraced_s)
    notes = {"passes": 2, "ops": attempted + a, "computed_metrics": list(COMPUTED)}
    return attempted + a, failed + f, metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pb = import_program()

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](ROOT)
    wl.load()
    goldens = load_goldens()
    rng = random.Random(args.seed)

    if args.trace:
        attempted, failed, metrics, notes = traced_run(pb, wl, goldens, rng)
    else:
        attempted, failed, metrics, notes = timed_run(pb, wl, goldens, rng, args.seconds)

    record = {**environment(wl, args.seed), "trace": args.trace, **notes}
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
