"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every pseudobe module and
rebinds each wrapped name in every module that holds it (``cone_rays``
lives in ``linalg`` and is imported by ``states`` and ``valuations``;
``valuation_cone`` is imported by ``finder`` and ``cli``).  ``uninstall``
puts every original back.  The program's source is not touched.

Each call becomes a span ``(id, parent id, name, seconds)`` kept in
memory.  A generator function gets one span per resumption, so it is
timed over its iteration and not over the call that creates it.  A span's
self time is its duration minus the durations of its child spans.

Counts the program does not expose are computed from each call's
arguments and result after the call's span has closed; the time that
takes is booked to a ``trace.counting`` span so that it is not charged to
any layer.  Those counts are listed in ``COMPUTED``.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import time
from math import comb

LAYERS = (
    "algebra",
    "dsystems",
    "states",
    "operators",
    "valuations",
    "homs",
    "finder",
    "linalg",
    "parallel",
    "cli",
)

# Per-element and per-candidate predicates called inside enumeration loops
# (tens of thousands of calls per query on a 6-element algebra).  Wrapping
# them would multiply the traced run's time; their time stays in the self
# time of the function that calls them.
UNTRACED = frozenset(
    {
        "algebra.leq",
        "algebra.vee1",
        "algebra.vee2",
        "algebra.negations",
        "states.lukasiewicz",
        "linalg.format_fraction",
        "linalg.parse_fraction",
        "operators.internal_state_witness",
        "operators.is_internal_state",
        "operators.smo_witness",
        "operators.is_smo",
    }
)
# The sweep's per-model body is private but is the function `pmap` runs;
# without its own span its time would be charged to `parallel.pmap`.
EXTRA = ("finder._check_model",)

# Spans summed into one figure.
GROUPS = {
    "finder.sweep": ("finder.verify_meta_theorems", "finder._check_model"),
    "operators.enumerate": (
        "operators.enumerate_internal_states",
        "operators.enumerate_smo",
    ),
    "dsystems.tests": (
        "dsystems.is_deductive_system",
        "dsystems.is_normal",
        "dsystems.is_fantastic",
        "dsystems.is_involutive_ds",
        "dsystems.is_prime",
        "dsystems.is_maximal",
    ),
    "states.checks": (
        "states.bosbach_witness",
        "states.is_bosbach_state",
        "states.state_morphism_witness",
        "states.is_state_morphism",
        "states.measure_witness",
        "states.is_measure",
        "states.measure_morphism_witness",
        "states.is_measure_morphism",
        "states.is_state_measure",
        "states.is_state_measure_morphism",
        "states.sm_characterization_check",
    ),
    "valuations.checks": (
        "valuations.pv_witness",
        "valuations.is_pseudo_valuation",
        "valuations.is_valuation",
        "valuations.weak_pv_witness",
        "valuations.is_weak_pseudo_valuation",
        "valuations.commutative_pv_witness",
        "valuations.is_commutative_pv",
    ),
}

# Per-layer metrics computed from call arguments, not measured in a span.
COMPUTED = (
    "linalg.cone_rows_in",
    "linalg.cone_rows_distinct",
    "linalg.cone_active_sets",
    "linalg.rays_per_active_set",
    "linalg.box_active_sets",
    "operators.maps_scanned",
    "operators.hit_ratio",
    "finder.canonical_accept_ratio",
)


class Tracer:
    def __init__(self) -> None:
        self.modules = {m: importlib.import_module(f"pseudobe.{m}") for m in LAYERS}
        self.originals: dict[str, object] = {}
        self._signatures: dict[str, inspect.Signature] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._group_of = {f: g for g, fs in GROUPS.items() for f in fs}
        self.records: list[tuple[int, int, str, float]] = []
        self.calls: collections.Counter = collections.Counter()
        self.group_calls: collections.Counter = collections.Counter()
        self.group_incl: collections.Counter = collections.Counter()
        self._group_depth: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = [0]
        self._next_id = 1

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        group = self._group_of.get(name)
        if group is not None:
            self._group_depth[group] += 1
        return sid, parent, time.perf_counter()

    def _close(self, name: str, span: tuple[int, int, float]) -> None:
        dur = time.perf_counter() - span[2]
        self._stack.pop()
        self.records.append((span[0], span[1], name, dur))
        group = self._group_of.get(name)
        if group is not None:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.group_calls[group] += 1
                self.group_incl[group] += dur

    def _count(self, hook, args, kwargs, result) -> None:
        span = self._open("trace.counting")
        try:
            hook(self, args, kwargs, result)
        finally:
            self._close("trace.counting", span)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        span = tracer._open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(name, span)
                        if hook is not None:
                            tracer._count(hook, args, kwargs, item)
                        yield item
                finally:
                    gen.close()

            return traced_gen

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, span)
            if hook is not None:
                tracer._count(hook, args, kwargs, result)
            return result

        return traced

    # -- install / uninstall ---------------------------------------------

    def _targets(self) -> dict[str, object]:
        found = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in EXTRA)
                    and name not in UNTRACED
                ):
                    found[name] = obj
        return found

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.originals = self._targets()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        package = importlib.import_module("pseudobe")
        for mod in (package, *self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        for mod, attr, obj in self._restore:
            if getattr(mod, attr) is not obj:
                raise RuntimeError(f"failed to restore {mod.__name__}.{attr}")
        self._restore = []

    def signature(self, name: str) -> inspect.Signature:
        if name not in self._signatures:
            self._signatures[name] = inspect.signature(self.originals[name])
        return self._signatures[name]

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[collections.Counter, collections.Counter]:
        """(self seconds, inclusive seconds) per span name."""
        child: collections.Counter = collections.Counter()
        for _, parent, _, dur in self.records:
            child[parent] += dur
        own: collections.Counter = collections.Counter()
        incl: collections.Counter = collections.Counter()
        for sid, _, name, dur in self.records:
            own[name] += dur - child[sid]
            incl[name] += dur
        return own, incl

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        own, incl = self.self_times()
        calls, counts = self.calls, self.counts
        group_self = collections.Counter()
        for name, t in own.items():
            group = self._group_of.get(name)
            if group is not None:
                group_self[group] += t
        root_s = sum(d for _, parent, _, d in self.records if parent == 0)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "linalg.cone_rays_calls": (calls["linalg.cone_rays"], "count"),
            "linalg.cone_rays_s": (incl["linalg.cone_rays"], "s"),
            "linalg.cone_rows_in": (counts["cone_rows_in"], "count"),
            "linalg.cone_rows_distinct": (counts["cone_rows_distinct"], "count"),
            "linalg.cone_active_sets": (counts["cone_active_sets"], "count"),
            "linalg.rays_out": (counts["rays_out"], "count"),
            "linalg.rays_per_active_set": (
                ratio(counts["rays_out"], counts["cone_active_sets"]),
                "ratio",
            ),
            "valuations.cone_calls": (calls["valuations.valuation_cone"], "count"),
            "valuations.cone_self_s": (own["valuations.valuation_cone"], "s"),
            "linalg.solve_affine_calls": (calls["linalg.solve_affine"], "count"),
            "linalg.solve_affine_s": (incl["linalg.solve_affine"], "s"),
            "linalg.box_vertices_calls": (calls["linalg.box_vertices"], "count"),
            "linalg.box_vertices_s": (incl["linalg.box_vertices"], "s"),
            "linalg.box_active_sets": (counts["box_active_sets"], "count"),
            "linalg.vertices_out": (counts["vertices_out"], "count"),
            "states.state_space_self_s": (own["states.state_space"], "s"),
            "states.measure_cone_self_s": (own["states.measure_cone"], "s"),
            "states.vertices_out": (counts["state_vertices"], "count"),
            "finder.search_self_s": (own["finder.enumerate_models"], "s"),
            "finder.canonical_calls": (calls["finder.canonical_tables"], "count"),
            "finder.canonical_s": (incl["finder.canonical_tables"], "s"),
            "finder.models_emitted": (counts["models_emitted"], "count"),
            "finder.canonical_accept_ratio": (
                ratio(counts["canonical_accepted"], calls["finder.canonical_tables"]),
                "ratio",
            ),
            "finder.sweep_self_s": (group_self["finder.sweep"], "s"),
            "parallel.pmap_self_s": (own["parallel.pmap"], "s"),
            "operators.enumerate_calls": (self.group_calls["operators.enumerate"], "count"),
            "operators.enumerate_s": (self.group_incl["operators.enumerate"], "s"),
            "operators.maps_scanned": (counts["maps_scanned"], "count"),
            "operators.found": (counts["operators_found"], "count"),
            "operators.hit_ratio": (
                ratio(counts["operators_found"], counts["maps_scanned"]),
                "ratio",
            ),
            "homs.enumerate_calls": (calls["homs.enumerate_homomorphisms"], "count"),
            "homs.enumerate_s": (incl["homs.enumerate_homomorphisms"], "s"),
            "homs.found": (counts["homs_found"], "count"),
            "algebra.parse_s": (incl["algebra.parse_algebra"], "s"),
            "algebra.classify_s": (incl["algebra.classify"], "s"),
            "algebra.check_axioms_calls": (calls["algebra.check_axioms"], "count"),
            "algebra.check_axioms_s": (incl["algebra.check_axioms"], "s"),
            "dsystems.enumerate_ds_calls": (calls["dsystems.enumerate_ds"], "count"),
            "dsystems.enumerate_ds_s": (incl["dsystems.enumerate_ds"], "s"),
            "dsystems.ds_found": (counts["ds_found"], "count"),
            "dsystems.tests_s": (group_self["dsystems.tests"], "s"),
            "states.checks_s": (group_self["states.checks"], "s"),
            "valuations.checks_calls": (self.group_calls["valuations.checks"], "count"),
            "valuations.checks_s": (group_self["valuations.checks"], "s"),
            "cli.queries": (calls["cli.run"], "count"),
        }
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = (
                sum(t for n, t in own.items() if n.startswith(prefix)),
                "s",
            )
            out[f"{layer}.calls"] = (
                sum(c for n, c in calls.items() if n.startswith(prefix)),
                "count",
            )
        out.update(
            {
                "trace.pass_s": (traced_s, "s"),
                "trace.untraced_pass_s": (untraced_s, "s"),
                "trace.overhead_s": (traced_s - untraced_s, "s"),
                "trace.overhead_frac": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
                "trace.outside_spans_s": (traced_s - root_s, "s"),
                "trace.counting_s": (incl["trace.counting"], "s"),
                "trace.spans": (len(self.records), "count"),
            }
        )
        return out


# ---------------------------------------------------------------------------
# counts computed from call arguments (see COMPUTED)


def _bind(tracer: Tracer, name: str, args, kwargs) -> dict:
    bound = tracer.signature(name).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _cone_rays(tracer, args, kwargs, rays) -> None:
    a = _bind(tracer, "linalg.cone_rays", args, kwargs)
    rows = [tuple(r) for r in a["inequalities"]]
    space = tracer.originals["linalg.solve_affine"](a["equalities"], a["num_vars"])
    d = space.dimension
    c = tracer.counts
    c["cone_rows_in"] += len(rows)
    c["cone_rows_distinct"] += len({r for r in rows if any(v != 0 for v in r)})
    c["cone_active_sets"] += comb(len(rows), d - 1) if d >= 1 else 0
    c["rays_out"] += len(rays)


def _box_vertices(tracer, args, kwargs, vertices) -> None:
    space = _bind(tracer, "linalg.box_vertices", args, kwargs)["space"]
    tracer.counts["box_active_sets"] += comb(2 * space.num_vars, space.dimension)
    tracer.counts["vertices_out"] += len(vertices)


def _state_space(tracer, args, kwargs, result) -> None:
    tracer.counts["state_vertices"] += len(result.vertices)


def _internal_states(tracer, args, kwargs, found) -> None:
    a = _bind(tracer, "operators.enumerate_internal_states", args, kwargs)
    alg = a["a"]
    check_axioms = tracer.originals["algebra.check_axioms"]
    prune = not a["audit"] and check_axioms(alg, "condition-A").holds
    tracer.counts["maps_scanned"] += alg.size ** (alg.size - 1 if prune else alg.size)
    tracer.counts["operators_found"] += len(found)


def _smo(tracer, args, kwargs, found) -> None:
    alg = _bind(tracer, "operators.enumerate_smo", args, kwargs)["a"]
    tracer.counts["maps_scanned"] += alg.size**alg.size
    tracer.counts["operators_found"] += len(found)


def _homs(tracer, args, kwargs, found) -> None:
    tracer.counts["homs_found"] += len(found)


def _ds(tracer, args, kwargs, family) -> None:
    tracer.counts["ds_found"] += len(family.subsets)


def _canonical(tracer, args, kwargs, best) -> None:
    a = _bind(tracer, "finder.canonical_tables", args, kwargs)
    tracer.counts["canonical_accepted"] += best == (a["arrow"], a["squig"])


def _model(tracer, args, kwargs, model) -> None:
    tracer.counts["models_emitted"] += 1


HOOKS = {
    "linalg.cone_rays": _cone_rays,
    "linalg.box_vertices": _box_vertices,
    "states.state_space": _state_space,
    "operators.enumerate_internal_states": _internal_states,
    "operators.enumerate_smo": _smo,
    "homs.enumerate_homomorphisms": _homs,
    "dsystems.enumerate_ds": _ds,
    "finder.canonical_tables": _canonical,
    "finder.enumerate_models": _model,
}
