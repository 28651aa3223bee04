"""Command-line interface.

Every subcommand reads algebra files in the line-based format of
:mod:`pseudobe.algebra` and writes a deterministic report.  Exit codes:
0 when the checked property holds (or an enumeration succeeded), 1 when
it fails (a witness is printed), 2 for usage or input errors and for a
consistency alarm (an internal check that failed on the input).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .algebra import (
    AXIOM_SYSTEMS,
    AlgebraError,
    FiniteAlgebra,
    check_axioms,
    classify,
    parse_algebra,
    serialize_algebra,
)
from .dsystems import enumerate_ds, format_subset, parse_subset, quotient
from .finder import (
    STRUCTURE_FLAGS,
    SearchConstraints,
    enumerate_models,
    verify_meta_theorems,
)
from .homs import enumerate_homomorphisms, hom_witness, kernel, parse_hom
from .linalg import ConsistencyAlarmError, format_fraction
from .operators import (
    enumerate_internal_states,
    enumerate_smo,
    internal_state_witness,
    parse_operator,
    smo_witness,
)
from .states import (
    bosbach_witness,
    measure_cone,
    measure_morphism_witness,
    measure_witness,
    parse_assignment,
    state_morphism_witness,
    state_space,
)
from .valuations import (
    commutative_pv_witness,
    pv_witness,
    valuation_cone,
    weak_pv_witness,
)

# every input and precondition error of the library is a ValueError
USAGE_ERRORS = (ValueError, OSError)

DS_KINDS = ("normal", "fantastic", "involutive", "prime", "maximal")


class Report:
    """Collects ordered key/value pairs; renders as text or JSON."""

    def __init__(self) -> None:
        self.items: list[tuple[str, str | int | bool]] = []

    def add(self, key: str, value: str | int | bool) -> None:
        self.items.append((key, value))

    def render(self, fmt: str) -> str:
        if fmt == "json":
            obj: dict = {}
            for key, value in self.items:
                obj.setdefault(key, []).append(value)
            flat = {k: (v[0] if len(v) == 1 else v) for k, v in obj.items()}
            return json.dumps(flat, sort_keys=True, indent=2) + "\n"
        lines = []
        for key, value in self.items:
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} {value}" if value != "" else key)
        return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> FiniteAlgebra:
    return parse_algebra(_read(path))


def _assignment(rep: Report, a: FiniteAlgebra, path: str, kind: str):
    """Parse a ``kind`` file, report its name and return its values."""
    name, values = parse_assignment(a, _read(path), kind)
    rep.add(kind, name)
    return values


def _witness_str(a: FiniteAlgebra, w) -> str:
    tag, tup = w
    return f"{tag} ({','.join(a.token(i) for i in tup)})"


def _values_str(a: FiniteAlgebra, values) -> str:
    return " ".join(
        f"{a.token(i)}={format_fraction(v)}" for i, v in enumerate(values)
    )


def _op_str(a: FiniteAlgebra, mu) -> str:
    return " ".join(a.token(v) for v in mu)


def _verdict(rep: Report, a: FiniteAlgebra, key: str, witness) -> bool:
    """Report ``key`` true or false, then the witness of a failure."""
    rep.add(key, witness is None)
    if witness is not None:
        rep.add("violation", _witness_str(a, witness))
    return witness is None


def _check_verify_flags(args, listing: str, modifier: str | None = None) -> None:
    """Reject a flag that would be silently ignored: ``--<listing>`` with
    ``--verify``, or ``--<modifier>`` without it."""
    if args.verify and getattr(args, listing):
        raise ValueError(f"--{listing} cannot be combined with --verify")
    if modifier and getattr(args, modifier) and not args.verify:
        raise ValueError(f"--{modifier} needs --verify")


def _ray_report(rep: Report, a: FiniteAlgebra, rays, show: bool) -> None:
    rep.add("ray-count", len(rays))
    if show:
        for r in rays:
            rep.add("ray", _values_str(a, r))


# ---------------------------------------------------------------------------
# subcommands (each returns the exit code)


def _cmd_check(args, rep: Report) -> int:
    a = _load(args.algebra)
    r = check_axioms(a, args.system)
    rep.add("system", r.system)
    rep.add("holds", r.holds)
    for tag, tup in r.violations:
        rep.add("violation", _witness_str(a, (tag, tup)))
    rep.add("violations-total", r.total)
    return 0 if r.holds else 1


def _cmd_classify(args, rep: Report) -> int:
    a = _load(args.algebra)
    r = classify(a)
    for flag in STRUCTURE_FLAGS:
        key = flag.lower()
        rep.add(key, getattr(r, key.replace("-", "_")))
    if r.bounded:
        rep.add("good", r.good)
        rep.add("involutive", r.involutive)
        rep.add("regular", format_subset(a, r.regular_elements))
        rep.add("dense", format_subset(a, r.dense_elements))
    return 0 if r.pseudo_be else 1


def _cmd_ds(args, rep: Report) -> int:
    a = _load(args.algebra)
    fam = enumerate_ds(a)
    if args.kind == "involutive" and fam.involutive is None:
        raise AlgebraError("involutive classification requires a bounded algebra")
    if args.kind is None:
        for d in fam.subsets:
            tags = [kind for kind in DS_KINDS if d in (getattr(fam, kind) or ())]
            rep.add("ds", " ".join([format_subset(a, d)] + tags))
        rep.add("count", len(fam.subsets))
    else:
        chosen = getattr(fam, args.kind)
        for d in chosen:
            rep.add("ds", format_subset(a, d))
        rep.add("count", len(chosen))
    return 0


def _cmd_quotient(args, rep: Report) -> int:
    a = _load(args.algebra)
    h = parse_subset(a, args.ds)
    q = quotient(a, h)
    for cls in q.classes:
        rep.add("class", format_subset(a, cls))
    for line in serialize_algebra(q.quotient).rstrip("\n").split("\n"):
        rep.add("quotient", line)
    return 0


def _cmd_states(args, rep: Report) -> int:
    _check_verify_flags(args, "vertices", "morphism")
    a = _load(args.algebra)
    if args.verify:
        values = _assignment(rep, a, args.verify, "state")
        if not _verdict(rep, a, "bosbach", bosbach_witness(a, values)):
            return 1
        if args.morphism and not _verdict(
            rep, a, "state-morphism", state_morphism_witness(a, values)
        ):
            return 1
        return 0
    space = state_space(a)
    rep.add("dimension", space.affine.dimension)
    rep.add("vertex-count", len(space.vertices))
    if args.vertices:
        for v in space.vertices:
            rep.add("vertex", _values_str(a, v))
    return 0


def _cmd_measures(args, rep: Report) -> int:
    _check_verify_flags(args, "rays")
    a = _load(args.algebra)
    if args.verify:
        values = _assignment(rep, a, args.verify, "measure")
        if not _verdict(rep, a, "is-measure", measure_witness(a, values)):
            return 1
        # not a failure: a measure need not be a measure-morphism
        rep.add("is-measure-morphism", measure_morphism_witness(a, values) is None)
        return 0
    _ray_report(rep, a, measure_cone(a), args.rays)
    return 0


def _cmd_internal(args, rep: Report) -> int:
    a = _load(args.algebra)
    kind = args.kind
    if args.verify:
        mu = parse_operator(a, _read(args.verify))
        rep.add("operator", _op_str(a, mu))
        w = (
            smo_witness(a, mu)
            if kind == "smo"
            else internal_state_witness(a, mu, kind)
        )
        return 0 if _verdict(rep, a, "valid", w) else 1
    ops = enumerate_smo(a) if kind == "smo" else enumerate_internal_states(a, kind)
    for mu in ops:
        rep.add("op", _op_str(a, mu))
    rep.add("count", len(ops))
    return 0


def _cmd_valuations(args, rep: Report) -> int:
    _check_verify_flags(args, "rays", "commutative")
    a = _load(args.algebra)
    if args.verify:
        values = _assignment(rep, a, args.verify, "valuation")
        # both verdicts come before the pv violation
        w = pv_witness(a, values)
        rep.add("is-pseudo-valuation", w is None)
        rep.add("is-weak-pseudo-valuation", weak_pv_witness(a, values) is None)
        if w is not None:
            rep.add("violation", _witness_str(a, w))
            return 1
        if args.commutative and not _verdict(
            rep, a, "is-commutative", commutative_pv_witness(a, values)
        ):
            return 1
        return 0
    _ray_report(rep, a, valuation_cone(a), args.rays)
    return 0


def _cmd_hom(args, rep: Report) -> int:
    _check_verify_flags(args, "iso")
    a = _load(args.algebra_a)
    b = _load(args.algebra_b)
    if args.verify:
        f = parse_hom(a, b, _read(args.verify))
        if not _verdict(rep, a, "is-homomorphism", hom_witness(f)):
            return 1
        rep.add("kernel", format_subset(a, kernel(f)))
        return 0
    homs = enumerate_homomorphisms(a, b, iso_only=args.iso)
    for f in homs:
        rep.add("hom", " ".join(b.token(v) for v in f.map))
    rep.add("count", len(homs))
    if args.iso:
        return 0 if homs else 1
    return 0


def _cmd_find(args, rep: Report) -> int:
    c = SearchConstraints(
        size=args.size, flags=tuple(args.flag), limit=args.limit
    )
    count = 0
    for model in enumerate_models(c):
        count += 1
        rep.add("model", model.name)
        if args.emit:
            out = pathlib.Path(args.emit)
            out.mkdir(parents=True, exist_ok=True)
            # the name is n<size>_<hash of the canonical tables>
            (out / f"{model.name.split('_', 1)[1]}.alg").write_text(
                serialize_algebra(model), encoding="utf-8"
            )
    rep.add("count", count)
    return 0


def _cmd_meta(args, rep: Report) -> int:
    result = verify_meta_theorems(args.max_size)
    rep.add("models", result.models)
    for tag in sorted(result.stats):
        s = result.stats[tag]
        rep.add(
            "theorem",
            f"{tag} checked={s.checked} counterexamples={s.counterexamples}",
        )
        if s.first_witness is not None:
            print(f"counterexample: {tag}: {s.first_witness}", file=sys.stderr)
    rep.add("clean", result.clean)
    return 0 if result.clean else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pseudobe",
        description="verification and enumeration workbench for finite "
        "two-implication algebras",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="check an axiom system")
    sp.add_argument("algebra")
    sp.add_argument("--system", choices=AXIOM_SYSTEMS, default="pseudo-BE")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("classify", help="structural classification")
    sp.add_argument("algebra")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("ds", help="enumerate deductive systems")
    sp.add_argument("algebra")
    kinds = sp.add_mutually_exclusive_group()
    for kind in DS_KINDS:
        kinds.add_argument(f"--{kind}", dest="kind", action="store_const", const=kind)
    sp.set_defaults(func=_cmd_ds)

    sp = sub.add_parser("quotient", help="quotient by a deductive system")
    sp.add_argument("algebra")
    sp.add_argument("--ds", required=True, metavar="{tok,...}")
    sp.set_defaults(func=_cmd_quotient)

    sp = sub.add_parser("states", help="state space and state verification")
    sp.add_argument("algebra")
    sp.add_argument("--vertices", action="store_true")
    sp.add_argument("--verify", metavar="FILE")
    sp.add_argument("--morphism", action="store_true")
    sp.set_defaults(func=_cmd_states)

    sp = sub.add_parser("measures", help="measure cone and measure verification")
    sp.add_argument("algebra")
    sp.add_argument("--rays", action="store_true")
    sp.add_argument("--verify", metavar="FILE")
    sp.set_defaults(func=_cmd_measures)

    sp = sub.add_parser("internal", help="internal states and SMO operators")
    sp.add_argument("algebra")
    sp.add_argument("--kind", choices=("I", "II", "smo"), required=True)
    sp.add_argument("--verify", metavar="FILE")
    sp.set_defaults(func=_cmd_internal)

    sp = sub.add_parser("valuations", help="valuation cone and verification")
    sp.add_argument("algebra")
    sp.add_argument("--rays", action="store_true")
    sp.add_argument("--verify", metavar="FILE")
    sp.add_argument("--commutative", action="store_true")
    sp.set_defaults(func=_cmd_valuations)

    sp = sub.add_parser("hom", help="homomorphisms between two algebras")
    sp.add_argument("algebra_a")
    sp.add_argument("algebra_b")
    sp.add_argument("--iso", action="store_true")
    sp.add_argument("--verify", metavar="FILE")
    sp.set_defaults(func=_cmd_hom)

    sp = sub.add_parser("find", help="enumerate models up to isomorphism")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument(
        "--flag", action="append", default=[], choices=STRUCTURE_FLAGS
    )
    sp.add_argument("--limit", type=int)
    sp.add_argument("--emit", metavar="DIR")
    sp.set_defaults(func=_cmd_find)

    sp = sub.add_parser("meta", help="meta-theorem verification sweep")
    sp.add_argument("--max-size", type=int, required=True)
    sp.set_defaults(func=_cmd_meta)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = Report()
    try:
        code = args.func(args, rep)
    except ConsistencyAlarmError as exc:
        print(f"alarm: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rep.render(args.format))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
