"""Static checks on the package source."""

import ast
import importlib.util
import pathlib
import re
import sys

import pseudobe


ORACLES = pathlib.Path(__file__).parent / "oracles.py"


def _modules() -> list[tuple[str, ast.Module]]:
    """(file name, syntax tree) of every module of the package."""
    sources = sorted(pathlib.Path(pseudobe.__file__).parent.glob("*.py"))
    assert {"__init__.py", "finder.py", "linalg.py"} <= {path.name for path in sources}
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sources]


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may carry a library check
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracles_hold_under_python_o():
    # tests/oracles.py is not a test module, so pytest does not rewrite its
    # asserts and `python -O` strips them: its checks must raise instead
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_oracles_share_no_code_with_the_package():
    """The oracles import from ``pseudobe`` only exception types, so no
    engine helper or data class is shared."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "pseudobe" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pseudobe"):
            module = importlib.import_module(node.module)
            imported |= {alias.name: getattr(module, alias.name) for alias in node.names}
    errors = {
        name for name, obj in imported.items() if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert imported and set(imported) == errors


# Top-level names of the package that ``__init__.py`` does not export and no
# other statement of the package loads, each with the reason it stays.  The
# test below wants exactly these, so a new helper without a caller fails it,
# and so does a listed name that gains a caller or is deleted: the list can
# only shrink.
NO_CALLER_YET = {
    # claims of the abstract, for the claims ledger (ROADMAP item 2)
    "states.state_measure_bijection": "claim: Bosbach states <-> state-measures",
    "states.is_state_measure_morphism": "claim: state-morphisms <-> their state-measures",
    "states.sm_characterization_check": "claim: the max-characterization of state-morphisms",
    "states.state_kernel": "claim: kernels of Bosbach states are fantastic",
    "states.measure_kernel": "claim: kernels of measures are fantastic",
    "operators.kernel_image": "claim: kernels of type-II operators are fantastic",
    "valuations.characterization_crosscheck": "claim: the pv and commutative-pv systems",
    # transport lemmas, for the product stream (ROADMAP item 5)
    "homs.preimage_ds": "transport: f^-1(E) is a deductive system",
    "homs.image_ds": "transport: f(D) is a deductive system above Ker(f)",
    "homs.check_hom_properties": "transport: the projections fix 1 and are monotone",
    "homs.identity_hom": "transport: the identity in Aut(A) x Aut(B) <= Aut(A x B)",
    "operators.as_endomorphism": "transport: a state-morphism operator as an endomorphism",
    "valuations.pullback": "transport: phi o f is a pseudo-valuation",
}


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a top-level ``def``, ``class`` or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def _loaded(stmt: ast.stmt) -> set[str]:
    """Names a statement loads, as a name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _consumed_as_member(stmt: ast.stmt) -> set[str]:
    """Names a statement loads as an attribute or holds as a string
    constant (``getattr`` reads a member by the string)."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _unconsumed(modules: list[tuple[str, ast.Module]]) -> set[str]:
    """``module.name`` of each top-level definition that ``__init__.py``
    neither imports nor defines and that no other top-level statement loads,
    and ``module.Class.method`` of each method of a top-level class, dunder
    methods aside, that no other statement loads as an attribute or holds as
    a string; a method's statements are the class body's."""
    statements = [(name.removesuffix(".py"), stmt) for name, tree in modules for stmt in tree.body]
    exported = {
        alias.asname or alias.name
        for module, stmt in statements
        if module == "__init__" and isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }
    exported |= {
        name for module, stmt in statements if module == "__init__" for name in _defined(stmt)
    }
    loads = [_loaded(stmt) for _, stmt in statements]
    names = {
        f"{module}.{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _defined(stmt)
        if name not in exported and not any(name in seen for j, seen in enumerate(loads) if j != i)
    }
    units = [
        unit
        for _, stmt in statements
        for unit in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
    ]
    members = [_consumed_as_member(unit) for unit in units]
    methods = {
        f"{module}.{stmt.name}.{method.name}"
        for module, stmt in statements
        if isinstance(stmt, ast.ClassDef)
        for method in stmt.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and not any(
            method.name in seen for unit, seen in zip(units, members) if unit is not method
        )
    }
    return names | methods


def test_unconsumed_names_of_a_sample_package():
    functions = "def exported(): used()\ndef used(): pass\ndef dead(): dead()\n"
    methods = (
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def called(self): self.named()\n"
        "    def named(self): pass\n"
        "    def unused(self): self.unused()\n"
    )
    sample = [
        ("__init__.py", ast.parse("from .m import exported, K\n__version__ = '1'\n")),
        ("m.py", ast.parse(functions + methods)),
        ("n.py", ast.parse("X: int = m.used\nY, Z = 1, 2\nprint(Y, getattr(K(), 'called'))\n")),
    ]
    assert _unconsumed(sample) == {"m.dead", "n.X", "n.Z", "m.K.unused"}


def test_every_name_has_a_caller_an_export_or_a_listed_reason():
    assert _unconsumed(_modules()) == set(NO_CALLER_YET)


# each precondition error is raised in one place, which every check calls
SINGLE_HOME_ERRORS = (
    "UnboundedAlgebraError",
    "ConditionAMissingError",
    "NotAHomomorphismError",
    "NotProperError",
)


def _name(expr: ast.expr):
    """The name ``E``, ``E(...)``, ``m.E`` or ``m.E(...)`` refers to."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_each_precondition_error_has_one_raise():
    raised = [
        _name(node.exc)
        for _, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert {name: raised.count(name) for name in SINGLE_HOME_ERRORS} == dict.fromkeys(
        SINGLE_HOME_ERRORS, 1
    )


def _reads_of_report_holds(tree: ast.AST) -> list[int]:
    """Lines of ``check_axioms(...).holds`` in ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "holds"
        and isinstance(node.value, ast.Call)
        and _name(node.value) == "check_axioms"
    ]


def test_yes_no_axiom_decisions_use_holds():
    # a full AxiomReport is built for the ``check`` command; every yes/no
    # decision is ``algebra._holds``, which stops at the first failing identity
    assert _reads_of_report_holds(ast.parse('a.check_axioms(m, "P-system").holds')) == [1]
    found = [f"{name}:{line}" for name, tree in _modules() for line in _reads_of_report_holds(tree)]
    assert found == []


# the program is single-threaded: no import may start a thread, process or pool
CONCURRENCY_MODULES = {
    "threading",
    "_thread",
    "concurrent",
    "multiprocessing",
    "subprocess",
    "asyncio",
}


def _absolute_imports() -> list[tuple[str, str]]:
    """(``file:line``, module) of every non-relative import in the package."""
    found = []
    for file_name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(f"{file_name}:{node.lineno}", name) for name in names]
    return found


def test_no_concurrency_imports():
    found = [
        f"{where} {name}"
        for where, name in _absolute_imports()
        if name.split(".")[0] in CONCURRENCY_MODULES
    ]
    assert found == []


def test_stdlib_only_imports():
    # pyproject.toml declares no dependencies, so every absolute import is
    # of the standard library
    found = [
        f"{where} {name}"
        for where, name in _absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def _mutant_runner():
    path = pathlib.Path(__file__).parents[1] / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_still_apply():
    """Each mutant of ``tools/mutants.py`` edits text that occurs exactly
    once in its file, and names a test that exists as its killer, so the
    list cannot rot as the source changes."""
    runner = _mutant_runner()
    names = [m.name for m in runner.MUTANTS]
    assert len(set(names)) == len(names)
    for m in runner.MUTANTS:
        # raises ValueError unless the old text occurs exactly once
        assert runner.mutated(runner.ROOT, m) != (runner.ROOT / m.path).read_text(), m.name
        test_file, test_name = m.killer.split("::")
        source = (runner.ROOT / test_file).read_text(encoding="utf-8")
        assert re.search(rf"^def {test_name}\(", source, re.M), m.name
