"""Static checks on the package source."""

import ast
import pathlib
import sys

import pseudobe


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may carry a library check
    sources = sorted(pathlib.Path(pseudobe.__file__).parent.glob("*.py"))
    assert "linalg.py" in {path.name for path in sources}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
    sources = sorted(pathlib.Path(pseudobe.__file__).parent.glob("*.py"))
    raised = [
        _name(node.exc)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
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
    sources = sorted(pathlib.Path(pseudobe.__file__).parent.glob("*.py"))
    assert "finder.py" in {path.name for path in sources}
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _reads_of_report_holds(ast.parse(path.read_text(encoding="utf-8")))
    ]
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
    sources = sorted(pathlib.Path(pseudobe.__file__).parent.glob("*.py"))
    assert "finder.py" in {path.name for path in sources}
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", name) for name in names]
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
