"""Static checks on the package source."""

import ast
import pathlib

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


# the program is single-threaded: no import may start a thread, process or pool
CONCURRENCY_MODULES = {
    "threading",
    "_thread",
    "concurrent",
    "multiprocessing",
    "subprocess",
    "asyncio",
}


def test_no_concurrency_imports():
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
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in CONCURRENCY_MODULES
            ]
    assert found == []
