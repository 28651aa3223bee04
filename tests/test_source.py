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
