import pathlib

import pytest

from pseudobe.algebra import parse_algebra
from pseudobe.finder import SearchConstraints, enumerate_models

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    """Parse ``tests/fixtures/<name>.alg``."""
    return parse_algebra((FIXTURES / f"{name}.alg").read_text(encoding="utf-8"))


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def bck4():
    return load_fixture("bck4")


@pytest.fixture
def proper6():
    return load_fixture("proper6")


@pytest.fixture
def bounded6():
    return load_fixture("bounded6")


@pytest.fixture
def conda5():
    return load_fixture("conda5")


@pytest.fixture
def constant2():
    """Two elements, every product a: a table outside pseudo-BE."""
    return load_fixture("constant2")


@pytest.fixture(scope="session")
def small_inputs():
    """The four fixtures and every model of size <= 4 (87 algebras)."""
    fixtures = [load_fixture(name) for name in ("bck4", "conda5", "proper6", "bounded6")]
    models = [m for n in range(1, 5) for m in enumerate_models(SearchConstraints(size=n))]
    return fixtures + models
