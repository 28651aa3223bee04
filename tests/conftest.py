import pathlib

import pytest

from pseudobe import catalog
from pseudobe.algebra import parse_algebra
from pseudobe.finder import SearchConstraints, enumerate_models

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def bck4():
    return catalog.four_element_bck()


@pytest.fixture
def proper6():
    return catalog.six_element_proper()


@pytest.fixture
def bounded6():
    return catalog.six_element_bounded()


@pytest.fixture
def conda5():
    return catalog.five_element_condition_a()


@pytest.fixture
def constant2():
    """Two elements, every product a: a table outside pseudo-BE."""
    return parse_algebra((FIXTURES / "constant2.alg").read_text())


@pytest.fixture(scope="session")
def small_inputs():
    """The four fixtures and every model of size <= 4 (87 algebras)."""
    fixtures = [
        catalog.four_element_bck(),
        catalog.five_element_condition_a(),
        catalog.six_element_proper(),
        catalog.six_element_bounded(),
    ]
    models = [m for n in range(1, 5) for m in enumerate_models(SearchConstraints(size=n))]
    return fixtures + models
