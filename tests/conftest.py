import collections
import pathlib

import pytest

from pseudobe import homs
from pseudobe.algebra import parse_algebra
from pseudobe.finder import SearchConstraints, enumerate_models

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    """Parse ``tests/fixtures/<name>.alg``."""
    return parse_algebra((FIXTURES / f"{name}.alg").read_text(encoding="utf-8"))


def count_map_search(monkeypatch, *modules):
    """Count the work of ``homs.search_maps`` as ``modules`` call it: its
    ``check`` calls and leaves (``accept`` calls), in the returned Counter.
    Their ``scan_maps``, the unpruned product scan, raises instead of
    running."""
    work = collections.Counter()
    search = homs.search_maps

    def counted(domains, check, accept):
        def counted_check(f, k):
            work["check"] += 1
            return check(f, k)

        def counted_accept(f):
            work["leaves"] += 1
            return accept(f)

        return search(domains, counted_check, counted_accept)

    def no_scan(*args):
        raise AssertionError("scan_maps ran where the pruned search must")

    for mod in modules:
        monkeypatch.setattr(mod, "search_maps", counted)
        monkeypatch.setattr(mod, "scan_maps", no_scan)
    return work


def is_linear(a):
    """Written out: x <= x for every x, and for x != y exactly one of x <= y
    and y <= x, where x <= y iff x -> y = 1."""
    le = [[v == a.unit for v in row] for row in a.arrow]
    rng = range(a.size)
    return all(le[x][x] for x in rng) and all(
        le[x][y] != le[y][x] for x in rng for y in rng if x != y
    )


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


@pytest.fixture(scope="session")
def size_five_models():
    """Every model of size 5 (9,698), searched once for the slow tests that
    read them all."""
    return list(enumerate_models(SearchConstraints(size=5)))
