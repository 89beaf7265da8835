import pytest

import pseudoht.catalog as catalog
from pseudoht.acceptance import run_all


@pytest.fixture
def cache():
    """A fresh algebra cache of the default budget for the test's body."""
    with catalog.scope() as fresh:
        yield fresh


@pytest.fixture(scope="session")
def paper_reports():
    """One full `verify-paper` run, shared by every criterion test."""
    return run_all()
