import pytest

from pseudoht.acceptance import run_all


@pytest.fixture(scope="session")
def paper_reports():
    """One full `verify-paper` run, shared by every criterion test."""
    return run_all()
