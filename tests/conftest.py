"""Shared fixtures."""

import pytest

from qident import bailey as B


@pytest.fixture(autouse=True)
def _cold_chain_memo():
    # no test is served steps another test ran, patched transforms included
    B._CHAINS.clear()
    yield
    B._CHAINS.clear()
