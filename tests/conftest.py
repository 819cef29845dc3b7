"""Shared fixtures."""

import pytest

from qident import bailey as B


def _clear_bailey_memos():
    B._CHAINS.clear()
    B._QUOTIENTS.clear()
    B._star_factor.cache_clear()


@pytest.fixture(autouse=True)
def _cold_bailey_memos():
    # no test is served steps or quotients another test made, patched
    # transforms included
    _clear_bailey_memos()
    yield
    _clear_bailey_memos()
