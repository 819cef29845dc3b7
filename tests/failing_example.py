"""A hypothesis test that fails on purpose, outside Tier-1 (its name does
not match ``test_*.py``).  CI runs it by path and asserts that pytest
reports the failure with exit code 1, as for any failing test, and not
with an internal error (exit 3): a runner that reads exit codes, such as
one that checks a mutant is killed, relies on that.

    python -m pytest -p no:cacheprovider tests/failing_example.py; echo $?
"""

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_example_is_reported_as_a_failure(n):
    assert n != n
