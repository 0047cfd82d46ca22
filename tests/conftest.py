"""Shared fixtures."""

import pytest

from lefpath import lefschetz


@pytest.fixture(autouse=True)
def fresh_property_reports():
    """property_report is memoised on m; a test that patches what a report is
    built from must not read one built before the patch, or leave one behind."""
    lefschetz._property_report.cache_clear()
    yield
    lefschetz._property_report.cache_clear()
