"""Fixtures shared by every test module."""

import pytest

from tametransfer.tower import level_guard


@pytest.fixture(autouse=True)
def unread_level_guard():
    """Each test reads TAMETRANSFER_LEVEL_GUARD afresh and leaves it unread."""
    level_guard.cache_clear()
    yield
    level_guard.cache_clear()
