import pytest

from qwave import measurement


@pytest.fixture
def fresh_specs():
    """Empty the memo of the public spec constructors, so that a test sees
    its specs built and validated rather than handed back by an earlier
    test."""
    measurement._memo.cache_clear()
    yield
    measurement._memo.cache_clear()
