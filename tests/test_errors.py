import math

import pytest

from qwave.errors import check_within


class _Unprintable:
    def __repr__(self):
        raise AssertionError("message formatted for a passing check")


def test_check_within_formats_its_message_only_on_failure():
    check_within(1e-10, 1e-10, "gap of %r", _Unprintable())
    with pytest.raises(ValueError, match=r"^gap of 'x': inf exceeds bound 0.0$"):
        check_within(math.inf, 0.0, "gap of %r", "x")
