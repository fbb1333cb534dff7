import numpy as np
import pytest

from tunnelsplit.errors import SolveSingular, raise_first


def test_raise_first_passes_an_all_false_mask():
    def message(i):
        raise AssertionError("no row is flagged, so no message is made")

    raise_first(np.zeros(5, dtype=bool), SolveSingular, message)
    raise_first(np.zeros(0, dtype=bool), SolveSingular, message)


def test_raise_first_names_the_first_flagged_row():
    bad = np.array([False, False, True, False, True])
    with pytest.raises(SolveSingular) as got:
        raise_first(bad, SolveSingular, lambda i: f"row {i} of {bad.size}")
    assert str(got.value) == "row 2 of 5"
    with pytest.raises(ValueError, match="^row 0$"):
        raise_first(np.ones(3, dtype=bool), ValueError, lambda i: f"row {i}")
