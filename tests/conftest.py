"""Suite-wide settings and fixtures.

Every property test runs under one hypothesis profile: no deadline,
derandomized so the suite is reproducible run to run, and no example
database. A test sets only its own `max_examples`.
"""

import pytest
from hypothesis import settings

settings.register_profile("mscsim", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("mscsim")


class _NoSlotRecord:
    """Stands in for `SlotRecord` where no run may build one. It is not a
    tuple, so the NamedTuple call and `tuple.__new__` both raise."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a run built a SlotRecord it was not asked for")


@pytest.fixture
def no_slot_records(monkeypatch):
    """Any slot object the program builds fails the test."""
    monkeypatch.setattr("mscsim.ncc.SlotRecord", _NoSlotRecord)
