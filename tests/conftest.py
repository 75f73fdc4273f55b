"""Shared fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces the attribute ``name`` of a
    module or class with a wrapper that records the positional arguments of
    every call and then calls through; it returns the list of records.  The
    original is restored at teardown."""

    def wrap(owner, name):
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return wrap
