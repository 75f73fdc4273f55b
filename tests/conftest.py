"""Shared fixtures, among them oracles cached for the whole session: the
end tally behind the role counts, the ``Face`` lists and the reports of the
brute-force axiom checks."""

from functools import lru_cache

import pytest

import brute_axioms
from rootflags import rules
from rootflags.complexes import _adjacency, _count_order, enumerate_faces
from rootflags.rules import RuleSet


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


def walk_end_tally(code: int, n: int, start: int) -> dict[tuple[int, int, int, int], int]:
    """Count the cliques of V_n inside the start mask (over ``_count_order(n)``) by their ends.

    A key is (lower, upper, forward, size): lower and upper OR the node bits
    1 << min(arrow) and 1 << max(arrow) over the clique's arrows, forward
    counts its forward arrows and size all of them.  The four values are
    carried down a DFS that visits every clique once, so a clique costs one
    dict update.
    """
    arrows, masks = _adjacency(code, n, _count_order(n))
    lower = [1 << min(arrow) for arrow in arrows]
    upper = [1 << max(arrow) for arrow in arrows]
    forward = [int(arrow.forward) for arrow in arrows]
    tally: dict[tuple[int, int, int, int], int] = {}
    get = tally.get

    def rec(cand: int, lo: int, up: int, fwd: int, size: int) -> None:
        key = (lo, up, fwd, size)
        tally[key] = get(key, 0) + 1
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            rec(cand & masks[v], lo | lower[v], up | upper[v], fwd + forward[v], size + 1)

    rec(start, 0, 0, 0, 0)
    return tally


@pytest.fixture(scope="session")
def end_tally():
    """``end_tally(code, n, start)``: ``walk_end_tally``, walked once per
    session for each argument triple."""
    return lru_cache(maxsize=None)(walk_end_tally)


@pytest.fixture(scope="session")
def faces():
    """``faces(rs, n)``: the faces of V_n under the rule set, as
    ``enumerate_faces`` streams them, walked once per session for each
    (code, n)."""
    walked = lru_cache(maxsize=None)(
        lambda code, n: tuple(enumerate_faces(RuleSet.from_code(code), n))
    )
    return lambda rs, n: walked(rs.code, n)


@pytest.fixture(scope="session")
def axiom_oracle():
    """``axiom_oracle(check, rs, n, all_witnesses=False)``: the report of
    the ``brute_axioms`` check named check, computed once per session for
    each (check, code, n, all_witnesses).  ``pair_relation`` is a pure
    function of the two arrows, so the checks share its answers across the
    codes, and every ``is_edge`` answer stays as it is."""
    relation = lru_cache(maxsize=None)(rules.pair_relation)

    @lru_cache(maxsize=None)
    def report(check: str, code: int, n: int, all_witnesses: bool):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rules, "pair_relation", relation)
            patch.setattr(brute_axioms, "pair_relation", relation)
            rs = RuleSet.from_code(code)
            return getattr(brute_axioms, check)(rs, n, all_witnesses=all_witnesses)

    return lambda check, rs, n, all_witnesses=False: report(check, rs.code, n, all_witnesses)
