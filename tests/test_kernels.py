from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenweave.kernels import edit_distance


def levenshtein_ints(a, b) -> int:
    """Two-row Levenshtein DP over integer-coded sequences: the reference kernel."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    if n > m:
        a, b = b, a
        n, m = m, n

    current = list(range(n + 1))
    for i in range(1, m + 1):
        previous, current = current, [i] + [0] * n
        bi = b[i - 1]
        for j in range(1, n + 1):
            add = previous[j] + 1
            delete = current[j - 1] + 1
            change = previous[j - 1]
            if a[j - 1] != bi:
                change += 1
            current[j] = min(add, delete, change)
    return current[n]


def oracle_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Exhaustive alignment over all edit paths, memoized.  Slow but obvious."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j + 1) + (a[i] != b[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )

    return go(0, 0)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ([], [], 0),
        (["a"], [], 1),
        ([], ["a", "b"], 2),
        (["a", "b", "c"], ["a", "b", "c"], 0),
        (["a", "b", "c"], ["a", "x", "c"], 1),
        (["a", "b"], ["b", "a"], 2),
        (["x"], ["x", "x", "x"], 2),
        (["kitten", "sat"], ["sitting", "sat"], 1),
    ],
)
def test_edit_distance_known_cases(a, b, expected):
    assert edit_distance(a, b) == expected


words = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12)


@given(words, words)
def test_matches_exhaustive_oracle(a, b):
    assert edit_distance(a, b) == oracle_distance(tuple(a), tuple(b))


@given(words, words)
def test_symmetric(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@given(words, words, words)
def test_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def code_lists(alphabet: int):
    # Lengths uniform up to 300, so masks wider than 64 and 128 bits are common.
    return st.integers(min_value=0, max_value=300).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=alphabet - 1), min_size=n, max_size=n)
    )


# A 2-symbol alphabet gives long runs of matches; with 50 symbols most cells miss.
@settings(deadline=None)
@given(st.sampled_from([2, 50]).flatmap(lambda k: st.tuples(code_lists(k), code_lists(k))))
def test_bit_parallel_matches_dp(pair):
    a, b = pair
    assert edit_distance(a, b) == levenshtein_ints(a, b)


def test_distance_is_over_words_not_characters():
    # One whole-word substitution, regardless of how long the words are.
    assert edit_distance(["abcdefgh"], ["abcdefgx"]) == 1
