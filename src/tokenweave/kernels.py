"""Word-level edit distance, bit-parallel over Python integers.

Myers' bit-vector algorithm (JACM 1999) in Hyyrö's global edit-distance form
(2003): one column of the DP table, over the shorter side, is held as two bit
vectors of vertical +1/-1 deltas, so each word of the longer side costs about
a dozen integer operations instead of one Python step per cell.  Python's
unbounded ints hold a column of any length, so there is no 64-bit block loop.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

__all__ = ["edit_distance"]


def edit_distance(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Levenshtein distance between two word sequences, with unit costs."""
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    # Match mask per distinct word of the shorter side: bit i set where b[i] is that word.
    peq: dict[Hashable, int] = {}
    for i, w in enumerate(b):
        peq[w] = peq.get(w, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for w in a:
        eq = peq.get(w, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist
