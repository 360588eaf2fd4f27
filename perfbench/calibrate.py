"""A fixed slice of pure-Python work that measures how fast the host runs now.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over tens of seconds; the CPU time of a stage follows its wall
time, so the drift is the host's and not the program's.  run.py times one
slice before the first stage and after every stage, and rescales each
stage's wall time to a host on which one slice takes `REF_S` seconds.  The
slice never touches the package under test, so a change to the program
moves the rescaled figures by the same factor as the raw ones.

The work mixes what the stages do: JSON encoding and decoding of records,
string building, dict counting, list building and a small edit-distance
table.  Its inputs are fixed, so every run does the same work.
"""

from __future__ import annotations

import gc
import json
import random
import time

# Median time of one slice on the 2-vCPU host the bounds in BENCHMARK.json
# were set on.  Only ratios of rescaled figures matter; this constant keeps
# them near the raw ones.
REF_S = 0.15

_rng = random.Random(20231024)
_WORDS = [f"w{_rng.randrange(5000)}" for _ in range(4000)]
_TIMES = [round(_rng.uniform(0, 90000), 1) for _ in range(4000)]


def _work() -> int:
    records = [
        {"id": f"u{i}", "words": _WORDS[i : i + 30], "times": _TIMES[i : i + 30]} for i in range(0, 3000, 4)
    ]
    lines = [json.dumps(rec, separators=(",", ":")) for rec in records]
    decoded = [json.loads(line) for line in lines]
    counts: dict[str, int] = {}
    for rec in decoded:
        for word in rec["words"]:
            counts[word] = counts.get(word, 0) + 1
    tagged = [f"#T{i % 3}# " + " ".join(rec["words"]) for i, rec in enumerate(decoded)]
    total = sum(len(s.split()) for s in tagged)
    a, b = _WORDS[:60], _WORDS[30:90]
    for _ in range(10):
        row = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            prev, row[0] = row[0], i
            for j, y in enumerate(b, 1):
                prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (x != y))
    return total + len(counts) + row[-1]


def slice_s() -> float:
    """Wall time of one slice of the fixed work.

    The cyclic garbage collector is off during the slice: when it runs
    depends on what the calling process allocated before, not on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
