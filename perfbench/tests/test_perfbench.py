"""Tests of the benchmark itself: smoke runs, negative checks, repeatable counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import launcher  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tokenweave import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
REPEATED_COUNTS = ["kernels.cells", "serialize.words_in", "model.validate_calls", "demux.tokens_in", "metrics.bleu_segments"]
# Small corpora, so that one pass over each workload takes well under a second.
SMALL = {"pipeline-3ch": 12, "eval-long": 3, "study-sweep": 10}


def bench(monkeypatch, capsys, workload: str, trace: int, seed: int = 3, utterances: int | None = None) -> dict:
    monkeypatch.setitem(workloads.UTTERANCES, workload, utterances or SMALL[workload])
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr()
    assert code == 0, out.out + out.err
    return json.loads(out.out.splitlines()[-1])


def run_stages(workload, inp) -> None:
    for st in workload.stages(inp):
        assert run.call_main(cli.main, st.argv, st.stdout, 60) == 0, st.name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(monkeypatch, capsys, workload, trace):
    result = bench(monkeypatch, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_times_are_rescaled_by_the_calibration_slices(monkeypatch, capsys):
    # A host on which every slice takes twice the reference time runs at half
    # speed: the rescaled throughput is twice the raw one.
    monkeypatch.setattr(calibrate, "slice_s", lambda: 2 * calibrate.REF_S)
    bench(monkeypatch, capsys, "study-sweep", 0, seed=4)
    record = json.loads((run.STATE / "runs" / "study-sweep-seed4-trace0.json").read_text("utf-8"))
    metrics = record["metrics"]
    assert metrics["words_per_s_ref"] == pytest.approx(2 * metrics["words_per_s"], rel=1e-12)
    assert record["stages"]["study"]["wall_s_ref"] == pytest.approx(record["stages"]["study"]["wall_s"] / 2, rel=1e-12)


def test_traced_counts_repeat_exactly(monkeypatch, capsys):
    first, second = (bench(monkeypatch, capsys, "pipeline-3ch", 1, seed=5, utterances=30)["metrics"] for _ in range(2))
    for name in REPEATED_COUNTS:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == second[name]["value"], name


def test_demux_check_catches_one_changed_word(tmp_path):
    w = workloads.WORKLOADS["pipeline-3ch"]
    inp = w.prepare(tmp_path, 11, 8)
    run_stages(w, inp)
    assert all(e is None for e in w.check(inp).values()), w.check(inp)

    hyps = workloads.read_jsonl(tmp_path / "hyps.jsonl")
    words = next(ch["words"] for rec in hyps for ch in rec["channels"] if ch["words"])
    words[-1] = words[-1] + "x"
    workloads.write_jsonl(tmp_path / "hyps.jsonl", hyps)
    errors = w.check(inp)
    assert errors["demux"] is not None
    assert [s for s, e in errors.items() if e is not None] == ["demux"]


def test_stage_that_writes_nothing_fails_its_check(tmp_path):
    w = workloads.WORKLOADS["pipeline-3ch"]
    inp = w.prepare(tmp_path, 11, 8)
    stages = w.stages(inp)
    run_stages(w, inp)
    run.clear_outputs(stages)
    for st in stages:
        if st.name != "eval":
            assert run.call_main(cli.main, st.argv, st.stdout, 60) == 0, st.name
    errors = w.check(inp)
    assert [s for s, e in errors.items() if e is not None] == ["eval"]


def test_stage_past_its_time_limit_is_stopped_and_fails(tmp_path):
    reply = launcher.run_stage(
        {
            "argv": [sys.executable, "-c", "import time; time.sleep(60)"],
            "stdout": str(tmp_path / "out"),
            "stderr": str(tmp_path / "err"),
            "cwd": str(tmp_path),
            "timeout_s": 0.5,
        }
    )
    assert reply["returncode"] != 0 and reply["wall_s"] < 30

    def spin(argv):
        while True:
            pass

    assert run.call_main(spin, [], tmp_path / "spin.out", 0.5) != 0
    assert "StageTimeout" in (tmp_path / "spin.err").read_text()


def test_eval_long_check_catches_wer_off_by_one_edit(tmp_path):
    w = workloads.WORKLOADS["eval-long"]
    inp = w.prepare(tmp_path, 11, 4)
    run_stages(w, inp)
    assert w.check(inp) == {"eval": None}

    # One more substitution on the transcription channel: a kept word
    # becomes a word that occurs nowhere in the references.
    hyps = workloads.read_jsonl(tmp_path / "hyps.jsonl")
    asr = hyps[0]["channels"][0]["words"]
    i = next(i for i, x in enumerate(asr) if x.startswith("w"))
    asr[i] = "x-extra"
    workloads.write_jsonl(tmp_path / "hyps.jsonl", hyps)
    run_stages(w, inp)
    assert "WER" in w.check(inp)["eval"]


def _dp_distance(a: list[str], b: list[str]) -> int:
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (x != y))
    return row[-1]


def test_noise_edits_equal_edit_distance():
    rng = random.Random(0)
    fresh = (f"x{n}" for n in range(10**9))
    for _ in range(200):
        ref = [f"w{rng.randrange(6)}" for _ in range(rng.randint(0, 40))]
        hyp, edits = workloads.add_noise(rng, ref, fresh)
        assert _dp_distance(ref, hyp) == edits


def test_reference_bleu_on_identity_and_known_case():
    assert workloads.reference_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d"]]) == 100.0
    # Bigram precision 1/3, but no trigram matches: BLEU 0.
    assert workloads.reference_bleu([["a", "b", "c", "d"]], [["a", "b", "d", "c"]]) == 0.0
    # Orders 1-2 match fully, orders 3-4 are not realizable; brevity penalty exp(1 - 3/2).
    assert workloads.reference_bleu([["a", "b", "c"]], [["a", "b"]]) == pytest.approx(100 * math.exp(-0.5), abs=1e-12)
