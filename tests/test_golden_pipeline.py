"""Byte contract of the CLI pipeline, pinned against a committed manifest.

For seeds 1 and 7 the test runs the benchmark's pipeline chain (synth, build
plain and grouped, stats, demux, eval) plus `demux --text`, study and laal
through `cli.main`, once on clean inputs and once on copies with a few corrupted
lines, and compares each output file's and stdout's SHA-256, the full stderr
and the exit code with `tests/golden/pipeline.json`.

The manifest changes only with an intended output change.  To regenerate
it, run this file as a script from the repository root:

    PYTHONPATH=src python tests/test_golden_pipeline.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from tokenweave.cli import main
from tokenweave.formats import _dumps as _canonical, read_serialized, read_traces
from tokenweave.metrics import laal_report, switch_report

MANIFEST = Path(__file__).parent / "golden" / "pipeline.json"
SEEDS = (1, 7)
UTTERANCES = 60

TAGS = [
    {"surface": "#ASR#", "modality": "asr", "lang": "en"},
    {"surface": "#ES#", "modality": "st", "lang": "es"},
    {"surface": "#DE#", "modality": "st", "lang": "de"},
]


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _lines(path: str) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _write_lines(path: str, lines: list[str]) -> None:
    _write(path, "".join(line + "\n" for line in lines))


def _corrupt_corpus(lines: list[str]) -> list[str]:
    """One fault per touched line; every other line stays valid."""
    out = list(lines)
    recs = {i: json.loads(out[i]) for i in (2, 4, 6, 8, 10, 12, 14, 16, 20, 22, 24)}

    def first_words(rec):
        return next(ch["words"] for ch in rec["channels"] if len(ch["words"]) >= 2)

    out[1] = "{broken"
    first_words(recs[2])[0]["w"] = "two words"
    first_words(recs[4])[1]["t"] = -5
    words = first_words(recs[6])
    words[0]["t"], words[1]["t"] = words[1]["t"] + 7, words[0]["t"]
    first_words(recs[8])[1]["w"] = "#ES#"
    del first_words(recs[10])[0]["w"]
    first_words(recs[12])[0]["t"] = True
    recs[14]["utt_id"] = json.loads(out[0])["utt_id"]
    recs[16]["channels"][1]["tag"] = "#XX#"
    first_words(recs[20])[1]["t"] = 1.5
    first_words(recs[22])[1]["w"] = ""
    first_words(recs[24])[1] = 5
    for i, rec in recs.items():
        out[i] = _dumps(rec)
    out[18] = "[1]"
    return out


def _corrupt_serialized(lines: list[str]) -> list[str]:
    out = list(lines)
    recs = {i: json.loads(out[i]) for i in (2, 4, 6, 8, 10)}
    out[1] = "{broken"
    recs[2]["tokens"][1] = "a b"
    recs[4]["origin_times"] = recs[4]["origin_times"][:-1]
    recs[6]["tokens"] = ["#FR#"] + recs[6]["tokens"][1:]
    recs[8]["utt_id"] = json.loads(out[0])["utt_id"]
    recs[10]["tokens"], recs[10]["origin_times"] = recs[10]["tokens"][1:], recs[10]["origin_times"][1:]
    for i, rec in recs.items():
        out[i] = _dumps(rec)
    return out


def _corrupt_hyps(lines: list[str]) -> list[str]:
    """Bad lines added around every clean one, so that no utterance goes missing."""
    rec = json.loads(lines[4])
    return lines[:3] + ["null", lines[0], _dumps({**rec, "channels": 5})] + lines[3:] + ["{broken"]


def _text(built: str) -> list[str]:
    """A build rendered as `demux --text` reads it, written without the package: one stream per line."""
    return [" ".join(json.loads(line)["tokens"]) for line in _lines(built)]


def _corrupt_text(lines: list[str]) -> list[str]:
    """Faulty copies of clean lines, one fault each, added so that every clean line stays."""
    faults = [
        "hello " + lines[1],  # a word before any tag
        lines[3].replace(" ", "  ", 1),  # a double space: one empty token
        lines[5] + " #XX# x",  # an undeclared surface is a word
        lines[7].split(" ", 1)[0] + " " + lines[7],  # a tag repeated without a switch
        "",  # an empty line is skipped
    ]
    return lines[:2] + faults + lines[2:]


def _traces(corpus: str, built: str) -> list[str]:
    """Replay of a plain build by origin times, written without the package."""
    duration = {json.loads(line)["utt_id"]: json.loads(line)["duration_ms"] for line in _lines(corpus)}
    out = []
    for line in _lines(built):
        rec = json.loads(line)
        entries: dict[str, list] = {}
        current = None
        for ordinal, (tok, t) in enumerate(zip(rec["tokens"], rec["origin_times"])):
            if t is None:
                current = entries.setdefault(tok, [])
            else:
                current.append([ordinal, t])
        for tag, ents in entries.items():
            if ents:
                out.append(_dumps({"v": 1, "utt_id": rec["utt_id"], "tag": tag,
                                   "source_duration_ms": duration[rec["utt_id"]], "ref_len": len(ents), "entries": ents}))
    return out


def _stages(seed: int, bad: bool) -> list[tuple[str, list[str]]]:
    p = "bad-" if bad else ""
    corpus, tags = f"{p}corpus.jsonl", "tags.json"
    plain, grouped, hyps = f"{p}plain.jsonl", f"{p}grouped.jsonl", f"{p}hyps.jsonl"
    refs = "corpus.jsonl"  # every utterance, so that eval reaches its report
    stages = [] if bad else [("synth", ["synth", "--config", "synth.json", "--seed", str(seed), "--output", corpus])]
    stages += [
        ("build", ["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", plain]),
        ("build_grouped", ["build", "--method", "inter-time", "--group-ms", "500", "--tags", tags, "--input", corpus, "--output", grouped]),
        ("stats", ["stats", "--base", plain, "--variant", grouped]),
        ("demux", ["demux", "--tags", tags, "--input", grouped, "--output", "bad-demuxed.jsonl" if bad else hyps]),
        ("demux_text", ["demux", "--text", "--tags", tags, "--input", f"{p}grouped.txt", "--output", f"{p}text-hyps.jsonl"]),
        ("eval", ["eval", "--refs", refs, "--hyps", hyps]),
        ("study", ["study", "--config", f"{p}study.json", "--output", f"{p}study-report.json"]),
        ("laal", ["laal", "--traces", f"{p}traces.jsonl"]),
    ]
    return stages


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    files = {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if "--output" in argv:
        path = Path(argv[argv.index("--output") + 1])
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": rc, "stderr": err.getvalue(), "sha256": files}


def run_all(workdir: Path) -> dict:
    """Run every seed's clean and corrupted chain in `workdir`; one entry per stage."""
    manifest: dict = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for seed in SEEDS:
            d = workdir / f"seed{seed}"
            d.mkdir()
            os.chdir(d)
            _write("tags.json", _dumps({"v": 1, "tags": TAGS}) + "\n")
            synth = {
                "v": 1, "seed": seed, "num_utterances": UTTERANCES, "words_per_channel": [0, 45],
                "word_rate_ms": [150, 450], "translation_lag_ms": [200, 1500], "reorder_window_ms": 300,
                "vocab_size": 5000, "channels": TAGS,
            }
            _write("synth.json", _dumps(synth) + "\n")
            methods = [{"name": "inter_time"}, {"name": "inter_time", "group_ms": 500}, {"name": "inter_gamma", "gamma": 0.5}]
            _write("study.json", _dumps({"synth": {**synth, "channels": TAGS[:2]}, "methods": methods, "replay": {"overhead_ms": 5}}))
            _write("bad-study.json", _dumps({"corpus": "bad-corpus.jsonl", "tags": "tags.json", "methods": methods[:2]}))
            for bad in (False, True):
                p = "bad-" if bad else ""
                for name, argv in _stages(seed, bad):
                    if name == "laal":
                        traces = _traces("corpus.jsonl", f"{p}plain.jsonl")
                        if bad:
                            traces[2] = "{broken"
                            traces[4] = _dumps({**json.loads(traces[4]), "entries": []})
                        _write_lines(f"{p}traces.jsonl", traces)
                    manifest[f"seed{seed}/{p}{name}"] = _run(argv)
                    # A corrupted input is a stage's output with a few lines broken.
                    if name == "synth":
                        _write_lines("bad-corpus.jsonl", _corrupt_corpus(_lines("corpus.jsonl")))
                    if name == "build_grouped" and not bad:
                        _write_lines("grouped.txt", _text("grouped.jsonl"))
                        _write_lines("bad-grouped.txt", _corrupt_text(_text("grouped.jsonl")))
                    if bad and name == "build_grouped":
                        _write_lines("bad-grouped.jsonl", _corrupt_serialized(_lines("bad-grouped.jsonl")))
                    if name == "demux" and not bad:
                        _write_lines("bad-hyps.jsonl", _corrupt_hyps(_lines("hyps.jsonl")))
            os.chdir(workdir)
    finally:
        os.chdir(cwd)
    return manifest


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The working directory of one `run_all` and the manifest it produced."""
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, run_all(workdir)


def test_pipeline_outputs_match_the_manifest(golden_run):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    _, got = golden_run
    assert list(got) == list(expected)
    for stage in expected:
        assert got[stage] == expected[stage], stage


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_stats_and_laal_print_the_library_reports(golden_run):
    # On the inputs each stage read, the library call gives the stdout line, or the error line.
    workdir, got = golden_run
    for seed in SEEDS:
        d = workdir / f"seed{seed}"
        for p in ("", "bad-"):
            stats = got[f"seed{seed}/{p}stats"]
            base, variant = (read_serialized(str(d / f"{p}{name}.jsonl"), None, []) for name in ("plain", "grouped"))
            if stats["exit"] == 2:
                with pytest.raises(ValueError) as exc:
                    switch_report(base, variant)
                assert stats["stderr"].endswith(f"\nerror: {exc.value}\n")
            else:
                assert _sha256(_canonical(switch_report(base, variant)) + "\n") == stats["sha256"]["stdout"]
            report = laal_report(read_traces(str(d / f"{p}traces.jsonl"), []))
            assert _sha256(_canonical(report) + "\n") == got[f"seed{seed}/{p}laal"]["sha256"]["stdout"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_all(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} stages to {MANIFEST}", file=sys.stderr)
