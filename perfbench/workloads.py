"""Seeded inputs, stage lists and output checks for the benchmark workloads.

A workload writes its inputs into a work directory, names the CLI stages to
run over them, and checks the stage outputs afterwards.  The checks parse
the files themselves and recompute what they expect from the inputs; they
never call the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ASR = {"surface": "#ASR#", "modality": "asr", "lang": "en"}
ES = {"surface": "#ES#", "modality": "st", "lang": "es"}
DE = {"surface": "#DE#", "modality": "st", "lang": "de"}

# Utterance counts, chosen so that one pass over a workload's
# stages takes one to a few seconds on a 2-core host: a run of a few tens of
# seconds then holds enough passes for a steady median.
UTTERANCES = {"pipeline-3ch": 600, "eval-long": 80, "study-sweep": 500}

STUDY_METHODS = [
    {"name": "inter_time"},
    {"name": "inter_time", "group_ms": 250},
    {"name": "inter_time", "group_ms": 500},
    {"name": "inter_time", "group_ms": 1000},
    {"name": "inter_gamma", "gamma": 0.0},
    {"name": "inter_gamma", "gamma": 0.5},
    {"name": "inter_gamma", "gamma": 1.0},
]
# Per-token decoding cost charged by replay, so that token order moves LAAL.
STUDY_OVERHEAD_MS = 5


def dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(dumps(rec))
            fh.write("\n")


def write_json(path: Path, obj) -> None:
    path.write_text(dumps(obj) + "\n", encoding="utf-8")


def corpus_words(records: list[dict]) -> int:
    return sum(len(ch["words"]) for rec in records for ch in rec["channels"])


@dataclass
class Stage:
    """One CLI invocation: `python -m tokenweave <argv>`, stdout to `stdout`."""

    name: str
    argv: list[str]
    stdout: Path

    def outputs(self) -> list[Path]:
        """Every file the stage writes: its --output, standard output and error."""
        paths = [self.stdout, self.stdout.with_suffix(".err")]
        if "--output" in self.argv:
            paths.append(Path(self.argv[self.argv.index("--output") + 1]))
        return paths


@dataclass
class Inputs:
    """What a workload wrote during set-up and what its checks expect."""

    workdir: Path
    seed: int
    utterances: int
    words: int = 0
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the benchmark's own corpus generator (eval-long and study-sweep)


def make_corpus(rng: random.Random, n: int, tags: list[dict], words: tuple[int, int], prefix: str) -> list[dict]:
    """Corpus records in the documented JSONL shape, valid by construction.

    The first channel is the transcription: times advance by 120-480 ms per
    word.  Other channels trail it by a lag with jitter, re-sorted so that
    every channel stays monotone.  Words are `w<n>`, never a tag surface.
    """
    records = []
    for i in range(n):
        counts = [rng.randint(*words) for _ in tags]
        t = 0
        anchor = []
        for _ in range(counts[0]):
            t += rng.randint(120, 480)
            anchor.append(t)
        channels = [anchor]
        for c in counts[1:]:
            times = []
            for k in range(c):
                base = anchor[k * len(anchor) // c] if anchor else 0
                times.append(max(0, base + rng.randint(300, 1500) + rng.randint(-250, 250)))
            channels.append(sorted(times))
        latest = max((x for times in channels for x in times), default=0)
        records.append(
            {
                "v": 1,
                "utt_id": f"{prefix}-{i:05d}",
                "duration_ms": max(anchor, default=latest) + 500,
                "channels": [
                    {
                        "tag": tag["surface"],
                        "modality": tag["modality"],
                        "lang": tag["lang"],
                        "words": [{"t": x, "w": f"w{rng.randrange(8000)}"} for x in times],
                    }
                    for tag, times in zip(tags, channels)
                ],
            }
        )
    return records


def add_noise(rng: random.Random, ref: list[str], fresh) -> tuple[list[str], int]:
    """A noisy copy of `ref` and its exact word edit distance to `ref`.

    The segment gets substitutions plus either deletions or insertions, never
    both.  Substituted and inserted words come from `fresh` and occur nowhere
    in the references, so no alignment can match them: the distance is at
    least max(|ref|, |hyp|) minus the reference words kept, which is the
    number of edits applied, and the edits themselves reach it.
    """
    deleting = rng.random() < 0.5
    hyp: list[str] = []
    edits = 0
    for w in ref:
        r = rng.random()
        if r < 0.08:
            hyp.append(next(fresh))
            edits += 1
        elif r < 0.13 and deleting:
            edits += 1
        else:
            hyp.append(w)
        if not deleting and rng.random() < 0.05:
            hyp.append(next(fresh))
            edits += 1
    return hyp, edits


def _fresh_words():
    n = 0
    while True:
        yield f"x{n}"
        n += 1


def reference_bleu(refs: list[list[str]], hyps: list[list[str]]) -> float:
    """Corpus BLEU as the README defines it, written out directly.

    Clipped n-gram matches and totals for orders 1-4 are pooled over all
    segments; orders with no pooled total are left out of the geometric
    mean; any order with zero matches gives 0; the brevity penalty uses the
    pooled lengths; no smoothing.
    """
    matches = [0] * 5
    totals = [0] * 5
    ref_len = hyp_len = 0
    for ref, hyp in zip(refs, hyps):
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, 5):
            h = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            r = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            matches[n] += sum((h & r).values())
            totals[n] += len(hyp) - n + 1 if len(hyp) >= n else 0
    if hyp_len == 0:
        return 0.0
    logs = []
    for n in range(1, 5):
        if totals[n] == 0:
            continue
        if matches[n] == 0:
            return 0.0
        logs.append(math.log(matches[n] / totals[n]))
    if not logs:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# pipeline-3ch: synth -> build -> build grouped -> stats -> demux -> eval


class Pipeline3ch:
    name = "pipeline-3ch"
    tags = [ASR, ES, DE]

    def prepare(self, workdir: Path, seed: int, utterances: int) -> Inputs:
        write_json(workdir / "tags.json", {"v": 1, "tags": self.tags})
        write_json(
            workdir / "synth.json",
            {
                "v": 1,
                "seed": seed,
                "num_utterances": utterances,
                "words_per_channel": [0, 45],
                "word_rate_ms": [150, 450],
                "translation_lag_ms": [200, 1500],
                "reorder_window_ms": 300,
                "vocab_size": 5000,
                "channels": self.tags,
            },
        )
        return Inputs(workdir, seed, utterances, expect={"synth_sha256": None})

    def stages(self, inp: Inputs) -> list[Stage]:
        d = inp.workdir
        tags, corpus = str(d / "tags.json"), str(d / "corpus.jsonl")
        plain, grouped = str(d / "plain.jsonl"), str(d / "grouped.jsonl")
        hyps = str(d / "hyps.jsonl")
        seed = str(inp.seed)
        return [
            Stage("synth", ["synth", "--config", str(d / "synth.json"), "--seed", seed, "--output", corpus], d / "synth.out"),
            Stage("build", ["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", plain], d / "build.out"),
            Stage(
                "build_grouped",
                ["build", "--method", "inter-time", "--group-ms", "500", "--tags", tags, "--input", corpus, "--output", grouped],
                d / "build_grouped.out",
            ),
            Stage("stats", ["stats", "--base", plain, "--variant", grouped], d / "stats.out"),
            Stage("demux", ["demux", "--tags", tags, "--input", grouped, "--output", hyps], d / "demux.out"),
            Stage("eval", ["eval", "--refs", corpus, "--hyps", hyps], d / "eval.out"),
        ]

    def check(self, inp: Inputs) -> dict[str, str | None]:
        d = inp.workdir
        errors: dict[str, str | None] = {}
        corpus = _guard(errors, "synth", lambda: self.check_synth(inp))
        if corpus is None:
            return {s: errors.get(s, "corpus unreadable") for s in ("synth", "build", "build_grouped", "stats", "demux", "eval")}
        counts = {}
        for stage, path in (("build", d / "plain.jsonl"), ("build_grouped", d / "grouped.jsonl")):
            counts[stage] = _guard(errors, stage, lambda: check_build(corpus, read_jsonl(path)))
        if counts["build"] is not None and counts["build_grouped"] is not None:
            _guard(errors, "stats", lambda: check_stats(counts["build"], counts["build_grouped"], d / "stats.out"))
        else:
            errors["stats"] = "no build output to compare"
        _guard(errors, "demux", lambda: check_demux(corpus, read_jsonl(d / "hyps.jsonl")))
        _guard(errors, "eval", lambda: check_eval_exact(d / "eval.out"))
        return errors

    def check_synth(self, inp: Inputs) -> list[dict]:
        """Corpus shape as configured, and the same bytes on every pass."""
        path = inp.workdir / "corpus.jsonl"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = inp.expect["synth_sha256"]
        if first is None:
            inp.expect["synth_sha256"] = digest
        elif digest != first:
            raise CheckFailed("synth output differs from an earlier pass with the same seed")
        corpus = read_jsonl(path)
        if len(corpus) != inp.utterances:
            raise CheckFailed(f"synth wrote {len(corpus)} utterances, expected {inp.utterances}")
        for rec in corpus:
            if [ch["tag"] for ch in rec["channels"]] != [t["surface"] for t in self.tags]:
                raise CheckFailed(f"{rec['utt_id']}: unexpected channel plan")
            if any(not 0 <= len(ch["words"]) <= 45 for ch in rec["channels"]):
                raise CheckFailed(f"{rec['utt_id']}: channel length outside 0-45")
        inp.words = corpus_words(corpus)
        return corpus


def check_build(corpus: list[dict], built: list[dict]) -> int:
    """Every utterance once, with its words; returns the tag-token count.

    Tag tokens are the positions whose `origin_times` entry is null.
    """
    if [r["utt_id"] for r in built] != [r["utt_id"] for r in corpus]:
        raise CheckFailed("build output utterance ids differ from the corpus")
    tags = 0
    for ref, rec in zip(corpus, built):
        words = [tok for tok, t in zip(rec["tokens"], rec["origin_times"]) if t is not None]
        tags += len(rec["tokens"]) - len(words)
        expected = Counter(w["w"] for ch in ref["channels"] for w in ch["words"])
        if Counter(words) != expected:
            raise CheckFailed(f"{rec['utt_id']}: build words differ from the corpus")
    return tags


def check_stats(base_tags: int, variant_tags: int, stdout: Path) -> None:
    result = _json_line(stdout)
    expected = 1.0 - variant_tags / base_tags
    if result.get("base_switches") != base_tags or result.get("variant_switches") != variant_tags:
        raise CheckFailed(
            f"stats counts {result.get('base_switches')}/{result.get('variant_switches')}, "
            f"expected {base_tags}/{variant_tags}"
        )
    if abs(result["reduction"] - expected) > 1e-12:
        raise CheckFailed(f"stats reduction {result['reduction']!r}, expected {expected!r}")


def check_demux(corpus: list[dict], demuxed: list[dict]) -> None:
    """Demux output equals the corpus words, channel by channel."""
    if [r["utt_id"] for r in demuxed] != [r["utt_id"] for r in corpus]:
        raise CheckFailed("demux output utterance ids differ from the corpus")
    for ref, rec in zip(corpus, demuxed):
        got = {ch["tag"]: ch["words"] for ch in rec["channels"]}
        for ch in ref["channels"]:
            if got.pop(ch["tag"], []) != [w["w"] for w in ch["words"]]:
                raise CheckFailed(f"{ref['utt_id']}: demuxed {ch['tag']} words differ from the corpus")
        if any(got.values()):
            raise CheckFailed(f"{ref['utt_id']}: demux produced words on undeclared channels {sorted(got)}")


def check_eval_exact(stdout: Path) -> None:
    """A lossless round trip scores WER 0 and BLEU 100 on every channel."""
    report = _json_line(stdout)
    for ch in report["channels"]:
        if "wer" in ch and ch["wer"] != 0:
            raise CheckFailed(f"{ch['tag']}: WER {ch['wer']!r}, expected 0")
        if "bleu" in ch and abs(ch["bleu"] - 100.0) > 1e-9:
            raise CheckFailed(f"{ch['tag']}: BLEU {ch['bleu']!r}, expected 100")
    if report.get("overall_wer") != 0 or abs(report.get("overall_bleu", 0.0) - 100.0) > 1e-9:
        raise CheckFailed(f"overall WER/BLEU {report.get('overall_wer')!r}/{report.get('overall_bleu')!r}, expected 0/100")


# ---------------------------------------------------------------------------
# eval-long: one eval stage over long segments with seeded noisy hypotheses


class EvalLong:
    name = "eval-long"
    tags = [ASR, ES]

    def prepare(self, workdir: Path, seed: int, utterances: int) -> Inputs:
        rng = random.Random(f"eval-long/{seed}")
        corpus = make_corpus(rng, utterances, self.tags, (100, 200), f"e{seed}")
        fresh = _fresh_words()
        hyps = []
        edits = ref_words = 0
        st_refs: list[list[str]] = []
        st_hyps: list[list[str]] = []
        for rec in corpus:
            channels = []
            for ch in rec["channels"]:
                ref = [w["w"] for w in ch["words"]]
                hyp, n = add_noise(rng, ref, fresh)
                channels.append({"tag": ch["tag"], "words": hyp})
                if ch["modality"] == "asr":
                    edits += n
                    ref_words += len(ref)
                else:
                    st_refs.append(ref)
                    st_hyps.append(hyp)
            hyps.append({"v": 1, "utt_id": rec["utt_id"], "channels": channels})
        write_jsonl(workdir / "corpus.jsonl", corpus)
        write_jsonl(workdir / "hyps.jsonl", hyps)
        return Inputs(
            workdir,
            seed,
            utterances,
            words=corpus_words(corpus),
            expect={"edits": edits, "ref_words": ref_words, "bleu": reference_bleu(st_refs, st_hyps)},
        )

    def stages(self, inp: Inputs) -> list[Stage]:
        d = inp.workdir
        return [Stage("eval", ["eval", "--refs", str(d / "corpus.jsonl"), "--hyps", str(d / "hyps.jsonl")], d / "eval.out")]

    def check(self, inp: Inputs) -> dict[str, str | None]:
        errors: dict[str, str | None] = {}
        _guard(errors, "eval", lambda: check_eval_noisy(inp.expect, inp.workdir / "eval.out"))
        return errors


def check_eval_noisy(expect: dict, stdout: Path) -> None:
    """WER equals the applied edits over the reference words; BLEU agrees to 1e-9."""
    report = _json_line(stdout)
    wer = expect["edits"] / expect["ref_words"]
    asr = [ch for ch in report["channels"] if ch["tag"] == ASR["surface"]]
    st = [ch for ch in report["channels"] if ch["tag"] == ES["surface"]]
    if len(asr) != 1 or len(st) != 1:
        raise CheckFailed("eval report lacks the #ASR# or #ES# channel")
    for label, got in (("#ASR# WER", asr[0].get("wer")), ("overall WER", report.get("overall_wer"))):
        if got is None or abs(got - wer) > 1e-12:
            raise CheckFailed(f"{label} {got!r}, expected {expect['edits']}/{expect['ref_words']} = {wer!r}")
    for label, got in (("#ES# BLEU", st[0].get("bleu")), ("overall BLEU", report.get("overall_bleu"))):
        if got is None or abs(got - expect["bleu"]) > 1e-9:
            raise CheckFailed(f"{label} {got!r}, expected {expect['bleu']!r}")


# ---------------------------------------------------------------------------
# study-sweep: one study stage, seven methods over a two-channel corpus


class StudySweep:
    name = "study-sweep"
    tags = [ASR, ES]

    def prepare(self, workdir: Path, seed: int, utterances: int) -> Inputs:
        rng = random.Random(f"study-sweep/{seed}")
        corpus = make_corpus(rng, utterances, self.tags, (0, 60), f"s{seed}")
        write_jsonl(workdir / "corpus.jsonl", corpus)
        write_json(workdir / "tags.json", {"v": 1, "tags": self.tags})
        write_json(
            workdir / "study.json",
            {
                "corpus": str(workdir / "corpus.jsonl"),
                "tags": str(workdir / "tags.json"),
                "methods": STUDY_METHODS,
                "replay": {"mode": "auto", "overhead_ms": STUDY_OVERHEAD_MS},
            },
        )
        nonempty = sum(1 for rec in corpus for ch in rec["channels"] if ch["words"])
        return Inputs(workdir, seed, utterances, words=corpus_words(corpus), expect={"nonempty_channels": nonempty})

    def stages(self, inp: Inputs) -> list[Stage]:
        d = inp.workdir
        return [Stage("study", ["study", "--config", str(d / "study.json"), "--output", str(d / "report.json")], d / "study.out")]

    def check(self, inp: Inputs) -> dict[str, str | None]:
        errors: dict[str, str | None] = {}
        report = inp.workdir / "report.json"
        _guard(errors, "study", lambda: check_study(inp.utterances, inp.expect, json.loads(report.read_text("utf-8"))))
        return errors


def check_study(utterances: int, expect: dict, report: dict) -> None:
    """Count-balance endpoints and grouping's latency cost.

    gamma 0 and 1 emit one channel whole and then the other, so each
    non-empty channel costs exactly one tag.  Grouping delays every word to
    its window boundary, on average half a window later; reordering inside
    a window takes back at most a few tokens' overhead.  So per-channel
    mean LAAL is at least the plain value and does not fall as the window
    grows.
    """
    methods = report["methods"]
    if report.get("utterances") != utterances or len(methods) != len(STUDY_METHODS):
        raise CheckFailed("study report covers the wrong utterances or methods")
    by = {}
    for spec, entry in zip(STUDY_METHODS, methods):
        if entry["method"] != spec:
            raise CheckFailed(f"study method {entry['method']!r}, expected {spec!r}")
        by[(spec["name"], spec.get("group_ms"), spec.get("gamma"))] = entry
    for g in (0.0, 1.0):
        got = by[("inter_gamma", None, g)]["total_switches"]
        if got != expect["nonempty_channels"]:
            raise CheckFailed(f"gamma {g}: {got} switches, expected {expect['nonempty_channels']}")
    previous = {ch["tag"]: ch["mean_laal_ms"] for ch in by[("inter_time", None, None)]["channels"]}
    for window in (250, 500, 1000):
        current = {ch["tag"]: ch["mean_laal_ms"] for ch in by[("inter_time", window, None)]["channels"]}
        if current.keys() != previous.keys():
            raise CheckFailed(f"grouped {window} ms reports other channels than plain inter_time")
        for tag, value in current.items():
            if value < previous[tag]:
                raise CheckFailed(f"{tag}: mean LAAL {value!r} at {window} ms is below {previous[tag]!r}")
        previous = current


# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """An output check found a wrong result."""


def _json_line(stdout: Path) -> dict:
    for line in stdout.read_text("utf-8").splitlines():
        if line.startswith("{"):
            return json.loads(line)
    raise CheckFailed(f"{stdout.name}: no JSON result on standard output")


def _guard(errors: dict, stage: str, check):
    """Run one check; record its failure against `stage` instead of raising."""
    try:
        result = check()
    except CheckFailed as exc:
        errors[stage] = str(exc)
        return None
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        errors[stage] = f"unreadable output: {type(exc).__name__}: {exc}"
        return None
    errors.setdefault(stage, None)
    return result


WORKLOADS = {w.name: w for w in (Pipeline3ch(), EvalLong(), StudySweep())}
