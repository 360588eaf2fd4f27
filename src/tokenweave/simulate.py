"""Synthetic corpora and idealized replay of serialized streams.

Real timestamps come from streaming models; for testing and latency studies
this module substitutes a seeded generator: transcription channels advance by
random inter-word gaps, translation channels follow a transcription anchor
with a random lag, locally jittered inside a reordering window and re-sorted
so channels stay monotone.

Replay turns a serialized sequence back into per-channel emission traces by
charging each word its carried timestamp (or its grouping-window boundary)
plus an optional fixed per-token decoding overhead.  It is an idealized
emission model of the serialization policy itself, not of any decoder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .formats import _check_version, _expect_int_pair, _expect_json, _tags_from_json, _tags_to_json
from .metrics import EmissionTrace, count_switches, laal
from .model import (
    Channel,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    Utterance,
)
from .serialize import assign_group, serialize_utterance

__all__ = [
    "SynthConfig",
    "ReplayPolicy",
    "synth_corpus",
    "replay",
    "latency_study",
    "method_label",
    "synth_config_to_json",
    "synth_config_from_json",
    "replay_policy_from_json",
]


def _check_range(r: tuple[int, int], what: str) -> tuple[int, int]:
    lo, hi = int(r[0]), int(r[1])
    if lo < 0 or hi < lo:
        raise ValueError(f"{what} must be a non-empty non-negative range, got {r!r}")
    return (lo, hi)


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Deterministic corpus generator settings.

    Attributes:
        seed: RNG seed; identical configs produce byte-identical corpora.
        num_utterances: Corpus size.
        words_per_channel: Inclusive range of words drawn per channel.
        word_rate_ms: Inclusive range of inter-word gaps on transcription
            channels (ms per word).
        translation_lag_ms: Inclusive range of the offset a translation word
            trails its transcription anchor by.
        reorder_window_ms: Half-width of the jitter applied to translation
            times before re-sorting; 0 keeps them anchor-ordered.
        channels: Channel plan (tags with modality and language).
        vocab_size: Number of distinct word surfaces to draw from.
    """

    seed: int
    num_utterances: int
    words_per_channel: tuple[int, int]
    word_rate_ms: tuple[int, int]
    translation_lag_ms: tuple[int, int]
    reorder_window_ms: int
    channels: tuple[Tag, ...]
    vocab_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "words_per_channel", _check_range(self.words_per_channel, "words_per_channel"))
        object.__setattr__(self, "word_rate_ms", _check_range(self.word_rate_ms, "word_rate_ms"))
        object.__setattr__(self, "translation_lag_ms", _check_range(self.translation_lag_ms, "translation_lag_ms"))
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.word_rate_ms[1] < 1:
            raise ValueError("word_rate_ms upper bound must be >= 1")
        if self.reorder_window_ms < 0:
            raise ValueError(f"reorder_window_ms must be >= 0, got {self.reorder_window_ms}")
        if self.num_utterances < 0:
            raise ValueError(f"num_utterances must be >= 0, got {self.num_utterances}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if not self.channels:
            raise ValueError("channel plan is empty")
        # Reuse TagSet validation for surface uniqueness.
        TagSet(self.channels)

    def tag_set(self) -> TagSet:
        return TagSet(self.channels)


def synth_config_to_json(c: SynthConfig) -> dict:
    return {
        "v": 1,
        "seed": c.seed,
        "num_utterances": c.num_utterances,
        "words_per_channel": list(c.words_per_channel),
        "word_rate_ms": list(c.word_rate_ms),
        "translation_lag_ms": list(c.translation_lag_ms),
        "reorder_window_ms": c.reorder_window_ms,
        "vocab_size": c.vocab_size,
        "channels": _tags_to_json(c.channels),
    }


def synth_config_from_json(obj: dict) -> SynthConfig:
    """Parse a generator config; a field of the wrong JSON type is a ValueError naming it."""
    _check_version(obj)
    channels = _tags_from_json(obj["channels"], "channels")
    return SynthConfig(
        seed=_expect_json(obj["seed"], "seed", int),
        num_utterances=_expect_json(obj["num_utterances"], "num_utterances", int),
        words_per_channel=_expect_int_pair(obj["words_per_channel"], "words_per_channel", "[low, high]"),
        word_rate_ms=_expect_int_pair(obj["word_rate_ms"], "word_rate_ms", "[low, high]"),
        translation_lag_ms=_expect_int_pair(obj["translation_lag_ms"], "translation_lag_ms", "[low, high]"),
        reorder_window_ms=_expect_json(obj["reorder_window_ms"], "reorder_window_ms", int),
        channels=channels,
        vocab_size=_expect_json(obj["vocab_size"], "vocab_size", int),
    )


def replay_policy_from_json(obj: dict) -> ReplayPolicy:
    return ReplayPolicy(
        mode=obj.get("mode", "auto"),
        overhead_ms=_expect_json(obj.get("overhead_ms", 0), "overhead_ms", int),
    )


def _gen_monotone_times(rng: random.Random, n: int, rate: tuple[int, int]) -> list[int]:
    times = []
    t = 0
    for _ in range(n):
        t += rng.randint(max(1, rate[0]), max(1, rate[1]))
        times.append(t)
    return times


def synth_corpus(config: SynthConfig) -> list[Utterance]:
    """Generate a corpus that always passes utterance validation.

    Transcription channels are monotone by construction; translation times
    are derived from the first transcription channel (anchor), shifted by a
    lag, jittered within the reordering window, and re-sorted ascending so
    the channel stays a monotone emission trace.
    """
    rng = random.Random(config.seed)
    anchor_tag = next(
        (t for t in config.channels if t.modality.value == "asr"), None
    )

    corpus: list[Utterance] = []
    for idx in range(config.num_utterances):
        counts = {t.surface: rng.randint(*config.words_per_channel) for t in config.channels}
        times_by_tag: dict[str, list[int]] = {}

        for tag in config.channels:
            if tag.modality.value == "asr" or anchor_tag is None:
                times_by_tag[tag.surface] = _gen_monotone_times(
                    rng, counts[tag.surface], config.word_rate_ms
                )
        anchor_times = times_by_tag.get(anchor_tag.surface, []) if anchor_tag else []

        for tag in config.channels:
            if tag.surface in times_by_tag:
                continue
            n = counts[tag.surface]
            times = []
            m = len(anchor_times)
            for k in range(n):
                base = anchor_times[min(k * m // n, m - 1)] if m else 0
                t = base + rng.randint(*config.translation_lag_ms)
                if config.reorder_window_ms:
                    t += rng.randint(-config.reorder_window_ms, config.reorder_window_ms)
                times.append(max(0, t))
            times.sort()
            times_by_tag[tag.surface] = times

        channels = []
        for tag in config.channels:
            times = tuple(times_by_tag[tag.surface])
            texts = tuple([f"w{rng.randrange(config.vocab_size)}" for _ in times])
            channels.append(Channel._from_columns(tag, times, texts))

        asr_times = [
            t
            for tag in config.channels
            if tag.modality.value == "asr"
            for t in times_by_tag[tag.surface]
        ]
        span = max(asr_times, default=0) or max(
            (t for ts in times_by_tag.values() for t in ts), default=0
        )
        duration = max(1, span + config.word_rate_ms[1])
        corpus.append(
            Utterance(
                utt_id=f"s{config.seed}-u{idx:05d}",
                duration_ms=duration,
                channels=tuple(channels),
            )
        )
    return corpus


@dataclass(frozen=True, slots=True)
class ReplayPolicy:
    """How replay assigns emission delays.

    mode "origin_time" charges each word its carried timestamp;
    "group_boundary" charges the grouping-window boundary instead (only
    valid for grouped sequences); "auto" picks the boundary when the
    sequence was grouped and the origin time otherwise.  overhead_ms adds a
    fixed cost per emitted token (tags included), default 0.
    """

    mode: str = "auto"
    overhead_ms: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("origin_time", "group_boundary", "auto"):
            raise ValueError(f"unknown replay mode {self.mode!r}")
        if self.overhead_ms < 0:
            raise ValueError(f"overhead_ms must be >= 0, got {self.overhead_ms}")


def replay(
    s: SerializedSequence,
    policy: ReplayPolicy,
    source_duration_ms: int | None = None,
) -> dict[str, EmissionTrace]:
    """Produce one emission trace per channel of a serialized sequence.

    Every word token must carry an origin timestamp.  The returned traces
    use the word's routed channel (tag tokens themselves consume a token
    ordinal but never appear in traces) and set ref_len to the channel's
    emitted word count.  `source_duration_ms` defaults to the latest delay
    in the sequence (floored at 1) when the source duration is unknown.
    """
    mode = policy.mode
    if mode == "auto":
        mode = "group_boundary" if s.method.group_ms else "origin_time"
    if mode == "group_boundary" and not s.method.group_ms:
        raise ValueError(f"sequence {s.utt_id!r} was not grouped; no boundary to replay")
    step = s.method.group_ms
    grouped = mode == "group_boundary"
    overhead = policy.overhead_ms

    # A valid sequence opens with a tag, so `current` is bound before any word.
    delays: dict[str, list[tuple[int, int]]] = {}
    for ordinal, (item, origin) in enumerate(zip(s.items, s.origin_times)):
        if isinstance(item, Tag):
            current = delays.setdefault(item.surface, [])
            continue
        if origin is None:
            raise ValueError(
                f"word {item!r} in {s.utt_id!r} has no origin time; cannot replay"
            )
        base = assign_group(origin, step) if grouped else origin
        current.append((ordinal, base + overhead * ordinal))

    if source_duration_ms is None:
        latest = max((d for ds in delays.values() for _, d in ds), default=0)
        source_duration_ms = max(1, latest)

    return {
        surface: EmissionTrace(
            utt_id=s.utt_id,
            tag=surface,
            entries=tuple(entries),
            source_duration_ms=source_duration_ms,
            ref_len=len(entries),
        )
        for surface, entries in delays.items()
        if entries
    }


def method_label(m: SerializationMethod) -> str:
    if m.name == "inter_gamma":
        return f"inter_gamma({m.gamma:g})"
    if m.group_ms:
        return f"inter_time+{m.group_ms}ms"
    return "inter_time"


def latency_study(
    corpus: list[Utterance],
    methods: list[SerializationMethod],
    policy: ReplayPolicy,
    tags: TagSet | None = None,
) -> dict:
    """Compare serialization methods on one corpus: mean lagging and switches.

    Each utterance is serialized with every method, replayed under `policy`
    with the utterance's own duration, and scored with per-channel lagging.
    Aggregation order is fixed, so the report is deterministic.
    """
    report: dict = {"utterances": len(corpus), "replay": {"mode": policy.mode, "overhead_ms": policy.overhead_ms}, "methods": []}
    for method in methods:
        switch_total = 0
        laal_by_tag: dict[str, list[float]] = {}
        for u in corpus:
            seq = serialize_utterance(u, method, tags)
            switch_total += count_switches(seq)
            traces = replay(seq, policy, source_duration_ms=u.duration_ms)
            for surface, trace in traces.items():
                laal_by_tag.setdefault(surface, []).append(laal(trace))
        entry = {
            "method": method.to_json(),
            "label": method_label(method),
            "mean_switches": switch_total / len(corpus) if corpus else 0.0,
            "total_switches": switch_total,
            "channels": [
                {"tag": surface, "mean_laal_ms": sum(vals) / len(vals), "utterances": len(vals)}
                for surface, vals in sorted(laal_by_tag.items())
            ],
        }
        report["methods"].append(entry)
    return report
