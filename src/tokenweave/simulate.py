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
from itertools import accumulate, chain
from typing import Iterable, Iterator

from .formats import SCHEMA_VERSION, _check_version, _tags_from_json, _tags_to_json
from .metrics import laal
from .model import (
    Channel,
    EmissionTrace,
    Modality,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    Utterance,
    _check_int,
    _check_list,
    _check_pair,
    _json_object,
    _Record,
    _set,
)
from .serialize import _ordered, assign_group

__all__ = [
    "SynthConfig",
    "ReplayPolicy",
    "synth_corpus",
    "replay",
    "latency_study",
    "method_label",
]


def _check_range(r, what: str) -> tuple[int, int]:
    lo, hi = pair = _check_pair(r, what, "[low, high]")
    if lo < 0 or hi < lo:
        raise ValueError(f"{what} must be a non-empty non-negative range, got {pair!r}")
    return pair


class SynthConfig(_Record):
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
        vocab_size: Number of distinct word surfaces to draw from.
        channels: Channel plan (tags with modality and language).

    Every number must be an int (not a bool), every range a list or tuple of
    two, and `channels` a list or tuple; nothing is coerced.  The constructor
    checks them, with the JSON reader's messages.  The JSON form holds these
    fields, in order, after ``"v": 1``.
    """

    __slots__ = (
        "seed", "num_utterances", "words_per_channel", "word_rate_ms",
        "translation_lag_ms", "reorder_window_ms", "vocab_size", "channels",
    )

    def __init__(
        self, seed, num_utterances, words_per_channel, word_rate_ms,
        translation_lag_ms, reorder_window_ms, channels, vocab_size,
    ) -> None:
        _set(self, "seed", _check_int(seed, "seed"))
        _set(self, "words_per_channel", _check_range(words_per_channel, "words_per_channel"))
        _set(self, "word_rate_ms", _check_range(word_rate_ms, "word_rate_ms"))
        _set(self, "translation_lag_ms", _check_range(translation_lag_ms, "translation_lag_ms"))
        _set(self, "channels", tuple(_check_list(channels, "channels")))
        if self.word_rate_ms[1] < 1:
            raise ValueError("word_rate_ms upper bound must be >= 1")
        _set(self, "reorder_window_ms", _check_int(reorder_window_ms, "reorder_window_ms", 0))
        _set(self, "num_utterances", _check_int(num_utterances, "num_utterances", 0))
        _set(self, "vocab_size", _check_int(vocab_size, "vocab_size", 1))
        if not self.channels:
            raise ValueError("channel plan is empty")
        # Reuse TagSet validation for surface uniqueness.
        TagSet(self.channels)

    def to_json(self) -> dict:
        return {"v": SCHEMA_VERSION, **super().to_json(), "channels": _tags_to_json(self.channels)}

    @classmethod
    def from_json(cls, obj, what: str = "config") -> "SynthConfig":
        """A generator config from its JSON object; an unknown field is a ValueError naming `what`, and the constructor checks the rest."""
        _check_version(_json_object(obj, ("v", *cls._fields), what))
        fields = {name: obj[name] for name in cls._fields}
        fields["channels"] = _tags_from_json(fields["channels"], "channels")
        return cls(**fields)


def synth_corpus(config: SynthConfig) -> Iterator[Utterance]:
    """Yield, one at a time, the utterances of a corpus that always passes utterance validation.

    The lead channels (the transcriptions, or every channel when none is one)
    advance by random gaps, so they are monotone by construction.  Each other
    channel's word k of n follows word min(k*m//n, m-1) of the first lead
    channel's m, shifted by a lag, jittered within the reordering window, and
    re-sorted ascending so the channel stays a monotone emission trace.
    """
    rng = random.Random(config.seed)
    lead = [t.modality is Modality.TRANSCRIPTION for t in config.channels]
    if not any(lead):
        lead = [True] * len(lead)
    rate = max(1, config.word_rate_ms[0]), config.word_rate_ms[1]
    lag, window = config.translation_lag_ms, config.reorder_window_ms

    for idx in range(config.num_utterances):
        counts = [rng.randint(*config.words_per_channel) for _ in lead]
        times = [
            list(accumulate(rng.randint(*rate) for _ in range(n))) if is_lead else []
            for n, is_lead in zip(counts, lead)
        ]
        # An empty anchor reads as a single word at 0.
        anchor = times[lead.index(True)] or [0]
        m = len(anchor)
        for n, ts, is_lead in zip(counts, times, lead):
            if not is_lead:
                for k in range(n):
                    t = anchor[min(k * m // n, m - 1)] + rng.randint(*lag)
                    if window:
                        t += rng.randint(-window, window)
                    ts.append(max(0, t))
                ts.sort()
        channels = tuple(
            Channel._from_columns(tag, tuple(ts), tuple([f"w{rng.randrange(config.vocab_size)}" for _ in ts]))
            for tag, ts in zip(config.channels, times)
        )
        # Every list is ascending, so its last time is its latest.
        latest = [ts[-1] if ts else 0 for ts in times]
        span = max(t for t, is_lead in zip(latest, lead) if is_lead) or max(latest)
        yield Utterance(
            utt_id=f"s{config.seed}-u{idx:05d}",
            duration_ms=max(1, span + config.word_rate_ms[1]),
            channels=channels,
        )


class ReplayPolicy(_Record):
    """How replay assigns emission delays.

    mode "origin_time" charges each word its carried timestamp;
    "group_boundary" charges the grouping-window boundary instead (only
    valid for grouped sequences); "auto" picks the boundary when the
    sequence was grouped and the origin time otherwise.  overhead_ms, an
    int, adds a fixed cost per emitted token (tags included), default 0.
    """

    __slots__ = ("mode", "overhead_ms")

    def __init__(self, mode: str = "auto", overhead_ms: int = 0) -> None:
        if mode not in ("origin_time", "group_boundary", "auto"):
            raise ValueError(f"unknown replay mode {mode!r}")
        _set(self, "mode", mode)
        _set(self, "overhead_ms", _check_int(overhead_ms, "overhead_ms", 0))

    @classmethod
    def from_json(cls, obj, what: str = "replay") -> "ReplayPolicy":
        """A policy from its JSON object, absent fields at their defaults; an unknown field is a ValueError naming `what`, and the constructor checks the rest."""
        return cls(**_json_object(obj, cls._fields, what))


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

    # A valid sequence opens with a tag, so the columns are bound before any word.
    columns: dict[str, tuple[list[int], list[int]]] = {}
    for ordinal, (item, origin) in enumerate(zip(s.items, s.origin_times)):
        if origin is None:
            if not isinstance(item, Tag):
                raise ValueError(f"word {item!r} in {s.utt_id!r} has no origin time; cannot replay")
            ordinals, delays = columns.setdefault(item.surface, ([], []))
            continue
        ordinals.append(ordinal)
        delays.append((assign_group(origin, step) if grouped else origin) + overhead * ordinal)

    if source_duration_ms is None:
        source_duration_ms = max(1, max(chain.from_iterable(d for _, d in columns.values()), default=0))

    return {
        surface: EmissionTrace._from_columns(
            s.utt_id, surface, tuple(ordinals), tuple(delays), source_duration_ms, len(delays)
        )
        for surface, (ordinals, delays) in columns.items()
        if delays
    }


def method_label(m: SerializationMethod) -> str:
    if m.name == "inter_gamma":
        return f"inter_gamma({m.gamma:g})"
    if m.group_ms:
        return f"inter_time+{m.group_ms}ms"
    return "inter_time"


def latency_study(
    corpus: Iterable[Utterance],
    methods: list[SerializationMethod],
    policy: ReplayPolicy,
    tags: TagSet | None = None,
) -> dict:
    """Compare serialization methods on one corpus: mean lagging and switches.

    One pass over `corpus`: each utterance is ordered once for every method,
    each sequence replayed under `policy` with the utterance's own duration,
    and scored with per-channel lagging.  Only the per-method, per-tag LAAL
    values are held, and they are summed in corpus order, so the report is
    deterministic.
    """
    switches = [0] * len(methods)
    laals: list[dict[str, list[float]]] = [{} for _ in methods]
    utterances = 0
    for utterances, u in enumerate(corpus, start=1):
        words = sum(map(len, u.channels))
        for i, seq in enumerate(_ordered(u.channels, u.utt_id, methods, tags)):
            # Every policy emits each word once, so the rest are tags.
            switches[i] += len(seq) - words
            for surface, trace in replay(seq, policy, source_duration_ms=u.duration_ms).items():
                laals[i].setdefault(surface, []).append(laal(trace))
    entries = [
        {
            "method": method.to_json(),
            "label": method_label(method),
            "mean_switches": total / utterances if utterances else 0.0,
            "total_switches": total,
            "channels": [
                {"tag": surface, "mean_laal_ms": sum(vals) / len(vals), "utterances": len(vals)}
                for surface, vals in sorted(laal_by_tag.items())
            ],
        }
        for method, total, laal_by_tag in zip(methods, switches, laals)
    ]
    return {"utterances": utterances, "replay": policy.to_json(), "methods": entries}
