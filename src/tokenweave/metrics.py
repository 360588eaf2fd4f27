"""Quality and latency metrics: WER, corpus BLEU, lagging, switch counts.

Transcription channels are scored with word error rate, translation channels
with corpus-level BLEU (4-gram, uniform weights, brevity penalty, counts
pooled over the corpus).  Latency uses length-adaptive average lagging over
per-token emission delays.  Channel-switch statistics count tag tokens in
serialized streams and compare serialization variants.

All functions are pure; corpus evaluation reduces in a fixed order so
floating-point results are reproducible.
"""

from __future__ import annotations

import math
import string
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass

from .kernels import edit_distance
from .model import (
    Modality,
    SerializedSequence,
    Tag,
    Utterance,
)

__all__ = [
    "EmissionTrace",
    "ChannelMetrics",
    "MetricReport",
    "normalize_words",
    "wer",
    "bleu_corpus",
    "laal",
    "count_switches",
    "switch_reduction",
    "evaluate_corpus",
    "format_table",
]

BLEU_MAX_ORDER = 4

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


@dataclass(frozen=True, slots=True)
class EmissionTrace:
    """Per-token emission delays for one channel of one utterance.

    Attributes:
        utt_id: Utterance identifier.
        tag: Channel tag surface the delays belong to.
        entries: Ordered ``(token_ordinal, delay_ms)`` pairs, at least one;
            delays are measured from utterance start and must be
            non-decreasing.
        source_duration_ms: Length of the source audio, at least 1 ms.
        ref_len: Reference length of the channel (word count), non-negative.

    Every trace can be scored by :func:`laal`: construction also rejects
    times beyond the float range.
    """

    utt_id: str
    tag: str
    entries: tuple[tuple[int, int], ...]
    source_duration_ms: int
    ref_len: int

    def __post_init__(self) -> None:
        entries = tuple((int(o), int(d)) for o, d in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.ref_len < 0:
            raise ValueError(f"ref_len must be >= 0, got {self.ref_len}")
        prev = None
        for _, d in entries:
            if prev is not None and d < prev:
                raise ValueError(f"delays must be non-decreasing, got {d} after {prev}")
            prev = d
        if not entries:
            raise ValueError(f"empty trace for {self.utt_id!r}/{self.tag!r}")
        if self.source_duration_ms < 1:
            raise ValueError(f"source_duration_ms must be >= 1, got {self.source_duration_ms}")
        # Delays are non-decreasing, so the first and last bound them all.
        if max(self.source_duration_ms, -entries[0][1], entries[-1][1]) > sys.float_info.max:
            raise ValueError(f"times beyond {sys.float_info.max:g} ms cannot be scored")

    @property
    def hyp_len(self) -> int:
        return len(self.entries)

    @property
    def delays(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.entries)


def normalize_words(words: list[str]) -> list[str]:
    """Lowercase and strip ASCII punctuation; drops words that empty out."""
    out = []
    for w in words:
        w = w.lower().translate(_PUNCT_TABLE)
        if w:
            out.append(w)
    return out


def wer(reference: list[str], hypothesis: list[str], normalize: bool = False) -> float:
    """Word error rate: edit distance over words divided by reference length.

    Raises ValueError on an empty reference (undefined denominator).
    """
    if normalize:
        reference = normalize_words(reference)
        hypothesis = normalize_words(hypothesis)
    if not reference:
        raise ValueError("WER is undefined for an empty reference")
    return edit_distance(reference, hypothesis) / len(reference)


def _bleu_stats(reference: list[str], hypothesis: list[str]) -> Counter:
    """BLEU sufficient statistics of one segment; a corpus's are their sum.

    ``"ref_len"``, ``"hyp_len"`` and, per order n, the hypothesis n-grams
    ``("totals", n)`` and their reference-clipped matches ``("matches", n)``.
    """
    stats = Counter(ref_len=len(reference), hyp_len=len(hypothesis))
    for n in range(1, min(len(hypothesis), BLEU_MAX_ORDER) + 1):
        ref_count = Counter(zip(*(reference[i:] for i in range(n)))).get
        matches = 0
        for gram, c in Counter(zip(*(hypothesis[i:] for i in range(n)))).items():
            r = ref_count(gram)
            if r:
                matches += c if c < r else r
        stats["matches", n] = matches
        stats["totals", n] = len(hypothesis) - n + 1
    return stats


def _bleu_from_stats(stats: Counter, smoothing: bool = False) -> float:
    """Corpus BLEU, scaled to [0, 100], from summed `_bleu_stats`.

    Uniform weights over the pooled clipped precisions of orders 1..4, times
    the brevity penalty of the total lengths.  Orders the corpus is too short
    to produce (pooled total 0) are dropped from the mean, so identical short
    segments still score 100.  Any other zero precision zeroes the score,
    unless `smoothing` adds 1 to every count.
    """
    ref_len, hyp_len = stats["ref_len"], stats["hyp_len"]
    if hyp_len == 0:
        return 0.0

    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_MAX_ORDER + 1):
        num, den = stats["matches", n], stats["totals", n]
        if smoothing:
            num, den = num + 1, den + 1
        if den == 0:
            continue
        if num == 0:
            return 0.0
        log_sum += math.log(num / den)
        orders += 1
    if orders == 0:
        return 0.0

    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def bleu_corpus(
    references: list[list[str]],
    hypotheses: list[list[str]],
    smoothing: bool = False,
) -> float:
    """Corpus BLEU on pre-tokenized segments: `_bleu_from_stats` of their sum."""
    if len(references) != len(hypotheses):
        raise ValueError(f"got {len(references)} references but {len(hypotheses)} hypotheses")
    if not references:
        raise ValueError("BLEU needs at least one segment")
    return _bleu_from_stats(sum(map(_bleu_stats, references, hypotheses), Counter()), smoothing)


def laal(trace: EmissionTrace) -> float:
    """Length-adaptive average lagging of one emission trace, in ms.

    Delays are compared against an ideal policy that spreads the source
    duration uniformly over max(reference length, emitted length); averaging
    stops at the first token whose delay reaches the source duration (or at
    the last token if none does).
    """
    h = trace.hyp_len
    t_src = trace.source_duration_ms
    d_star = t_src / max(trace.ref_len, h)
    delays = trace.delays
    tau = h
    for i, d in enumerate(delays, start=1):
        if d >= t_src:
            tau = i
            break
    return sum(delays[i - 1] - (i - 1) * d_star for i in range(1, tau + 1)) / tau


def count_switches(s: SerializedSequence) -> int:
    """Number of tag tokens in a sequence (each one is a channel switch)."""
    return sum(isinstance(x, Tag) for x in s.items)


def switch_reduction(
    base: list[SerializedSequence],
    variant: list[SerializedSequence],
) -> float:
    """Relative drop in tag-token count between two serializations of a corpus.

    Requires the same utterance ids on both sides; raises when the base has
    no tags at all (undefined ratio).
    """
    return _switch_reduction(
        [(s.utt_id, count_switches(s)) for s in base],
        [(s.utt_id, count_switches(s)) for s in variant],
    )


def _switch_reduction(base: list[tuple[str, int]], variant: list[tuple[str, int]]) -> float:
    """`switch_reduction` of ``(utt_id, switch count)`` pairs counted once by the caller."""
    if sorted(u for u, _ in base) != sorted(u for u, _ in variant):
        raise ValueError("base and variant corpora carry different utterance ids")
    base_total = sum(n for _, n in base)
    variant_total = sum(n for _, n in variant)
    if base_total == 0:
        raise ValueError("base corpus has zero tag tokens; reduction is undefined")
    return 1.0 - variant_total / base_total


@dataclass(frozen=True, slots=True)
class ChannelMetrics:
    """Scores for one channel tag across a corpus."""

    tag: str
    modality: Modality
    wer: float | None = None
    bleu: float | None = None
    mean_laal_ms: float | None = None
    ref_words: int = 0
    segments: int = 0

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag, "modality": self.modality.value}
        if self.wer is not None:
            out["wer"] = self.wer
        if self.bleu is not None:
            out["bleu"] = self.bleu
        if self.mean_laal_ms is not None:
            out["mean_laal_ms"] = self.mean_laal_ms
        out["ref_words"] = self.ref_words
        out["segments"] = self.segments
        return out


@dataclass(frozen=True, slots=True)
class MetricReport:
    """Per-channel scores plus corpus-level aggregates."""

    channels: tuple[ChannelMetrics, ...]
    overall_wer: float | None = None
    overall_bleu: float | None = None
    mean_laal_ms: float | None = None
    utterances: int = 0

    def to_json(self) -> dict:
        out: dict = {
            "utterances": self.utterances,
            "channels": [c.to_json() for c in self.channels],
        }
        if self.overall_wer is not None:
            out["overall_wer"] = self.overall_wer
        if self.overall_bleu is not None:
            out["overall_bleu"] = self.overall_bleu
        if self.mean_laal_ms is not None:
            out["mean_laal_ms"] = self.mean_laal_ms
        return out

    def to_table(self) -> str:
        rows = []
        for c in self.channels:
            rows.append(
                [
                    c.tag,
                    c.modality.value,
                    "" if c.wer is None else f"{c.wer:.4f}",
                    "" if c.bleu is None else f"{c.bleu:.2f}",
                    "" if c.mean_laal_ms is None else f"{c.mean_laal_ms:.1f}",
                    str(c.segments),
                ]
            )
        overall = [
            "(all)",
            "",
            "" if self.overall_wer is None else f"{self.overall_wer:.4f}",
            "" if self.overall_bleu is None else f"{self.overall_bleu:.2f}",
            "" if self.mean_laal_ms is None else f"{self.mean_laal_ms:.1f}",
            str(self.utterances),
        ]
        return format_table(
            ["tag", "modality", "WER", "BLEU", "LAAL(ms)", "n"], rows + [overall]
        )


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned plain-text table with a dashed header rule."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def evaluate_corpus(
    refs: list[Utterance],
    hyps: dict[str, dict[str, list[str]]],
    traces: list[EmissionTrace] | None = None,
    normalize: bool = False,
) -> MetricReport:
    """Score demultiplexed hypotheses against a reference corpus.

    `hyps` maps utterance id to per-tag word lists (the demultiplexer's
    output shape).  Transcription tags get pooled corpus WER, translation
    tags corpus BLEU; when `traces` are supplied each tag also gets its mean
    lagging.  Utterance ids must align exactly; mismatches raise with the
    offending id.
    """
    ref_ids = [u.utt_id for u in refs]
    for u in refs:
        if u.utt_id not in hyps:
            raise ValueError(f"missing hypothesis for utterance {u.utt_id!r}")
    extra = set(hyps) - set(ref_ids)
    if extra:
        raise ValueError(f"hypothesis for unknown utterance {sorted(extra)[0]!r}")

    # Tag surfaces in first-appearance order across the reference corpus.
    tag_order: dict[str, Modality] = {}
    for u in refs:
        for ch in u.channels:
            tag_order.setdefault(ch.tag.surface, ch.tag.modality)

    per_tag_dist: dict[str, int] = {s: 0 for s in tag_order}
    per_tag_ref_words: dict[str, int] = {s: 0 for s in tag_order}
    per_tag_bleu: defaultdict[str, Counter] = defaultdict(Counter)
    per_tag_segments: dict[str, int] = {s: 0 for s in tag_order}

    for u in refs:
        hyp_channels = hyps[u.utt_id]
        for ch in u.channels:
            s = ch.tag.surface
            ref_words = list(ch.texts)
            hyp_words = list(hyp_channels.get(s, []))
            if normalize:
                ref_words = normalize_words(ref_words)
                hyp_words = normalize_words(hyp_words)
            per_tag_segments[s] += 1
            per_tag_ref_words[s] += len(ref_words)
            if ch.tag.modality is Modality.TRANSCRIPTION:
                per_tag_dist[s] += edit_distance(ref_words, hyp_words)
            else:
                per_tag_bleu[s] += _bleu_stats(ref_words, hyp_words)

    laal_by_tag: dict[str, list[float]] = {}
    if traces:
        for tr in traces:
            laal_by_tag.setdefault(tr.tag, []).append(laal(tr))

    channels = []
    total_dist = 0
    total_ref_words = 0
    for s, modality in tag_order.items():
        tag_wer = tag_bleu = None
        if modality is Modality.TRANSCRIPTION:
            if per_tag_ref_words[s] == 0:
                raise ValueError(f"transcription tag {s!r} has an empty reference corpus")
            tag_wer = per_tag_dist[s] / per_tag_ref_words[s]
            total_dist += per_tag_dist[s]
            total_ref_words += per_tag_ref_words[s]
        else:
            tag_bleu = _bleu_from_stats(per_tag_bleu[s])
        tag_laal = laal_by_tag.get(s)
        channels.append(
            ChannelMetrics(
                tag=s,
                modality=modality,
                wer=tag_wer,
                bleu=tag_bleu,
                mean_laal_ms=sum(tag_laal) / len(tag_laal) if tag_laal else None,
                ref_words=per_tag_ref_words[s],
                segments=per_tag_segments[s],
            )
        )

    all_laal = [v for vals in laal_by_tag.values() for v in vals]
    return MetricReport(
        channels=tuple(channels),
        overall_wer=total_dist / total_ref_words if total_ref_words else None,
        overall_bleu=_bleu_from_stats(sum(per_tag_bleu.values(), Counter())) if per_tag_bleu else None,
        mean_laal_ms=sum(all_laal) / len(all_laal) if all_laal else None,
        utterances=len(refs),
    )
