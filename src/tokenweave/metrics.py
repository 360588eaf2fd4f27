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
from bisect import bisect_left
from collections import Counter
from itertools import chain, repeat
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

from .kernels import edit_distance
from .model import (
    Diagnostic,
    EmissionTrace,
    Modality,
    SerializedSequence,
    Tag,
    Utterance,
)

__all__ = [
    "normalize_words",
    "wer",
    "bleu_corpus",
    "laal",
    "laal_report",
    "count_switches",
    "switch_reduction",
    "switch_report",
    "evaluate_corpus",
]

BLEU_MAX_ORDER = 4
_BLEU_STATS = 2 + 2 * BLEU_MAX_ORDER  # the length of a `_bleu_stats` list

# `string.punctuation`, written out: importing `string` would cost every stage that loads this module.
_PUNCT_TABLE = str.maketrans("", "", "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


def normalize_words(words: Iterable[str]) -> list[str]:
    """Lowercase and strip ASCII punctuation; drops words that empty out."""
    out = []
    for w in words:
        w = w.lower().translate(_PUNCT_TABLE)
        if w:
            out.append(w)
    return out


def wer(reference: Sequence[str], hypothesis: Sequence[str]) -> float:
    """Word error rate: edit distance over words divided by reference length.

    Raises ValueError on an empty reference (undefined denominator).
    """
    if not reference:
        raise ValueError("WER is undefined for an empty reference")
    return edit_distance(reference, hypothesis) / len(reference)


def _bleu_stats(reference: Sequence[str], hypothesis: Sequence[str]) -> list[int]:
    """BLEU sufficient statistics of one segment; a corpus's are their position-wise sum.

    ``[ref_len, hyp_len, matches_1..4, totals_1..4]``: per order n, the
    hypothesis's n-grams and their reference-clipped matches.  Each distinct
    word gets a dense id, and each n-gram one int in base (distinct words + 1),
    built from the codes of order n - 1.  When a hypothesis's n-grams are all
    distinct, each clips to 1 if the reference has it, so the matches are the
    size of a set intersection; otherwise they are counted.
    """
    hyp_len = len(hypothesis)
    stats = [len(reference), hyp_len] + [0] * (_BLEU_STATS - 2)
    ids: dict[str, int] = {}
    ref_ids = [ids.setdefault(w, len(ids)) for w in reference]
    hyp_ids = [ids.setdefault(w, len(ids)) for w in hypothesis]
    shift = (len(ids) + 1).__mul__
    ref, hyp = ref_ids, hyp_ids
    for n in range(1, min(hyp_len, BLEU_MAX_ORDER) + 1):
        if n > 1:
            ref = list(map(add, map(shift, ref), ref_ids[n - 1 :]))
            hyp = list(map(add, map(shift, hyp), hyp_ids[n - 1 :]))
        grams = set(hyp)
        if len(grams) == len(hyp):
            matches = len(grams.intersection(ref))
        else:
            ref_count = Counter(ref).get
            matches = 0
            for gram, c in Counter(hyp).items():
                r = ref_count(gram)
                if r:
                    matches += c if c < r else r
        stats[1 + n] = matches
        stats[1 + BLEU_MAX_ORDER + n] = len(hyp)
    return stats


def _bleu_from_stats(stats: Sequence[int], smoothing: bool = False) -> float:
    """Corpus BLEU, scaled to [0, 100], from summed `_bleu_stats`.

    Uniform weights over the pooled clipped precisions of orders 1..4, times
    the brevity penalty of the total lengths.  Orders the corpus is too short
    to produce (pooled total 0) are dropped from the mean, so identical short
    segments still score 100.  Any other zero precision zeroes the score,
    unless `smoothing` adds 1 to every count.
    """
    ref_len, hyp_len = stats[0], stats[1]
    if hyp_len == 0:
        return 0.0

    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_MAX_ORDER + 1):
        num, den = stats[1 + n], stats[1 + BLEU_MAX_ORDER + n]
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
    return _bleu_from_stats(list(map(sum, zip(*map(_bleu_stats, references, hypotheses)))), smoothing)


def laal(trace: EmissionTrace) -> float:
    """Length-adaptive average lagging of one emission trace, in ms.

    Delays are compared against an ideal policy that spreads the source
    duration uniformly over max(reference length, emitted length); averaging
    stops at the first token whose delay reaches the source duration (or at
    the last token if none does).  That token is found by bisection, which
    relies on the trace's constructor keeping delays non-decreasing.
    """
    delays = trace.delays
    h = len(delays)
    t_src = trace.source_duration_ms
    d_star = t_src / max(trace.ref_len, h)
    tau = min(bisect_left(delays, t_src) + 1, h)
    # The i-th term is delays[i] - i * d_star, the operands of the defining sum.
    return sum(map(sub, delays[:tau], map(mul, range(tau), repeat(d_star)))) / tau


def laal_report(traces: Iterable[EmissionTrace]) -> dict:
    """Mean LAAL per tag, in sorted tag order, and overall: the JSON report `laal` prints.

    Only the LAAL values are held.  A tag's are summed in trace order; the
    overall sum takes the tags in order of first appearance.
    """
    by_tag: dict[str, list[float]] = {}
    for tr in traces:
        by_tag.setdefault(tr.tag, []).append(laal(tr))
    all_vals = list(chain.from_iterable(by_tag.values()))
    return {
        "traces": len(all_vals),
        "channels": [
            {"tag": tag, "mean_laal_ms": sum(vals) / len(vals), "traces": len(vals)}
            for tag, vals in sorted(by_tag.items())
        ],
        "overall_mean_laal_ms": sum(all_vals) / len(all_vals) if all_vals else 0.0,
    }


def count_switches(s: SerializedSequence) -> int:
    """Number of tag tokens in a sequence (each one is a channel switch)."""
    return sum(map(isinstance, s.items, repeat(Tag)))


def switch_report(base: Iterable[SerializedSequence], variant: Iterable[SerializedSequence]) -> dict:
    """Tag-token counts of two serializations of a corpus and their relative drop: the JSON report `stats` prints.

    `base` is read whole before `variant`, holding one ``(utt_id, switches)``
    pair per sequence.  Requires the same utterance ids on both sides;
    raises when the base has no tags at all (undefined ratio).
    """
    base_counts = [(s.utt_id, count_switches(s)) for s in base]
    variant_counts = [(s.utt_id, count_switches(s)) for s in variant]
    if sorted(u for u, _ in base_counts) != sorted(u for u, _ in variant_counts):
        raise ValueError("base and variant corpora carry different utterance ids")
    base_total, variant_total = sum(n for _, n in base_counts), sum(n for _, n in variant_counts)
    if base_total == 0:
        raise ValueError("base corpus has zero tag tokens; reduction is undefined")
    return {
        "utterances": len(base_counts),
        "base_switches": base_total,
        "variant_switches": variant_total,
        "reduction": 1.0 - variant_total / base_total,
    }


def switch_reduction(base: Iterable[SerializedSequence], variant: Iterable[SerializedSequence]) -> float:
    """Relative drop in tag-token count between two serializations of a corpus: `switch_report`'s ``reduction``."""
    return switch_report(base, variant)["reduction"]


def evaluate_corpus(
    refs: Iterable[Utterance],
    hyps: Iterable[tuple[str, Mapping[str, Sequence[str]]]],
    diags: list[Diagnostic],
    normalize: bool = False,
) -> dict:
    """Score demultiplexed hypotheses against a reference corpus: the JSON report `eval` prints.

    `hyps` yields ``(utt_id, {tag: words})`` pairs (the demultiplexer's
    output, as :func:`~tokenweave.formats.read_channels` yields it, or a
    dict's ``.items()``).  Both inputs are read once, in lockstep: each
    reference pulls hypotheses until it meets its own, and those it passes
    wait for their reference.  In the same order, only the current record
    of each is held.  Utterance ids must be distinct on each side, as the
    readers leave them, and align exactly; the first reference without a
    hypothesis raises, and then the smallest hypothesis id that no
    reference has.  A non-empty hypothesis channel whose tag the
    utterance's reference lacks is an ``unscored-words`` diagnostic
    appended to `diags`.

    Transcription tags get pooled corpus WER, translation tags corpus BLEU;
    a tag must keep one modality across the references.  The report holds
    ``utterances``, one ``channels`` entry per tag in order of first
    appearance (``tag``, ``modality``, ``wer`` or ``bleu``, ``ref_words``,
    ``segments``), then ``overall_wer`` if some tag is a transcription and
    ``overall_bleu`` if some tag is a translation.
    """
    # Per tag: [modality, ref words, segments, edit distance or summed `_bleu_stats`].
    per_tag: dict[str, list] = {}
    hyps = iter(hyps)
    ahead: dict[str, Mapping[str, Sequence[str]]] = {}  # read past, waiting for their reference
    utterances = 0

    for u in refs:
        hyp_channels = ahead.pop(u.utt_id, None)
        while hyp_channels is None:
            utt_id, channels = next(hyps, (None, None))
            if utt_id is None:
                raise ValueError(f"missing hypothesis for utterance {u.utt_id!r}")
            if utt_id == u.utt_id:
                hyp_channels = channels
            else:
                ahead[utt_id] = channels
        utterances += 1
        for ch in u.channels:
            s, modality = ch.tag.surface, ch.tag.modality
            acc = per_tag.get(s)
            if acc is None:
                acc = per_tag[s] = [modality, 0, 0, 0 if modality is Modality.TRANSCRIPTION else [0] * _BLEU_STATS]
            elif acc[0] is not modality:
                raise ValueError(
                    f"tag {s!r} is {modality.value} in utterance {u.utt_id!r} but {acc[0].value} before it"
                )
            ref_words = ch.texts
            hyp_words = hyp_channels.get(s, ())
            if normalize:
                ref_words = normalize_words(ref_words)
                hyp_words = normalize_words(hyp_words)
            acc[1] += len(ref_words)
            acc[2] += 1
            if modality is Modality.TRANSCRIPTION:
                acc[3] += edit_distance(ref_words, hyp_words)
            else:
                acc[3] = list(map(add, acc[3], _bleu_stats(ref_words, hyp_words)))
        ref_tags = {ch.tag.surface for ch in u.channels}
        for s, words in hyp_channels.items():
            if words and s not in ref_tags:
                diags.append(
                    Diagnostic(
                        "unscored-words",
                        f"hypothesis channel {s!r} has no reference channel; its {len(words)} word(s) are not scored",
                        utt_id=u.utt_id,
                        tag=s,
                    )
                )
    # Of the hypotheses left over, only the smallest id is kept.
    extra = min(chain(ahead, (utt_id for utt_id, _ in hyps)), default=None)
    if extra is not None:
        raise ValueError(f"hypothesis for unknown utterance {extra!r}")

    channels = []
    total_dist = 0
    total_ref_words = 0
    bleu_stats = []
    for s, (modality, ref_words, segments, score) in per_tag.items():
        channel: dict = {"tag": s, "modality": modality.value}
        if modality is Modality.TRANSCRIPTION:
            if ref_words == 0:
                raise ValueError(f"transcription tag {s!r} has an empty reference corpus")
            channel["wer"] = score / ref_words
            total_dist += score
            total_ref_words += ref_words
        else:
            channel["bleu"] = _bleu_from_stats(score)
            bleu_stats.append(score)
        channel["ref_words"] = ref_words
        channel["segments"] = segments
        channels.append(channel)

    report: dict = {"utterances": utterances, "channels": channels}
    if total_ref_words:
        report["overall_wer"] = total_dist / total_ref_words
    if bleu_stats:
        report["overall_bleu"] = _bleu_from_stats(list(map(sum, zip(*bleu_stats))))
    return report
