"""Serialization: flatten a multi-channel utterance into one token stream.

One routine orders every policy's words: it keys each word, sorts by the
policy's key, groups the windows if asked, and emits a channel tag whenever
the tag surface changes:

* timestamp interleaving (``inter_time``): ``(time, priority, rank,
  channel_index)``;
* time-step grouping (``inter_time`` with ``group_ms``): the timestamp order,
  each window (see :func:`assign_group`) re-emitted as one run per tag
  surface, trading a bounded latency increase for fewer channel switches;
* count-ratio interleaving (``inter_gamma``, two channels): transcription
  word ``i`` at ``gamma * (1 + i)``, translation word ``j`` at
  ``(1 - gamma) * (1 + j)``, a tie going to the transcription word.

The routine orders one utterance for one or several methods, keying its
words once and sorting them by time once for all the ``inter_time`` methods:
:func:`serialize_utterance` and :func:`inter_time` call it for one method,
and ``study`` once per utterance for all of its methods.
Every policy keeps each channel's word order and emits every word exactly
once.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from .model import (
    GroupingConfig,
    Modality,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    Utterance,
    _rebuild,
)

__all__ = [
    "assign_group",
    "inter_time",
    "render_text",
    "serialize_utterance",
]


def assign_group(time: int, step_ms: int) -> int:
    """Upper boundary of the grouping window containing `time`.

    Windows are half-open: the boundary ``t_s`` is the unique multiple of
    `step_ms` with ``t_s - step_ms <= time < t_s``.
    """
    if step_ms < 1:
        raise ValueError(f"step_ms must be >= 1, got {step_ms}")
    if time < 0:
        raise ValueError(f"time must be >= 0, got {time}")
    return step_ms * (time // step_ms + 1)


def _ordered(channels, utt_id: str, methods, tags: TagSet | None = None) -> Iterator[SerializedSequence]:
    """The words of `channels` in the order of each of `methods`: one sequence per method, in order, each keeping its method.

    The ``(time, priority, rank, channel_index, word)`` entries are built once,
    a tag surface ranking by its position in `tags` (else in the channel
    order), one not in `tags` last.  ``inter_time`` sorts them once and, if
    grouped, buckets the sorted words by window and tag surface; each
    ``inter_gamma`` sorts a copy by the count-ratio key, the block of the
    channel in the transcription role first so that a tie goes to it: the
    transcription channel of two that differ in modality, else channel 0.
    A channel's tag opens each run of its surface, each word with its time
    as origin time: valid by construction from `Channel`s, so not checked
    again.

    Sequences are made one at a time as they are taken, each method checked
    just before its own, so a caller that uses each before taking the next
    meets the first error where a loop over the methods would.
    """
    tags_of = [ch.tag for ch in channels]
    surfaces = [t.surface for t in tags_of]
    if tags is not None:
        priority = {t.surface: i for i, t in enumerate(tags.tags)}
    else:
        priority = {s: i for i, s in enumerate(surfaces)}
    keyed: list[tuple[int, int, int, int, str]] = []
    for ci, ch in enumerate(channels):
        p = priority.get(surfaces[ci], len(priority))
        keyed += zip(ch.times, repeat(p), range(len(ch)), repeat(ci), ch.texts)
    timed = None
    for method in methods:
        if not isinstance(method, SerializationMethod):
            raise ValueError(f"method must be a SerializationMethod, got {type(method).__name__}")
        if method.name == "inter_gamma":
            if len(channels) != 2:
                raise ValueError(f"inter_gamma needs exactly two channels, utterance {utt_id!r} has {len(channels)}")
            first, second = tags_of
            swap = first.modality != second.modality and second.modality is Modality.TRANSCRIPTION
            weight = (1.0 - method.gamma, method.gamma) if swap else (method.gamma, 1.0 - method.gamma)
            cut = len(channels[0])
            order = sorted(keyed[cut:] + keyed[:cut] if swap else keyed, key=lambda e: weight[e[3]] * (1 + e[2]))
        else:
            if timed is None:
                timed = sorted(keyed)
            order = timed
            step = method.group_ms
            if step is not None:
                # Bucket `window * len(channels) + s`, s the first channel of the word's tag surface.
                first_of = [surfaces.index(s) for s in surfaces]
                buckets: dict[int, list] = {}
                for entry in order:
                    buckets.setdefault(entry[0] // step * len(first_of) + first_of[entry[3]], []).append(entry)
                order = [entry for bucket in buckets.values() for entry in bucket]
        items: list[Tag | str] = []
        origin_times: list[int | None] = []
        prev: str | None = None
        for time, _, _, ci, word in order:
            if surfaces[ci] != prev:
                prev = surfaces[ci]
                items.append(tags_of[ci])
                origin_times.append(None)
            items.append(word)
            origin_times.append(time)
        yield _rebuild(SerializedSequence, (utt_id, tuple(items), tuple(origin_times), method))


def inter_time(
    u: Utterance,
    grouping: GroupingConfig | None = None,
    tags: TagSet | None = None,
) -> SerializedSequence:
    """:func:`serialize_utterance` with ``inter_time``, grouped by `grouping` if given."""
    step = grouping.step_ms if grouping is not None else None
    return serialize_utterance(u, SerializationMethod("inter_time", group_ms=step), tags)


def render_text(s: SerializedSequence) -> str:
    """Render a sequence as plain text: token surfaces joined by single spaces."""
    return " ".join([x.surface if isinstance(x, Tag) else x for x in s.items])


def serialize_utterance(
    u: Utterance,
    method: SerializationMethod,
    tags: TagSet | None = None,
) -> SerializedSequence:
    """Serialize an utterance by the policy of `method`, which the sequence keeps as its method.

    ``inter_time`` sorts by time, then tag priority (declaration order of
    `tags`, else the utterance's channel order; unknown tags last), then
    position in the channel, then channel index.  With ``group_ms``, each
    window of ``time // group_ms`` is re-emitted as one run per tag surface,
    in order of each surface's first appearance; words keep their own time
    as origin time.  ``inter_gamma`` needs exactly two channels.  The
    transcription channel takes the transcription role when the two differ
    in modality; otherwise channel 0 does.  Its key orders words as
    emitting the next transcription word iff
    ``(1 - gamma) * (1 + st_emitted) >= gamma * (1 + asr_emitted)`` does.
    """
    (seq,) = _ordered(u.channels, u.utt_id, (method,), tags)
    return seq
