"""Serialization policies: flatten a multi-channel utterance into one token stream.

Three policies are provided:

* timestamp interleaving (:func:`inter_time`): merge all channels, sort by
  emission time, and emit a channel tag whenever the channel changes;
* time-step grouping (``inter_time(..., grouping=...)``): bucket timestamps
  into fixed windows (see :func:`assign_group`) and emit each window's words
  channel-contiguously, trading a bounded latency increase for fewer channel
  switches;
* count-ratio interleaving (:func:`inter_gamma`): a two-channel baseline that
  alternates streams according to a ratio parameter instead of timestamps.

Every policy preserves each channel's internal word order and emits every
input word exactly once.
"""

from __future__ import annotations

from itertools import repeat

from .model import (
    Channel,
    GroupingConfig,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    Utterance,
)

__all__ = [
    "assign_group",
    "inter_time",
    "inter_gamma",
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


def _emit(
    keyed: list[tuple[int, int, int, int, str]],
    tags: list[Tag],
    utt_id: str,
    method: SerializationMethod,
) -> SerializedSequence:
    """The sequence for ``(time, priority, rank, channel_index, word)`` keys in order.

    The tag ``tags[channel_index]`` opens every run of words whose tag
    surface differs from the previous word's; each word carries its time as
    origin time.
    """
    surfaces = [t.surface for t in tags]
    items: list[Tag | str] = []
    origin_times: list[int | None] = []
    prev: str | None = None
    for time, _, _, ci, word in keyed:
        if surfaces[ci] != prev:
            prev = surfaces[ci]
            items.append(tags[ci])
            origin_times.append(None)
        items.append(word)
        origin_times.append(time)
    return SerializedSequence._from_columns(utt_id, tuple(items), tuple(origin_times), method)


def inter_time(
    u: Utterance,
    grouping: GroupingConfig | None = None,
    tags: TagSet | None = None,
) -> SerializedSequence:
    """Timestamp-ordered serialization, optionally with time-step grouping.

    Words sort by time, then tag priority (declaration order of `tags`,
    falling back to the utterance's channel order; unknown tags last), then
    position in their channel, then channel index, so the merge is fully
    deterministic.  With grouping, each window of ``time // step_ms`` is
    re-emitted as one run per tag surface, in order of each surface's first
    appearance in the window; words keep their own time as origin_time.
    """
    channels = u.channels
    if tags is not None:
        priority = {t.surface: i for i, t in enumerate(tags.tags)}
    else:
        priority = {ch.tag.surface: i for i, ch in enumerate(channels)}
    unknown = len(priority)
    keyed: list[tuple[int, int, int, int, str]] = []
    for ci, ch in enumerate(channels):
        p = priority.get(ch.tag.surface, unknown)
        keyed += zip(ch.times, repeat(p), range(len(ch)), repeat(ci), ch.texts)
    keyed.sort()

    step = grouping.step_ms if grouping is not None else None
    if step is None:
        method = SerializationMethod("inter_time")
    else:
        method = SerializationMethod("inter_time", group_ms=step)
        surfaces = [ch.tag.surface for ch in channels]
        grouped: list[tuple[int, int, int, int, str]] = []
        runs: dict[str, list] = {}
        window = None
        for key in keyed:
            if key[0] // step != window:
                window = key[0] // step
                for run in runs.values():
                    grouped += run
                runs = {}
            runs.setdefault(surfaces[key[3]], []).append(key)
        for run in runs.values():
            grouped += run
        keyed = grouped
    return _emit(keyed, [ch.tag for ch in channels], u.utt_id, method)


def inter_gamma(
    asr: Channel,
    st: Channel,
    gamma: float,
    utt_id: str = "",
) -> SerializedSequence:
    """Two-channel count-ratio interleaving; `gamma` is a number in [0, 1].

    Maintains counts of words emitted so far on each stream; while both
    streams have words left, the next transcription word is emitted iff

        (1 - gamma) * (1 + st_emitted) >= gamma * (1 + asr_emitted)

    (ties favor transcription, so the stream opens with the first channel),
    otherwise the next translation word.  Once a stream is exhausted the
    remainder of the other follows.  Tags are inserted on channel switches
    exactly as in the timestamp policy.
    """
    method = SerializationMethod("inter_gamma", gamma=gamma)
    keyed: list[tuple[int, int, int, int, str]] = []
    n, m = len(asr), len(st)
    i = j = 0
    while i < n or j < m:
        if i < n and j < m:
            take_asr = (1.0 - gamma) * (1 + j) >= gamma * (1 + i)
        else:
            take_asr = i < n
        if take_asr:
            keyed.append((asr.times[i], 0, i, 0, asr.texts[i]))
            i += 1
        else:
            keyed.append((st.times[j], 0, j, 1, st.texts[j]))
            j += 1

    return _emit(keyed, [asr.tag, st.tag], utt_id, method)


def render_text(s: SerializedSequence) -> str:
    """Render a sequence as plain text: token surfaces joined by single spaces."""
    return " ".join([x.surface if isinstance(x, Tag) else x for x in s.items])


def serialize_utterance(
    u: Utterance,
    method: SerializationMethod,
    tags: TagSet | None = None,
) -> SerializedSequence:
    """Dispatch an utterance to the policy named by a method record.

    The record checked its own name and parameters when it was built.  For
    the count-ratio policy the utterance must have exactly two channels;
    when their modalities differ, the transcription channel takes the
    transcription role regardless of declaration order.
    """
    if method.name == "inter_time":
        return inter_time(u, grouping=GroupingConfig(step_ms=method.group_ms), tags=tags)
    if len(u.channels) != 2:
        raise ValueError(
            f"inter_gamma needs exactly two channels, utterance {u.utt_id!r} has {len(u.channels)}"
        )
    first, second = u.channels
    if first.tag.modality != second.tag.modality and second.tag.modality.value == "asr":
        first, second = second, first
    return inter_gamma(first, second, method.gamma, utt_id=u.utt_id)
