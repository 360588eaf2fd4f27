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

:func:`serialize_utterance`, :func:`inter_time` and :func:`inter_gamma` all
call it.  Every policy keeps each channel's word order and emits every word
exactly once.
"""

from __future__ import annotations

from itertools import repeat

from .model import (
    Channel,
    GroupingConfig,
    Modality,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    Utterance,
    _check_str,
    _rebuild,
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


def _check_input(channels, utt_id, method) -> None:
    """A ValueError unless `method` is a SerializationMethod, `utt_id` a string and each channel a Channel: what :func:`_ordered` trusts."""
    if not isinstance(method, SerializationMethod):
        raise ValueError(f"method must be a SerializationMethod, got {type(method).__name__}")
    _check_str(utt_id, "utt_id")
    if not all(isinstance(ch, Channel) for ch in channels):
        raise ValueError(f"every channel must be a Channel, got {channels!r}")


def _ordered(channels, utt_id: str, method: SerializationMethod, priority: dict[str, int]) -> SerializedSequence:
    """The words of `channels` in the order of `method`, as a sequence that keeps `method`.

    Each word is keyed ``(time, priority, rank, channel_index, word)``, a tag
    surface not in `priority` ranking last.  ``inter_gamma`` sorts by the
    count-ratio key with channel 0 as the transcription (stably, so a tie goes
    to it); ``inter_time`` by the key itself, then, if grouped, buckets the
    words by window and tag surface.  A channel's tag opens each run of its
    surface, each word with its time as origin time: valid by construction
    from checked channels, so not checked again.
    """
    tags = [ch.tag for ch in channels]
    surfaces = [t.surface for t in tags]
    keyed: list[tuple[int, int, int, int, str]] = []
    for ci, ch in enumerate(channels):
        p = priority.get(surfaces[ci], len(priority))
        keyed += zip(ch.times, repeat(p), range(len(ch)), repeat(ci), ch.texts)
    if method.name == "inter_gamma":
        weight = (method.gamma, 1.0 - method.gamma)
        keyed.sort(key=lambda entry: weight[entry[3]] * (1 + entry[2]))
    else:
        keyed.sort()
    step = method.group_ms
    if step is not None:
        # Bucket `window * len(channels) + s`, s the first channel of the word's tag surface.
        first = [surfaces.index(s) for s in surfaces]
        buckets: dict[int, list] = {}
        for entry in keyed:
            buckets.setdefault(entry[0] // step * len(first) + first[entry[3]], []).append(entry)
        keyed = [entry for bucket in buckets.values() for entry in bucket]
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
    return _rebuild(SerializedSequence, (utt_id, tuple(items), tuple(origin_times), method))


def inter_time(
    u: Utterance,
    grouping: GroupingConfig | None = None,
    tags: TagSet | None = None,
) -> SerializedSequence:
    """:func:`serialize_utterance` with ``inter_time``, grouped by `grouping` if given."""
    step = grouping.step_ms if grouping is not None else None
    return serialize_utterance(u, SerializationMethod("inter_time", group_ms=step), tags)


def inter_gamma(
    asr: Channel,
    st: Channel,
    gamma: float,
    utt_id: str = "",
) -> SerializedSequence:
    """Count-ratio interleaving of `asr` (transcription role) and `st`; `gamma` is in [0, 1].

    The order of :func:`serialize_utterance` with ``inter_gamma``, but the
    roles are as given.  A bad `gamma` raises before any work.
    """
    method = SerializationMethod("inter_gamma", gamma=gamma)
    _check_input((asr, st), utt_id, method)
    return _ordered((asr, st), utt_id, method, {})


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
    as origin time.  ``inter_gamma`` needs exactly two channels; when their
    modalities differ, the transcription channel takes the transcription
    role.  Its key orders words as emitting the next transcription word iff
    ``(1 - gamma) * (1 + st_emitted) >= gamma * (1 + asr_emitted)`` does.
    """
    channels = u.channels
    _check_input(channels, u.utt_id, method)
    if method.name == "inter_gamma":
        if len(channels) != 2:
            raise ValueError(f"inter_gamma needs exactly two channels, utterance {u.utt_id!r} has {len(channels)}")
        first, second = channels
        if first.tag.modality != second.tag.modality and second.tag.modality is Modality.TRANSCRIPTION:
            channels = (second, first)
        priority = {}
    elif tags is not None:
        priority = {t.surface: i for i, t in enumerate(tags.tags)}
    else:
        priority = {ch.tag.surface: i for i, ch in enumerate(channels)}
    return _ordered(channels, u.utt_id, method, priority)
