"""Streaming demultiplexer: route a serialized token stream back to channels.

The consumer-side inverse of the serializer.  A :class:`DemuxState` tracks
the current channel; words are routed to the channel named by the most
recent tag.  One routine, :func:`_route`, makes that decision: :func:`feed`
hands it one item and :func:`demux_full` a whole stream.  Malformed
streams never abort: unroutable words land in a reserved unknown bucket and
every anomaly is recorded as a diagnostic, so all decodable content
survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Diagnostic, SerializedSequence, Tag, TagSet, UNKNOWN_CHANNEL

__all__ = ["DemuxState", "feed", "demux_full"]


@dataclass(slots=True)
class DemuxState:
    """Accumulator for one stream; grows monotonically as tokens are fed.

    `words` maps each channel to its words, in order of the channel's first
    tag, and `diagnostics` holds everything the parse flagged.  One state
    per stream.  Distinct states share nothing, so separate streams may be
    demultiplexed concurrently.
    """

    current_tag: Tag | None = None
    current_known: bool = True
    words: dict[str, list[str]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    token_index: int = 0
    utt_id: str = ""


def _route(state: DemuxState, items, tags: TagSet) -> None:
    """Feed `items` to `state` one run at a time: the one place a word's channel is decided.

    An item is a :class:`Tag` at each tag position and the word anywhere
    else, as in :attr:`SerializedSequence.items`.  A tag outside `tags` is
    an ``unknown-tag`` and sends the words after it to the unknown bucket; a
    declared tag equal to the current one is a ``redundant-tag``; a declared
    tag materializes its channel even if no words follow.  A run of words
    is appended whole unless it needs per-word diagnostics: a word before
    any tag is an ``untagged-word`` in the unknown bucket, and an empty word
    is an ``empty-token`` and is dropped.
    """
    words, diagnostics, utt_id = state.words, state.diagnostics, state.utt_id
    tag, known, base = state.current_tag, state.current_known, state.token_index
    declared = tags._by_surface
    n = len(items)
    start, bucket = 0, None  # bucket: the current channel's word list, once looked up
    for end in [i for i, x in enumerate(items) if isinstance(x, Tag)] + [n]:
        if start < end:
            run = items[start:end]
            key = tag.surface if tag is not None and known else UNKNOWN_CHANNEL
            if tag is not None and "" not in run:
                if bucket is None:
                    bucket = words.setdefault(key, [])
                bucket += run
            else:
                for index, word in enumerate(run, base + start):
                    if word == "":
                        message = "empty token (consecutive spaces in text input?)"
                        diagnostics.append(Diagnostic("empty-token", message, utt_id=utt_id, index=index))
                        continue
                    if tag is None:
                        message = f"word {word!r} arrived before any tag"
                        diagnostics.append(Diagnostic("untagged-word", message, utt_id=utt_id, index=index))
                    words.setdefault(key, []).append(word)
        if end == n:
            break
        new, index = items[end], base + end
        surface = new.surface
        repeated = tag is not None and known and surface == tag.surface
        known = surface in declared
        if not known:
            message = f"tag {surface!r} is not in the tag set"
            diagnostics.append(Diagnostic("unknown-tag", message, utt_id=utt_id, tag=surface, index=index))
        else:
            if repeated:
                message = f"tag {surface!r} repeated without a channel switch"
                diagnostics.append(Diagnostic("redundant-tag", message, utt_id=utt_id, tag=surface, index=index))
        bucket = words.setdefault(surface, []) if known else None
        tag, start = new, end + 1
    state.current_tag, state.current_known, state.token_index = tag, known, base + n


def feed(state: DemuxState, token: Tag | str, tags: TagSet) -> Tag | None:
    """Consume one item, updating `state`; returns the tag a word was routed to.

    An item is a :class:`Tag`, or a string: the declared Tag whose surface
    it is in `tags`, or else a word.  Anything else is a TypeError.  The
    item is routed by :func:`_route`.  Returns None for a tag, an empty
    token and a word in the unknown bucket.
    """
    if isinstance(token, str):
        token = tags._by_surface.get(token, token)
    elif not isinstance(token, Tag):
        raise TypeError(f"feed takes a Tag or a str, got {type(token).__name__}")
    _route(state, (token,), tags)
    if isinstance(token, Tag) or token == "" or not state.current_known:
        return None
    return state.current_tag


def demux_full(stream: SerializedSequence | str, tags: TagSet, utt_id: str = "") -> DemuxState:
    """Batch parse: route a whole stream and return its final :class:`DemuxState`.

    `stream` is a serialized sequence (its `utt_id` is the default) or a
    plain-text line.  A line is tokenized by splitting on single spaces,
    then on any other whitespace inside a token, such as a tab or a
    carriage return; runs of spaces and tokens of other whitespace only
    produce empty-token diagnostics, whose indices count the tokens after
    both splits.  For a line the result equals a fold of :func:`feed` over
    those tokens.  Channels appear in `words` exactly when their tag
    appeared in the stream, even if no words followed.
    """
    if isinstance(stream, SerializedSequence):
        items, utt_id = stream.items, utt_id or stream.utt_id
    elif isinstance(stream, str):
        surface_tag = tags._by_surface.get
        tokens = [t for token in stream.split(" ") for t in token.split() or [""]]
        items = [surface_tag(t, t) for t in tokens] if stream else []
    else:
        raise TypeError(f"demux_full takes a SerializedSequence or a str, got {type(stream).__name__}")
    state = DemuxState(utt_id=utt_id)
    _route(state, items, tags)
    return state
