"""Streaming demultiplexer: route a serialized token stream back to channels.

The consumer-side inverse of the serializer.  A :class:`DemuxState` tracks
the current channel while tokens are fed one at a time; words are routed to
the channel named by the most recent tag.  Malformed streams never abort:
unroutable words land in a reserved unknown bucket and every anomaly is
recorded as a diagnostic, so all decodable content survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    Diagnostic,
    SerializedSequence,
    Tag,
    TagSet,
    TagToken,
    UNKNOWN_CHANNEL,
    WordToken,
)

__all__ = ["DemuxState", "DemuxResult", "feed", "demux_full"]


@dataclass(slots=True)
class DemuxState:
    """Accumulator for one stream; grows monotonically as tokens are fed.

    One state per stream.  Distinct states share nothing, so separate
    streams may be demultiplexed concurrently.
    """

    current_tag: Tag | None = None
    current_known: bool = True
    words: dict[str, list[str]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    token_index: int = 0
    utt_id: str = ""

    def channel_key(self) -> str:
        if self.current_tag is None or not self.current_known:
            return UNKNOWN_CHANNEL
        return self.current_tag.surface


def feed(state: DemuxState, token: TagToken | WordToken | str, tags: TagSet) -> Tag | None:
    """Consume one token, updating `state`; returns the tag a word was routed to.

    Accepts model tokens or raw strings (a string matching a tag surface in
    `tags` counts as that tag).  Tag tokens switch the current channel, and
    a declared one materializes its channel even if no words ever follow.
    Error handling is diagnostic-only: a word before any tag or after an
    undeclared tag goes to the unknown bucket; a repeated identical tag is
    flagged but the stream stays decodable.  Returns None for a tag token,
    an empty token and a word in the unknown bucket.
    """
    idx = state.token_index
    state.token_index += 1

    tag: Tag | None = None
    word: str | None = None
    if isinstance(token, TagToken):
        tag = token.tag
    elif isinstance(token, WordToken):
        word = token.word
    else:
        looked = tags.get(token)
        if looked is not None:
            tag = looked
        else:
            word = token

    if tag is not None:
        known = tag.surface in tags
        if not known:
            state.diagnostics.append(
                Diagnostic(
                    "unknown-tag",
                    f"tag {tag.surface!r} is not in the tag set",
                    utt_id=state.utt_id,
                    tag=tag.surface,
                    index=idx,
                )
            )
        elif state.current_tag is not None and state.current_known and tag.surface == state.current_tag.surface:
            state.diagnostics.append(
                Diagnostic(
                    "redundant-tag",
                    f"tag {tag.surface!r} repeated without a channel switch",
                    utt_id=state.utt_id,
                    tag=tag.surface,
                    index=idx,
                )
            )
        state.current_tag = tag
        state.current_known = known
        if known:
            state.words.setdefault(tag.surface, [])
        return None

    assert word is not None
    if word == "":
        state.diagnostics.append(
            Diagnostic(
                "empty-token",
                "empty token (consecutive spaces in text input?)",
                utt_id=state.utt_id,
                index=idx,
            )
        )
        return None
    if state.current_tag is None:
        state.diagnostics.append(
            Diagnostic(
                "untagged-word",
                f"word {word!r} arrived before any tag",
                utt_id=state.utt_id,
                index=idx,
            )
        )
    key = state.channel_key()
    state.words.setdefault(key, []).append(word)
    return state.current_tag if key != UNKNOWN_CHANNEL else None


@dataclass(slots=True)
class DemuxResult:
    """Per-channel word lists plus everything the parse flagged."""

    words: dict[str, list[str]]
    diagnostics: list[Diagnostic]


def demux_full(
    stream: SerializedSequence | str | list,
    tags: TagSet,
    utt_id: str = "",
) -> DemuxResult:
    """Batch parse: fold :func:`feed` over a whole stream.

    `stream` may be a serialized sequence, a list of tokens, or a plain-text
    line (tokenized by splitting on single spaces; runs of spaces produce
    empty-token diagnostics).  Channels appear in the result exactly when
    their tag appeared in the stream, even if no words followed.
    """
    if isinstance(stream, SerializedSequence):
        return _demux_sequence(stream, tags, utt_id or stream.utt_id)
    if isinstance(stream, str):
        tokens = stream.split(" ") if stream else []
    else:
        tokens = list(stream)

    state = DemuxState(utt_id=utt_id)
    for token in tokens:
        feed(state, token, tags)
    return DemuxResult(words=state.words, diagnostics=state.diagnostics)


def _demux_sequence(seq: SerializedSequence, tags: TagSet, utt_id: str) -> DemuxResult:
    """:func:`demux_full` of a sequence, read run by run from its columns.

    Equals the fold of :func:`feed` over ``seq.tokens``.  A valid sequence
    opens with a tag, never repeats one without a switch and has no empty
    word, so an undeclared tag is the only anomaly it can carry.
    """
    items = seq.items
    starts = [i for i, x in enumerate(items) if isinstance(x, Tag)]
    words: dict[str, list[str]] = {}
    diagnostics: list[Diagnostic] = []
    for start, end in zip(starts, starts[1:] + [len(items)]):
        tag = items[start]
        if tag.surface in tags:
            bucket = words.setdefault(tag.surface, [])
        else:
            diagnostics.append(
                Diagnostic(
                    "unknown-tag",
                    f"tag {tag.surface!r} is not in the tag set",
                    utt_id=utt_id,
                    tag=tag.surface,
                    index=start,
                )
            )
            if end == start + 1:
                continue
            bucket = words.setdefault(UNKNOWN_CHANNEL, [])
        bucket += items[start + 1 : end]
    return DemuxResult(words=words, diagnostics=diagnostics)
