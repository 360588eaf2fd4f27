"""Streaming demultiplexer: route a serialized token stream back to channels.

The consumer-side inverse of the serializer.  A :class:`DemuxState` tracks
the current channel; words are routed to the channel named by the most
recent tag.  One routine, :func:`_route`, makes that decision, item by
item, for both :func:`feed` and :func:`demux_full`; one tokenizer,
:func:`_text_items`, reads every string either is given.  Malformed
streams never abort: unroutable words land in a reserved unknown bucket and
every anomaly is recorded as a diagnostic, so all decodable content
survives.
"""

from __future__ import annotations

from .model import Diagnostic, SerializedSequence, Tag, TagSet, UNKNOWN_CHANNEL, _Record

__all__ = ["DemuxState", "feed", "demux_full"]


class DemuxState(_Record):
    """Accumulator for one stream; grows monotonically as tokens are fed.

    `words` maps each channel to its words, in order of the channel's first
    tag, and `diagnostics` holds everything the parse flagged.  One state
    per stream; unlike the other records, it is mutable and has no hash.
    Distinct states share nothing, so separate streams may be demultiplexed concurrently.
    """

    __slots__ = ("current_tag", "current_known", "words", "diagnostics", "token_index", "utt_id")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self, current_tag=None, current_known=True, words=None, diagnostics=None, token_index=0, utt_id=""
    ) -> None:
        self.current_tag, self.current_known = current_tag, current_known
        self.words = {} if words is None else words
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.token_index, self.utt_id = token_index, utt_id


def _route(state: DemuxState, items, tags: TagSet) -> None:
    """Feed `items` to `state` one at a time: the one place a word's channel is decided.

    An item is a :class:`Tag` or a word, as in :attr:`SerializedSequence.items`.
    A tag outside `tags` is an ``unknown-tag`` and sends the words after it to
    the unknown bucket; a declared tag equal to the current one is a
    ``redundant-tag``; a declared tag materializes its channel even if no
    words follow.  An empty word is an ``empty-token`` and is dropped; a word
    before any tag is an ``untagged-word`` in the unknown bucket.
    """
    words, diagnostics, utt_id = state.words, state.diagnostics, state.utt_id
    tag, known = state.current_tag, state.current_known
    declared = tags._by_surface
    bucket = None  # the current channel's word list, once looked up
    for index, item in enumerate(items, state.token_index):
        if isinstance(item, Tag):
            surface = item.surface
            repeated = tag is not None and known and surface == tag.surface
            known = surface in declared
            if not known:
                message = f"tag {surface!r} is not in the tag set"
                diagnostics.append(Diagnostic("unknown-tag", message, utt_id=utt_id, tag=surface, index=index))
            elif repeated:
                message = f"tag {surface!r} repeated without a channel switch"
                diagnostics.append(Diagnostic("redundant-tag", message, utt_id=utt_id, tag=surface, index=index))
            bucket = words.setdefault(surface, []) if known else None
            tag = item
        elif item == "":
            message = "empty token (consecutive spaces in text input?)"
            diagnostics.append(Diagnostic("empty-token", message, utt_id=utt_id, index=index))
        else:
            if tag is None:
                message = f"word {item!r} arrived before any tag"
                diagnostics.append(Diagnostic("untagged-word", message, utt_id=utt_id, index=index))
            if bucket is None:
                bucket = words.setdefault(tag.surface if tag is not None and known else UNKNOWN_CHANNEL, [])
            bucket.append(item)
    state.current_tag, state.current_known, state.token_index = tag, known, state.token_index + len(items)


def _text_items(text: str, tags: TagSet) -> list[Tag | str]:
    """`text` split on single spaces, then on other whitespace inside a token; each token a declared Tag or a word.

    A run of spaces or a token of other whitespace only (a tab, a newline)
    gives an empty token; diagnostic indices count the tokens after both splits.
    """
    surface_tag = tags._by_surface.get
    return [surface_tag(t, t) for token in text.split(" ") for t in token.split() or [""]]


def feed(state: DemuxState, token: Tag | str, tags: TagSet) -> Tag | None:
    """Consume a Tag or decoder text, updating `state`; returns the tag its last item was routed to.

    A string is read by :func:`_text_items`, so feeding it equals feeding
    its tokens one by one, and ``""`` is one empty token; anything else is a
    TypeError.  Returns None for a tag, an empty token and an unknown-bucket word.
    """
    if isinstance(token, str):
        items = _text_items(token, tags)
    elif isinstance(token, Tag):
        items = (token,)
    else:
        raise TypeError(f"feed takes a Tag or a str, got {type(token).__name__}")
    _route(state, items, tags)
    last = items[-1]
    if isinstance(last, Tag) or last == "" or not state.current_known:
        return None
    return state.current_tag


def demux_full(stream: SerializedSequence | str, tags: TagSet, utt_id: str = "") -> DemuxState:
    """Batch parse: route a whole stream and return its final :class:`DemuxState`.

    `stream` is a serialized sequence (its `utt_id` is the default) or a
    text line; a non-empty line is routed as :func:`feed` routes it, and an
    empty one holds no token.  Channels appear in `words` exactly when their
    tag appeared in the stream, even if no words followed.
    """
    if isinstance(stream, SerializedSequence):
        items, utt_id = stream.items, utt_id or stream.utt_id
    elif isinstance(stream, str):
        items = _text_items(stream, tags) if stream else []
    else:
        raise TypeError(f"demux_full takes a SerializedSequence or a str, got {type(stream).__name__}")
    state = DemuxState(utt_id=utt_id)
    _route(state, items, tags)
    return state
