"""Core value types for multi-channel timed word streams.

A recording is represented as an :class:`Utterance` holding one channel per
output stream (a transcription or a translation), each channel being an
ordered list of words with millisecond emission timestamps.  Serializers
flatten an utterance into a single :class:`SerializedSequence` of channel-tag
tokens and word tokens; the demultiplexer inverts that encoding.

All types are immutable after construction.  Cheap local invariants (word
shape, timestamp sign, tag uniqueness) are enforced by the constructors;
structural cross-checks that must tolerate broken data live in
:func:`validate_utterance`, which reports diagnostics instead of raising.
"""

from __future__ import annotations

import enum
import sys
from operator import attrgetter, itemgetter, le
from typing import Iterable

__all__ = [
    "Modality",
    "TimedWord",
    "Tag",
    "TagSet",
    "Channel",
    "Utterance",
    "TagToken",
    "WordToken",
    "SerializationMethod",
    "SerializedSequence",
    "GroupingConfig",
    "Diagnostic",
    "EmissionTrace",
    "UNKNOWN_CHANNEL",
    "validate_utterance",
    "check_sequence",
]

# Bucket for words the demultiplexer cannot route to a declared tag.
# Reserved: Tag construction rejects this surface.
UNKNOWN_CHANNEL = "<unknown>"


class Modality(enum.Enum):
    """Whether a channel carries source-language transcription or a translation."""

    TRANSCRIPTION = "asr"
    TRANSLATION = "st"


def _check_encodable(value: str, what: str) -> None:
    """A ValueError naming `what` if `value` has no UTF-8 form; callers test ``value.isascii()`` first, the cheap common case."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} holds a lone surrogate, which has no UTF-8 form: {value!r}") from None


def _check_token_text(value: str, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string, got {value!r}")
    if value.split() != [value]:
        raise ValueError(f"{what} must not contain whitespace: {value!r}")
    if not value.isascii():
        _check_encodable(value, what)


def _all_token_text(words) -> bool:
    """Whether every word passes `_check_token_text`: iff the join has a UTF-8 form and the join/split round trip is exact."""
    try:
        text = " ".join(words)
        if not text.isascii():
            text.encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return False
    return text.split() == list(words)


_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "integer"}


def _expect_json(value, what: str, kind: type):
    """`value` if it has the JSON type `kind`, else a ValueError naming `what`."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _json_object(obj, fields: tuple[str, ...], what: str) -> dict:
    """`obj` if it is a JSON object with no field beyond `fields`, else a ValueError naming `what`."""
    for field in _expect_json(obj, what, dict):
        if field not in fields:
            raise ValueError(f"{what} has an unknown field {field!r}; its fields are {', '.join(fields)}")
    return obj


def _check_str(value, what: str) -> None:
    if not _expect_json(value, what, str).isascii():
        _check_encodable(value, what)


def _check_positive_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _check_int(value, what: str, least: int | None = None) -> int:
    """`value` if it is an int, not a bool, and at least `least` if given; else a ValueError naming `what`, as `_expect_json` does."""
    if type(value) is not int:
        _expect_json(value, what, int)
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _check_list(value, what: str):
    """`value` if it is a tuple or a list, else a ValueError naming `what`, as `_expect_json` does: a string or a generator is refused."""
    return value if isinstance(value, tuple) else _expect_json(value, what, list)


def _check_pair(value, what: str, shape: str) -> tuple[int, int]:
    """`value` as a tuple if it is a list or tuple of two ints, not bools; else a ValueError naming `what` and the `shape` of the pair."""
    if len(_check_list(value, what)) != 2:
        raise ValueError(f"{what} must be a {shape} pair, got {value!r}")
    return _check_int(value[0], f"{what}[0]"), _check_int(value[1], f"{what}[1]")


_set = object.__setattr__


def _rebuild(cls, values):
    """A `cls` record with `values` in its slots, in slot order: what unpickling calls."""
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(self, name, value)
    return self


class _Record:
    """Base of the record classes: equality, hash, repr, JSON and pickling by the fields in `__slots__`.

    A slot whose name starts with ``_`` is derived: it is pickled but takes
    no part in equality, hash or repr.  Records are frozen: assigning or
    deleting an attribute raises ``FrozenInstanceError``.  A subclass writes
    its own ``__init__``, which fills the slots through ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def to_json(self) -> dict:
        """The public fields that are not None, in slot order, each tuple as a list.

        This is the JSON object of a record whose fields hold JSON values; a
        record with other fields writes them itself.
        """
        return {
            name: list(value) if type(value) is tuple else value
            for name in self._fields
            if (value := getattr(self, name)) is not None
        }

    def __reduce__(self):
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self.__slots__))

    @classmethod
    def _from_columns(cls, *fields):
        """A record filled by its class's ``_fill`` from the column form of its fields."""
        self = object.__new__(cls)
        self._fill(*fields)
        return self

    def __setattr__(self, name, value, verb="assign to"):
        from dataclasses import FrozenInstanceError  # here only: a stage never loads the module

        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")


class TimedWord(_Record):
    """A single word and the millisecond offset at which it is emitted.

    Attributes:
        time: Emission offset from utterance start, non-negative integer ms.
        word: The word surface; non-empty, no whitespace characters.
    """

    __slots__ = ("time", "word")

    def __init__(self, time: int, word: str) -> None:
        if not isinstance(time, int) or isinstance(time, bool) or time < 0:
            raise ValueError(f"time must be a non-negative integer, got {time!r}")
        _check_token_text(word, "word")
        _set(self, "time", time)
        _set(self, "word", word)


class Tag(_Record):
    """A channel marker token.

    Attributes:
        surface: Literal token string, e.g. ``"#ASR#"`` or ``"#ES#"``;
            never the reserved :data:`UNKNOWN_CHANNEL`.
        modality: Transcription or translation.
        language: BCP-47-style language code.
    """

    __slots__ = ("surface", "modality", "language")

    def __init__(self, surface: str, modality: Modality, language: str) -> None:
        _check_token_text(surface, "tag surface")
        if surface == UNKNOWN_CHANNEL:
            raise ValueError(f"tag surface {UNKNOWN_CHANNEL!r} is reserved")
        if not isinstance(modality, Modality):
            raise ValueError(f"modality must be a Modality, got {modality!r}")
        if not isinstance(language, str) or not language:
            raise ValueError(f"language must be a non-empty string, got {language!r}")
        if not language.isascii():
            _check_encodable(language, "language")
        _set(self, "surface", surface)
        _set(self, "modality", modality)
        _set(self, "language", language)


class TagSet(_Record):
    """Ordered collection of tags; declaration order is tie-break priority.

    When two words from different channels share a timestamp, the channel
    whose tag is declared earlier wins, so transcription tags conventionally
    come first.
    """

    # `_by_surface` maps surface -> tag, built once from `tags`.
    __slots__ = ("tags", "_by_surface")

    def __init__(self, tags) -> None:
        tags = tuple(_check_list(tags, "tags"))
        _set(self, "tags", tags)
        if not tags:
            raise ValueError("a TagSet needs at least one tag")
        for t in tags:
            if not isinstance(t, Tag):
                raise ValueError(f"a TagSet holds Tag objects, got {t!r}")
        surfaces = [t.surface for t in tags]
        if len(set(surfaces)) != len(surfaces):
            raise ValueError(f"duplicate tag surfaces: {surfaces}")
        _set(self, "_by_surface", {t.surface: t for t in tags})

    def __iter__(self):
        return iter(self.tags)

    def __contains__(self, surface: str) -> bool:
        return self.get(surface) is not None

    def get(self, surface: str) -> Tag | None:
        # Surfaces are strings; anything else (even unhashable) matches no tag.
        return self._by_surface.get(surface) if isinstance(surface, str) else None


class Channel(_Record):
    """One tagged output stream: a tag plus its timed words.

    Stored as two parallel columns, `times` (ms) and `texts` (word
    surfaces); `words` builds :class:`TimedWord` views of them on each read.
    Words are expected non-decreasing in time (a streaming model's emission
    trace is monotone by construction), but a violating channel is still
    constructible so that :func:`validate_utterance` can report it.
    """

    __slots__ = ("tag", "times", "texts")

    def __init__(self, tag: Tag, words) -> None:
        """Build from a list or tuple of TimedWord objects."""
        words = tuple(_check_list(words, "words"))
        for w in words:
            if not isinstance(w, TimedWord):
                raise ValueError(f"every word must be a TimedWord, got {w!r}")
        self._fill(tag, tuple([w.time for w in words]), tuple([w.word for w in words]))

    def _fill(self, tag, times, texts) -> None:
        if not isinstance(tag, Tag):
            raise ValueError(f"a channel's tag must be a Tag, got {tag!r}")
        # TimedWord's checks in bulk; on failure, TimedWord finds the bad word.
        if not (_all_token_text(texts) and set(map(type, times)) <= {int} and min(times, default=0) >= 0):
            for t, w in zip(times, texts):
                TimedWord(t, w)
        _set(self, "tag", tag)
        _set(self, "times", times)
        _set(self, "texts", texts)

    @property
    def words(self) -> tuple[TimedWord, ...]:
        """One TimedWord per word, built from the columns on each read."""
        return tuple(map(TimedWord, self.times, self.texts))

    def __len__(self) -> int:
        return len(self.times)


class Utterance(_Record):
    """All channels of one audio segment.

    Attributes:
        utt_id: Corpus-unique identifier, a string.
        duration_ms: Source audio duration, positive integer ms.  Word times
            may exceed it: translation words routinely trail the audio.
        channels: One entry per output stream, in a list or tuple; tags must
            be pairwise distinct (reported by the validator, not the
            constructor).
    """

    __slots__ = ("utt_id", "duration_ms", "channels")

    def __init__(self, utt_id: str, duration_ms: int, channels) -> None:
        _check_str(utt_id, "utt_id")
        _check_positive_int(duration_ms, "duration_ms")
        channels = tuple(_check_list(channels, "channels"))
        if not all(isinstance(ch, Channel) for ch in channels):
            raise ValueError(f"every channel must be a Channel, got {channels!r}")
        _set(self, "utt_id", utt_id)
        _set(self, "duration_ms", duration_ms)
        _set(self, "channels", channels)

    def channel(self, surface: str) -> Channel | None:
        for ch in self.channels:
            if ch.tag.surface == surface:
                return ch
        return None


class TagToken(_Record):
    """A channel-switch marker in a serialized stream."""

    __slots__ = ("tag",)

    def __init__(self, tag: Tag) -> None:
        _set(self, "tag", tag)


class WordToken(_Record):
    """A word in a serialized stream.

    origin_time is the pre-grouping emission timestamp, carried so latency
    can be replayed without the source utterance.  It never affects the
    textual rendering.
    """

    __slots__ = ("word", "origin_time")

    def __init__(self, word: str, origin_time: int | None = None) -> None:
        _check_token_text(word, "word")
        _set(self, "word", word)
        _set(self, "origin_time", origin_time)


class SerializationMethod(_Record):
    """Provenance of a serialized sequence: which policy built it.

    Attributes:
        name: ``"inter_time"`` (timestamp order) or ``"inter_gamma"``
            (count ratio).
        gamma: For ``inter_gamma`` only, and required there: a number in
            [0, 1].  0 emits the whole transcription first, 1 the whole
            translation first, 0.5 alternates one word at a time; in general
            the two streams mix at an asymptotic ratio of (1 - gamma) : gamma.
        group_ms: For ``inter_time`` only: the grouping window, a positive
            integer, or None for no grouping.

    Values are stored as given, so a record writes back what it read.
    """

    __slots__ = ("name", "gamma", "group_ms")

    def __init__(self, name: str, gamma: float | None = None, group_ms: int | None = None) -> None:
        if name == "inter_time":
            if gamma is not None:
                raise ValueError(f"inter_time takes no gamma, got {gamma!r}")
            if group_ms is not None:
                _check_positive_int(group_ms, "group_ms")
        elif name == "inter_gamma":
            if group_ms is not None:
                raise ValueError(f"inter_gamma takes no group_ms, got {group_ms!r}")
            if gamma is None:
                raise ValueError("inter_gamma requires a gamma value")
            if not isinstance(gamma, (int, float)) or isinstance(gamma, bool) or not 0 <= gamma <= 1:
                raise ValueError(f"gamma must be a number within [0, 1], got {gamma!r}")
        else:
            raise ValueError(f"unknown serialization method {name!r}")
        _set(self, "name", name)
        _set(self, "gamma", gamma)
        _set(self, "group_ms", group_ms)

    @classmethod
    def from_json(cls, obj) -> "SerializationMethod":
        """A method from its JSON object; one that is no object, has a field it does not know or a name that is no string is a ValueError."""
        _expect_json(_json_object(obj, cls._fields, "method")["name"], "method name", str)
        return cls(**obj)


class SerializedSequence(_Record):
    """The flattened token stream a joint model would train on or emit.

    Built from, and stored as, the two columns of its JSONL record: `items`
    holds the shared :class:`Tag` at each tag position and the word string
    at each word position (a ``Tag`` versus a ``str`` is what tells the two
    apart, so a word that spells a tag surface stays a word), and
    `origin_times` holds each word's origin time and None at each tag.  Both
    are tuples of one entry per position.  `tokens` builds
    :class:`TagToken`/:class:`WordToken` views of the columns on each read.

    Invariants (enforced at construction): `utt_id` is a string, `method` a
    :class:`SerializationMethod`, the columns are of equal length, every
    origin time is an int ≥ 0 or None and every tag's is None, every word
    is a non-empty string without whitespace, a non-empty sequence starts
    with a tag, tags only appear on channel switches (never twice in a row,
    never equal to the previous tag), and every word follows some tag.
    """

    __slots__ = ("utt_id", "items", "origin_times", "method")

    def __init__(self, utt_id: str, items, origin_times, method: SerializationMethod) -> None:
        _check_str(utt_id, "utt_id")
        if not isinstance(method, SerializationMethod):
            raise ValueError(f"method must be a SerializationMethod, got {type(method).__name__}")
        if len(_check_list(items, "items")) != len(_check_list(origin_times, "origin_times")):
            raise ValueError(f"origin_times length {len(origin_times)} != items length {len(items)}")
        # Origin times in bulk; on failure, the first bad one for its message.
        if not set(map(type, origin_times)) <= {int, type(None)} or min(filter(None, origin_times), default=0) < 0:
            for i, t in enumerate(origin_times):
                if t is not None and (type(t) is not int or t < 0):
                    fault = f"non-negative, got {t}" if type(t) is int else f"a JSON integer, got {type(t).__name__}"
                    raise ValueError(f"origin_times[{i}] must be {fault}")
        # Then word text, in bulk; a timed tag joins the words to fail it.  On
        # failure, the per-position check finds the first fault and its message.
        words = [x for x, t in zip(items, origin_times) if t is not None or not isinstance(x, Tag)]
        if not _all_token_text(words):
            for i, (x, t) in enumerate(zip(items, origin_times)):
                if not isinstance(x, Tag):
                    _check_token_text(x, "word")
                elif t is not None:
                    raise ValueError(f"origin time {t!r} at tag position {i}")
        problems = check_sequence(items)
        if problems:
            raise ValueError(f"invalid serialized sequence {utt_id!r}: {problems[0]}")
        _set(self, "utt_id", utt_id)
        _set(self, "items", items)
        _set(self, "origin_times", origin_times)
        _set(self, "method", method)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def tokens(self) -> tuple[TagToken | WordToken, ...]:
        """One TagToken or WordToken per position, built from the columns on each read."""
        return tuple(
            TagToken(x) if isinstance(x, Tag) else WordToken(x, t)
            for x, t in zip(self.items, self.origin_times)
        )


def check_sequence(items) -> list[str]:
    """Single linear scan over the serialized-sequence invariants.

    `items` are a sequence's items: a :class:`Tag` at each tag position and
    anything else at a word position.  Returns one message per violation;
    an empty list means the token stream is well-formed.
    """
    problems: list[str] = []
    prev_tag: Tag | None = None
    prev_was_tag = False
    for i, item in enumerate(items):
        if not isinstance(item, Tag):
            if prev_tag is None:
                problems.append(f"word {item!r} at index {i} precedes any tag")
            prev_was_tag = False
            continue
        if prev_was_tag:
            problems.append(f"adjacent tag tokens at index {i}")
        elif prev_tag is not None and item.surface == prev_tag.surface:
            problems.append(f"tag {item.surface!r} repeated without a switch at index {i}")
        prev_tag = item
        prev_was_tag = True
    return problems


class GroupingConfig(_Record):
    """Time-step grouping window; ``step_ms=None`` disables grouping."""

    __slots__ = ("step_ms",)

    def __init__(self, step_ms: int | None = None) -> None:
        if step_ms is not None:
            _check_positive_int(step_ms, "step_ms")
        _set(self, "step_ms", step_ms)


# The window rule of `group_ms`.  It lives beside the records, not in
# `serialize`, so that `simulate.replay` reaches it without loading `serialize`.
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


class Diagnostic(_Record):
    """One validation or parse finding.  Diagnostics are data, not failures.

    Attributes:
        code: Stable machine-readable kind, e.g. ``"non-monotone-time"``.
        message: Human-readable description.
        utt_id: Utterance the finding belongs to, when known.
        tag: Channel tag surface involved, when applicable.
        index: Offending position (word index, token index, or line number).
    """

    __slots__ = ("code", "message", "utt_id", "tag", "index")

    def __init__(self, code: str, message: str, utt_id=None, tag=None, index=None) -> None:
        _set(self, "code", code)
        _set(self, "message", message)
        _set(self, "utt_id", utt_id)
        _set(self, "tag", tag)
        _set(self, "index", index)


class EmissionTrace(_Record):
    """Per-token emission delays for one channel of one utterance.

    Stored as two parallel columns, `ordinals` and `delays`; `entries` is a view of them.

    Attributes:
        utt_id: Utterance identifier, a string.
        tag: Channel tag surface the delays belong to, a string.
        ordinals: Token ordinal of each emitted word.
        delays: Emission delay of each word, at least one; measured from
            utterance start and non-decreasing.
        source_duration_ms: Length of the source audio, at least 1 ms.
        ref_len: Reference length of the channel (word count), non-negative.

    Ordinals, delays, `source_duration_ms` and `ref_len` must be ints (not
    bools); nothing is coerced.  Every trace can be scored by :func:`~tokenweave.metrics.laal`:
    construction also rejects times beyond the float range.  The row
    constructor is the trace reader's one check, with the reader's messages:
    `entries` must be a list or tuple of pairs, each a list or tuple.
    """

    __slots__ = ("utt_id", "tag", "ordinals", "delays", "source_duration_ms", "ref_len")

    def __init__(self, utt_id: str, tag: str, entries, source_duration_ms: int, ref_len: int) -> None:
        """Build from a list or tuple of ``(token_ordinal, delay_ms)`` pairs."""
        entries = tuple(_check_list(entries, "entries"))
        # The columns in bulk; on failure, entry by entry for the message.
        columns = None
        if set(map(type, entries)) <= {tuple, list} and set(map(len, entries)) <= {2}:
            columns = tuple(map(itemgetter(0), entries)), tuple(map(itemgetter(1), entries))
        if columns is None or not {*map(type, columns[0]), *map(type, columns[1])} <= {int}:
            pairs = [_check_pair(e, f"entries[{i}]", "[ordinal, delay]") for i, e in enumerate(entries)]
            columns = tuple([o for o, _ in pairs]), tuple([d for _, d in pairs])
        self._fill(utt_id, tag, *columns, source_duration_ms, ref_len)

    # Takes int columns: `__init__`, which the trace reader calls, checks them and replay makes them.
    def _fill(self, utt_id, tag, ordinals, delays, source_duration_ms, ref_len) -> None:
        _check_str(utt_id, "utt_id")
        _check_str(tag, "tag")
        _check_int(ref_len, "ref_len", 0)
        if not all(map(le, delays, delays[1:])):
            prev, d = next((prev, d) for prev, d in zip(delays, delays[1:]) if d < prev)
            raise ValueError(f"delays must be non-decreasing, got {d} after {prev}")
        if not delays:
            raise ValueError(f"empty trace for {utt_id!r}/{tag!r}")
        _check_int(source_duration_ms, "source_duration_ms", 1)
        # Delays are non-decreasing, so the first and last bound them all.
        if max(source_duration_ms, -delays[0], delays[-1]) > sys.float_info.max:
            raise ValueError(f"times beyond {sys.float_info.max:g} ms cannot be scored")
        _set(self, "utt_id", utt_id)
        _set(self, "tag", tag)
        _set(self, "ordinals", ordinals)
        _set(self, "delays", delays)
        _set(self, "source_duration_ms", source_duration_ms)
        _set(self, "ref_len", ref_len)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The ``(token_ordinal, delay_ms)`` pairs, built from the columns on each read."""
        return tuple(zip(self.ordinals, self.delays))


def validate_utterance(u: Utterance, tags: Iterable[Tag]) -> list[Diagnostic]:
    """Check the structural invariants of an utterance against some tags.

    `tags` is a :class:`TagSet` or any other iterable of tags, such as the
    utterance's own channel tags.  Returns an empty list iff the utterance
    is fully valid: at least one channel, pairwise-distinct channel tags all
    among `tags`, non-decreasing word times per channel, and no word
    colliding with a tag surface.
    """
    diags: list[Diagnostic] = []
    if not u.channels:
        diags.append(Diagnostic("no-channels", "utterance has no channels", utt_id=u.utt_id))

    seen: dict[str, int] = {}
    surfaces = {t.surface for t in tags}
    for ci, ch in enumerate(u.channels):
        s = ch.tag.surface
        if s in seen:
            diags.append(
                Diagnostic(
                    "duplicate-channel-tag",
                    f"tag {s!r} used by channels {seen[s]} and {ci}",
                    utt_id=u.utt_id,
                    tag=s,
                    index=ci,
                )
            )
        else:
            seen[s] = ci
        if s not in surfaces:
            diags.append(
                Diagnostic(
                    "unknown-channel-tag",
                    f"tag {s!r} is not in the tag set",
                    utt_id=u.utt_id,
                    tag=s,
                    index=ci,
                )
            )
        times, texts = ch.times, ch.texts
        if list(times) == sorted(times) and surfaces.isdisjoint(texts):
            continue
        prev = None
        for wi, (time, word) in enumerate(zip(times, texts)):
            if prev is not None and time < prev:
                diags.append(
                    Diagnostic(
                        "non-monotone-time",
                        f"time {time} after {prev} in channel {s!r}",
                        utt_id=u.utt_id,
                        tag=s,
                        index=wi,
                    )
                )
            prev = time
            if word in surfaces:
                diags.append(
                    Diagnostic(
                        "word-is-tag",
                        f"word at index {wi} equals tag surface {word!r}",
                        utt_id=u.utt_id,
                        tag=s,
                        index=wi,
                    )
                )
    return diags
