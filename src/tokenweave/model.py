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
from dataclasses import dataclass, field
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
    "SerializedToken",
    "SerializationMethod",
    "SerializedSequence",
    "GroupingConfig",
    "Diagnostic",
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


def _check_token_text(value: str, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string, got {value!r}")
    if value.split() != [value]:
        raise ValueError(f"{what} must not contain whitespace: {value!r}")


def _check_positive_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class TimedWord:
    """A single word and the millisecond offset at which it is emitted.

    Attributes:
        time: Emission offset from utterance start, non-negative integer ms.
        word: The word surface; non-empty, no whitespace characters.
    """

    time: int
    word: str

    def __post_init__(self) -> None:
        if not isinstance(self.time, int) or isinstance(self.time, bool) or self.time < 0:
            raise ValueError(f"time must be a non-negative integer, got {self.time!r}")
        _check_token_text(self.word, "word")


@dataclass(frozen=True, slots=True)
class Tag:
    """A channel marker token.

    Attributes:
        surface: Literal token string, e.g. ``"#ASR#"`` or ``"#ES#"``;
            never the reserved :data:`UNKNOWN_CHANNEL`.
        modality: Transcription or translation.
        language: BCP-47-style language code.
    """

    surface: str
    modality: Modality
    language: str

    def __post_init__(self) -> None:
        _check_token_text(self.surface, "tag surface")
        if self.surface == UNKNOWN_CHANNEL:
            raise ValueError(f"tag surface {UNKNOWN_CHANNEL!r} is reserved")
        if not isinstance(self.modality, Modality):
            raise ValueError(f"modality must be a Modality, got {self.modality!r}")
        if not isinstance(self.language, str) or not self.language:
            raise ValueError(f"language must be a non-empty string, got {self.language!r}")


@dataclass(frozen=True, slots=True)
class TagSet:
    """Ordered collection of tags; declaration order is tie-break priority.

    When two words from different channels share a timestamp, the channel
    whose tag is declared earlier wins, so transcription tags conventionally
    come first.
    """

    tags: tuple[Tag, ...]
    # surface -> tag, built once from `tags`.
    _by_surface: dict[str, Tag] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tags = tuple(self.tags)
        object.__setattr__(self, "tags", tags)
        if not tags:
            raise ValueError("a TagSet needs at least one tag")
        surfaces = [t.surface for t in tags]
        if len(set(surfaces)) != len(surfaces):
            raise ValueError(f"duplicate tag surfaces: {surfaces}")
        object.__setattr__(self, "_by_surface", {t.surface: t for t in tags})

    def __iter__(self):
        return iter(self.tags)

    def __contains__(self, surface: str) -> bool:
        return self.get(surface) is not None

    def get(self, surface: str) -> Tag | None:
        # Surfaces are strings; anything else (even unhashable) matches no tag.
        return self._by_surface.get(surface) if isinstance(surface, str) else None

    def priority(self, surface: str) -> int:
        """Index of `surface` in declaration order; len(tags) if unknown."""
        found = self.get(surface)
        return len(self.tags) if found is None else self.tags.index(found)

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tags)


@dataclass(frozen=True, slots=True, init=False)
class Channel:
    """One tagged output stream: a tag plus its timed words.

    Stored as two parallel columns, `times` (ms) and `texts` (word
    surfaces); `words` builds :class:`TimedWord` views of them on each read.
    Words are expected non-decreasing in time (a streaming model's emission
    trace is monotone by construction), but a violating channel is still
    constructible so that :func:`validate_utterance` can report it.
    """

    tag: Tag
    times: tuple[int, ...]
    texts: tuple[str, ...]

    def __init__(self, tag: Tag, words) -> None:
        """Build from TimedWord objects."""
        words = tuple(words)
        self._fill(tag, tuple([w.time for w in words]), tuple([w.word for w in words]))

    @classmethod
    def _from_columns(cls, tag: Tag, times: tuple[int, ...], texts: tuple[str, ...]) -> "Channel":
        """Build from columns of equal length."""
        ch = object.__new__(cls)
        ch._fill(tag, times, texts)
        return ch

    def _fill(self, tag, times, texts) -> None:
        # The checks of TimedWord, in bulk: for strings the join/split round
        # trip is exact iff every word is non-empty and has no whitespace.
        # On failure, TimedWord finds the first bad word and its message.
        try:
            ok = " ".join(texts).split() == list(texts)
        except TypeError:
            ok = False
        if not (ok and set(map(type, times)) <= {int} and min(times, default=0) >= 0):
            for t, w in zip(times, texts):
                TimedWord(t, w)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "texts", texts)

    @property
    def words(self) -> tuple[TimedWord, ...]:
        """One TimedWord per word, built from the columns on each read."""
        return tuple(map(TimedWord, self.times, self.texts))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, slots=True)
class Utterance:
    """All channels of one audio segment.

    Attributes:
        utt_id: Corpus-unique identifier.
        duration_ms: Source audio duration, positive integer ms.  Word times
            may exceed it: translation words routinely trail the audio.
        channels: One entry per output stream; tags must be pairwise distinct
            (reported by the validator, not the constructor).
    """

    utt_id: str
    duration_ms: int
    channels: tuple[Channel, ...]

    def __post_init__(self) -> None:
        _check_positive_int(self.duration_ms, "duration_ms")
        object.__setattr__(self, "channels", tuple(self.channels))

    def channel(self, surface: str) -> Channel | None:
        for ch in self.channels:
            if ch.tag.surface == surface:
                return ch
        return None


@dataclass(frozen=True, slots=True)
class TagToken:
    """A channel-switch marker in a serialized stream."""

    tag: Tag


@dataclass(frozen=True, slots=True)
class WordToken:
    """A word in a serialized stream.

    origin_time is the pre-grouping emission timestamp, carried so latency
    can be replayed without the source utterance.  It never affects the
    textual rendering.
    """

    word: str
    origin_time: int | None = None

    def __post_init__(self) -> None:
        _check_token_text(self.word, "word")


SerializedToken = TagToken | WordToken


@dataclass(frozen=True, slots=True)
class SerializationMethod:
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

    name: str
    gamma: float | None = None
    group_ms: int | None = None

    def __post_init__(self) -> None:
        if self.name == "inter_time":
            if self.gamma is not None:
                raise ValueError(f"inter_time takes no gamma, got {self.gamma!r}")
            if self.group_ms is not None:
                _check_positive_int(self.group_ms, "group_ms")
        elif self.name == "inter_gamma":
            if self.group_ms is not None:
                raise ValueError(f"inter_gamma takes no group_ms, got {self.group_ms!r}")
            if self.gamma is None:
                raise ValueError("inter_gamma requires a gamma value")
            gamma = self.gamma
            if not isinstance(gamma, (int, float)) or isinstance(gamma, bool) or not 0 <= gamma <= 1:
                raise ValueError(f"gamma must be a number within [0, 1], got {gamma!r}")
        else:
            raise ValueError(f"unknown serialization method {self.name!r}")

    def to_json(self) -> dict:
        out: dict = {"name": self.name}
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.group_ms is not None:
            out["group_ms"] = self.group_ms
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SerializationMethod":
        return cls(
            name=obj["name"],
            gamma=obj.get("gamma"),
            group_ms=obj.get("group_ms"),
        )


@dataclass(frozen=True, slots=True, init=False)
class SerializedSequence:
    """The flattened token stream a joint model would train on or emit.

    Stored as the two columns of its JSONL record: `items` holds the shared
    :class:`Tag` at each tag position and the word string at each word
    position (a ``Tag`` versus a ``str`` is what tells the two apart, so a
    word that spells a tag surface stays a word), and `origin_times` holds
    each word's origin time, always None at tag positions.  `tokens` builds
    :class:`TagToken`/:class:`WordToken` views of the columns on each read.

    Invariants (enforced at construction): every word is a non-empty string
    without whitespace, a non-empty sequence starts with a tag, tags only
    appear on channel switches (never twice in a row, never equal to the
    previous tag), and every word follows some tag.
    """

    utt_id: str
    items: tuple[Tag | str, ...]
    origin_times: tuple[int | None, ...]
    method: SerializationMethod

    def __init__(self, utt_id: str, tokens, method: SerializationMethod) -> None:
        """Build from TagToken and WordToken objects (a bare Tag or word string is taken as its item)."""
        items: list = []
        origin_times: list[int | None] = []
        for tok in tokens:
            if isinstance(tok, WordToken):
                items.append(tok.word)
                origin_times.append(tok.origin_time)
            else:
                items.append(tok.tag if isinstance(tok, TagToken) else tok)
                origin_times.append(None)
        self._fill(utt_id, tuple(items), tuple(origin_times), method)

    @classmethod
    def _from_columns(
        cls,
        utt_id: str,
        items: tuple[Tag | str, ...],
        origin_times: tuple[int | None, ...],
        method: SerializationMethod,
    ) -> "SerializedSequence":
        """Build from columns; `origin_times` must already be None at tag positions."""
        seq = object.__new__(cls)
        seq._fill(utt_id, items, origin_times, method)
        return seq

    def _fill(self, utt_id, items, origin_times, method) -> None:
        # Word text first, in bulk: for strings the join/split round trip is
        # exact iff every word is non-empty and has no whitespace.  On
        # failure, the per-word check finds the first bad word and its message.
        words = [x for x in items if not isinstance(x, Tag)]
        try:
            words_ok = " ".join(words).split() == words
        except TypeError:
            words_ok = False
        if not words_ok:
            for w in words:
                _check_token_text(w, "word")
        problems = check_sequence(items)
        if problems:
            raise ValueError(f"invalid serialized sequence {utt_id!r}: {problems[0]}")
        object.__setattr__(self, "utt_id", utt_id)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "origin_times", origin_times)
        object.__setattr__(self, "method", method)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def tokens(self) -> tuple[SerializedToken, ...]:
        """One TagToken or WordToken per position, built from the columns on each read."""
        return tuple(
            TagToken(x) if isinstance(x, Tag) else WordToken(x, t)
            for x, t in zip(self.items, self.origin_times)
        )

    @property
    def word_tokens(self) -> tuple[WordToken, ...]:
        """The WordTokens of `tokens`, built on each read."""
        return tuple(
            WordToken(x, t) for x, t in zip(self.items, self.origin_times) if not isinstance(x, Tag)
        )


def check_sequence(tokens) -> list[str]:
    """Single linear scan over the serialized-sequence invariants.

    `tokens` holds TagToken/WordToken objects or a sequence's items (a Tag
    or a word string).  Returns one message per violation; an empty list
    means the token stream is well-formed.
    """
    problems: list[str] = []
    prev_tag: Tag | None = None
    prev_was_tag = False
    for i, tok in enumerate(tokens):
        if isinstance(tok, str):
            tag = None
        elif isinstance(tok, Tag):
            tag = tok
        elif isinstance(tok, WordToken):
            tag = None
            tok = tok.word
        elif isinstance(tok, TagToken):
            tag = tok.tag
        else:
            problems.append(f"unknown token type at index {i}: {tok!r}")
            continue
        if tag is None:
            if prev_tag is None:
                problems.append(f"word {tok!r} at index {i} precedes any tag")
            prev_was_tag = False
            continue
        if prev_was_tag:
            problems.append(f"adjacent tag tokens at index {i}")
        elif prev_tag is not None and tag.surface == prev_tag.surface:
            problems.append(f"tag {tag.surface!r} repeated without a switch at index {i}")
        prev_tag = tag
        prev_was_tag = True
    return problems


@dataclass(frozen=True, slots=True)
class GroupingConfig:
    """Time-step grouping window; ``step_ms=None`` disables grouping."""

    step_ms: int | None = None

    def __post_init__(self) -> None:
        if self.step_ms is not None:
            _check_positive_int(self.step_ms, "step_ms")


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One validation or parse finding.  Diagnostics are data, not failures.

    Attributes:
        code: Stable machine-readable kind, e.g. ``"non-monotone-time"``.
        message: Human-readable description.
        utt_id: Utterance the finding belongs to, when known.
        tag: Channel tag surface involved, when applicable.
        index: Offending position (word index, token index, or line number).
    """

    code: str
    message: str
    utt_id: str | None = None
    tag: str | None = None
    index: int | None = None

    def to_json(self) -> dict:
        out: dict = {"code": self.code, "message": self.message}
        if self.utt_id is not None:
            out["utt_id"] = self.utt_id
        if self.tag is not None:
            out["tag"] = self.tag
        if self.index is not None:
            out["index"] = self.index
        return out


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
