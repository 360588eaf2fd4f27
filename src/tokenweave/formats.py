"""Versioned JSONL formats for corpora, serialized streams, channels, traces.

Every line carries a schema version field ``"v": 1`` and is written in
canonical form: fixed key order, no insignificant whitespace, UTF-8 without
escaping.  Writing what was just read reproduces the file byte for byte.

Record readers are generators that hold one record at a time.  An invalid
line is skipped with a diagnostic carrying its 1-based line number, appended
to the caller's list.  A path of ``"-"`` means stdin or stdout, which are read
and written by a file's text rule: strict UTF-8 with universal newlines,
whatever encoding the interpreter gave the standard streams.  A serialized
record's tags are its tokens at null origin times that spell a tag surface:
one declared in a tag set, or, read without one, any string that can be one.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import nullcontext
from itertools import chain, compress, repeat
from operator import attrgetter, is_, itemgetter
from typing import IO, ContextManager, Iterable, Iterator

from .model import (
    Channel,
    Diagnostic,
    EmissionTrace,
    Modality,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    TimedWord,
    UNKNOWN_CHANNEL,
    Utterance,
    _expect_json,
    validate_utterance,
)

__all__ = [
    "SCHEMA_VERSION",
    "read_corpus",
    "write_corpus",
    "read_serialized",
    "write_serialized",
    "read_channels",
    "write_channels",
    "read_traces",
    "write_traces",
    "read_tag_set",
    "read_json",
    "write_tag_set",
    "utterance_to_json",
    "utterance_from_json",
    "serialized_to_json",
    "serialized_from_json",
    "trace_to_json",
    "trace_from_json",
]

SCHEMA_VERSION = 1


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _utf8(stream: IO[str], errors: str = "strict") -> IO[str]:
    """`stream` set to UTF-8 with universal newlines and `errors`, as :func:`open` sets a file.

    An encoding layer is set in place and stays open; a stream that holds
    text without one, such as an ``io.StringIO``, is returned as it is.
    """
    if isinstance(stream, io.TextIOWrapper):
        stream.reconfigure(encoding="utf-8", errors=errors, newline=None)
    return stream


def _open(path: str, mode: str) -> ContextManager[IO[str]]:
    """`path` opened as UTF-8 text in `mode` ("r" or "w"); "-" is stdin or stdout, set alike, which stays open."""
    if path == "-":
        return nullcontext(_utf8(sys.stdin if mode == "r" else sys.stdout))
    return open(path, mode, encoding="utf-8")


def _read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) pairs; decode errors name the path."""
    with _open(path, "r") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8: {exc}") from exc


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a newline to `path`.

    `lines` may be drawn from an input as they are written.  The first one
    is drawn before `path` is opened, so an input that cannot be opened
    leaves `path` untouched; a later fault leaves the lines written before it.
    """
    lines = iter(lines)
    first = next(lines, None)
    with _open(path, "w") as fh:
        if first is not None:
            lines = chain((first,), lines)
        for line in lines:
            fh.write(line)
            fh.write("\n")


# Why a line or document nested past the recursion limit is refused.
_TOO_DEEP = "nested too deeply"


def _decode(text: str):
    """The JSON value `text` holds; a ValueError if it is not JSON, is nested too deeply or escapes a lone surrogate."""
    try:
        obj = json.loads(text)
        if "\\u" in text:
            _dumps(obj).encode("utf-8")
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    except UnicodeEncodeError:
        raise ValueError("escaped lone surrogate: the text has no UTF-8 form") from None
    return obj


def read_json(path: str, what: str = "JSON"):
    """Parse a whole file as one JSON document; errors name the path and `what` it should be."""
    text = "".join(line for _, line in _read_lines(path))
    try:
        return _decode(text)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid {what}: {exc}") from exc


def _check_version(obj: dict) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"record must be a JSON object, got {type(obj).__name__}")
    v = obj.get("v")
    if type(v) is not int or v != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {v!r} (expected {SCHEMA_VERSION})")


_utt_id = attrgetter("utt_id")


class _Invalid(ValueError):
    """Raised by a record parser with the validation diagnostics of its record."""

    def __init__(self, problems: list[Diagnostic]) -> None:
        super().__init__(problems[0].message)
        self.problems = problems


def _read_jsonl(path: str, parse, diags: list[Diagnostic], key=None) -> Iterator:
    """The record loop of every JSONL reader: yield records in line order, append diagnostics to `diags`.

    Each non-blank line of `path` is decoded and goes through `parse`.  A
    line that does not decode (not JSON, nested too deeply, or an escaped
    lone surrogate), or whose `parse` raises a ValueError, KeyError or
    TypeError, is a ``bad-record`` diagnostic; an :class:`_Invalid` carries
    its own diagnostics instead.  With `key`, a record whose key was already
    read is a ``duplicate-utt-id`` diagnostic: the first one wins.  Only the
    current record and the set of keys seen are held.
    """
    seen: set[str] = set()
    for lineno, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            record = parse(_decode(line))
        except _Invalid as exc:
            diags.extend(
                Diagnostic(p.code, f"{path}:{lineno}: {p.message}", utt_id=p.utt_id, tag=p.tag, index=lineno)
                for p in exc.problems
            )
            continue
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            message = _TOO_DEEP if isinstance(exc, RecursionError) else exc
            diags.append(Diagnostic("bad-record", f"{path}:{lineno}: {message}", index=lineno))
            continue
        if key is not None:
            utt_id = key(record)
            if utt_id in seen:
                diags.append(
                    Diagnostic(
                        "duplicate-utt-id",
                        f"{path}:{lineno}: duplicate utt_id {utt_id!r}; line skipped",
                        utt_id=utt_id,
                        index=lineno,
                    )
                )
                continue
            seen.add(utt_id)
        yield record


# ---------------------------------------------------------------------------
# corpus records


def utterance_to_json(u: Utterance) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "utt_id": u.utt_id,
        "duration_ms": u.duration_ms,
        "channels": [
            {
                "tag": ch.tag.surface,
                "modality": ch.tag.modality.value,
                "lang": ch.tag.language,
                "words": [{"t": t, "w": w} for t, w in zip(ch.times, ch.texts)],
            }
            for ch in u.channels
        ],
    }


def utterance_from_json(obj: dict) -> Utterance:
    _check_version(obj)
    channels = []
    for ch in _expect_json(obj["channels"], "channels", list):
        tag = Tag(ch["tag"], Modality(ch["modality"]), ch["lang"])
        words = _expect_json(ch["words"], "words", list)
        try:
            channels.append(Channel._from_columns(tag, tuple([w["t"] for w in words]), tuple([w["w"] for w in words])))
        except (KeyError, TypeError):
            # Word by word, so that the first faulty word raises its own error.
            for w in words:
                TimedWord(w["t"], w["w"])
            raise
    return Utterance(
        utt_id=obj["utt_id"],
        duration_ms=obj["duration_ms"],
        channels=tuple(channels),
    )


def _corpus_record(obj) -> Utterance:
    u = utterance_from_json(obj)
    problems = validate_utterance(u, [ch.tag for ch in u.channels])
    if problems:
        raise _Invalid(problems)
    return u


def read_corpus(path: str, diags: list[Diagnostic]) -> Iterator[Utterance]:
    """Yield the utterances of a JSONL corpus.  Invalid lines are skipped with a diagnostic in `diags`.

    Each record is self-describing (modality and language stored per
    channel), so no tag sidecar is needed; the utterance is additionally
    validated against its own declared tags (monotone times, no duplicate
    channel tags, no word equal to a tag surface).
    """
    return _read_jsonl(path, _corpus_record, diags, _utt_id)


def write_corpus(corpus: Iterable[Utterance], path: str) -> None:
    _write_lines(path, (_dumps(utterance_to_json(u)) for u in corpus))


# ---------------------------------------------------------------------------
# serialized records


def serialized_to_json(s: SerializedSequence) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "utt_id": s.utt_id,
        "method": s.method.to_json(),
        "tokens": [x.surface if isinstance(x, Tag) else x for x in s.items],
        "origin_times": list(s.origin_times),
    }


def serialized_from_json(obj: dict, tags: TagSet | None, known: dict[str, Tag] | None = None) -> SerializedSequence:
    """A serialized record; a token is a tag iff its origin time is null and it spells a tag surface.

    A surface is one declared in `tags`, or, with `tags` None, any string
    that can be one (non-empty, without whitespace, not the reserved unknown
    bucket): a transcription tag of undetermined language ("und"), since the
    stream holds no modality or language, with one Tag per surface kept in
    `known` across calls.  Any other token is a word, so a timed token that
    spells a surface is a word.  `build` stamps an origin time on every word;
    a record without `origin_times` has a null one at every token.
    """
    _check_version(obj)
    tokens = _expect_json(obj["tokens"], "tokens", list)
    origin_times = obj.get("origin_times")
    if origin_times is None:
        origin_times = [None] * len(tokens)
    if len(_expect_json(origin_times, "origin_times", list)) != len(tokens):
        raise ValueError(f"origin_times length {len(origin_times)} != tokens length {len(tokens)}")
    method = SerializationMethod.from_json(obj["method"])
    if tags is not None:
        lookup = tags._by_surface
    else:
        lookup = {} if known is None else known
        for s in compress(tokens, map(is_, origin_times, repeat(None))):
            if isinstance(s, str) and s not in lookup and s.split() == [s] and s != UNKNOWN_CHANNEL:
                lookup[s] = Tag(s, Modality.TRANSCRIPTION, "und")
    items = tuple([lookup.get(x, x) if t is None and isinstance(x, str) else x for x, t in zip(tokens, origin_times)])
    return SerializedSequence(obj["utt_id"], items, tuple(origin_times), method)


def read_serialized(path: str, tags: TagSet | None, diags: list[Diagnostic]) -> Iterator[SerializedSequence]:
    """Yield JSONL serialized records whose tags are their null-time tokens that spell a surface.

    A surface is one declared in `tags`, or, with `tags` None, any string that
    can be one, as in :func:`serialized_from_json`, with one Tag per surface for the file.
    """
    known: dict[str, Tag] = {}
    return _read_jsonl(path, lambda obj: serialized_from_json(obj, tags, known), diags, _utt_id)


def write_serialized(seqs: Iterable[SerializedSequence], path: str) -> None:
    _write_lines(path, (_dumps(serialized_to_json(s)) for s in seqs))


# ---------------------------------------------------------------------------
# demuxed channel records


def channels_to_json(utt_id: str, channels: dict[str, tuple[str, ...] | list[str]]) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "utt_id": utt_id,
        "channels": [{"tag": tag, "words": words} for tag, words in channels.items()],
    }


def channels_from_json(obj: dict) -> tuple[str, dict[str, tuple[str, ...]]]:
    _check_version(obj)
    out: dict[str, tuple[str, ...]] = {}
    for ch in obj["channels"]:
        tag = _expect_json(ch["tag"], "tag", str)
        if tag in out:
            raise ValueError(f"duplicate channel tag {tag!r}")
        words = tuple(_expect_json(ch["words"], "words", list))
        if not set(map(type, words)) <= {str}:
            for w in words:
                _expect_json(w, "word", str)  # raises at the first word that is not a string
        out[tag] = words
    return _expect_json(obj["utt_id"], "utt_id", str), out


def read_channels(path: str, diags: list[Diagnostic]) -> Iterator[tuple[str, dict[str, tuple[str, ...]]]]:
    """Yield demuxed channel records as (utt_id, {tag: words}) pairs."""
    return _read_jsonl(path, channels_from_json, diags, itemgetter(0))


def write_channels(records: Iterable[tuple[str, dict[str, tuple[str, ...] | list[str]]]], path: str) -> None:
    _write_lines(path, (_dumps(channels_to_json(utt_id, chans)) for utt_id, chans in records))


# ---------------------------------------------------------------------------
# emission trace records


def trace_to_json(tr: EmissionTrace) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "utt_id": tr.utt_id,
        "tag": tr.tag,
        "source_duration_ms": tr.source_duration_ms,
        "ref_len": tr.ref_len,
        "entries": [[ordinal, delay] for ordinal, delay in zip(tr.ordinals, tr.delays)],
    }


def trace_from_json(obj: dict) -> EmissionTrace:
    _check_version(obj)
    return EmissionTrace(obj["utt_id"], obj["tag"], obj["entries"], obj["source_duration_ms"], obj["ref_len"])


def read_traces(path: str, diags: list[Diagnostic]) -> Iterator[EmissionTrace]:
    """Yield JSONL traces.  A trace LAAL cannot score is a bad line, not a fatal error."""
    return _read_jsonl(path, trace_from_json, diags)


def write_traces(traces: Iterable[EmissionTrace], path: str) -> None:
    _write_lines(path, (_dumps(trace_to_json(tr)) for tr in traces))


# ---------------------------------------------------------------------------
# tag set sidecar (single JSON document, not JSONL)


def _tags_to_json(tags: Iterable[Tag]) -> list[dict]:
    """The JSON list of `{"surface","modality","lang"}` objects that a tag set and a synth config hold."""
    return [{"surface": t.surface, "modality": t.modality.value, "lang": t.language} for t in tags]


def _tags_from_json(value, what: str) -> tuple[Tag, ...]:
    """Tags from a list written by :func:`_tags_to_json`; a JSON type error names `what`."""
    tags = []
    for i, t in enumerate(_expect_json(value, what, list)):
        t = _expect_json(t, f"{what}[{i}]", dict)
        tags.append(Tag(t["surface"], Modality(t["modality"]), t["lang"]))
    return tuple(tags)


def tag_set_to_json(tags: TagSet) -> dict:
    return {"v": SCHEMA_VERSION, "tags": _tags_to_json(tags.tags)}


def tag_set_from_json(obj: dict) -> TagSet:
    _check_version(obj)
    return TagSet(_tags_from_json(obj["tags"], "tags"))


def read_tag_set(path: str) -> TagSet:
    obj = read_json(path, "tag set")
    try:
        return tag_set_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: invalid tag set: {exc}") from exc


def write_tag_set(tags: TagSet, path: str) -> None:
    _write_lines(path, [_dumps(tag_set_to_json(tags))])
