"""Versioned JSONL formats for corpora, serialized streams, channels, traces.

Every line carries a schema version field ``"v": 1`` and is written in
canonical form: fixed key order, no insignificant whitespace, UTF-8 without
escaping.  Writing what was just read reproduces the file byte for byte.

Readers are line oriented and forgiving: an invalid line yields a diagnostic
carrying its 1-based line number and is skipped, so one bad record never
poisons a corpus.  A path of ``"-"`` means stdin or stdout.
"""

from __future__ import annotations

import json
import sys
from operator import attrgetter, itemgetter
from typing import IO, Iterable, Iterator

from .metrics import EmissionTrace
from .model import (
    Channel,
    Diagnostic,
    Modality,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    TimedWord,
    Utterance,
    validate_utterance,
)
from .serialize import render_text

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
    "write_serialized_text",
    "read_text_lines",
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


def _open_read(path: str) -> tuple[IO[str], bool]:
    if path == "-":
        return sys.stdin, False
    return open(path, "r", encoding="utf-8"), True


def _open_write(path: str) -> tuple[IO[str], bool]:
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) pairs; decode errors name the path."""
    fh, close = _open_read(path)
    try:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8: {exc}") from exc
    finally:
        if close:
            fh.close()


def _write_lines(path: str, lines: Iterable[str]) -> None:
    fh, close = _open_write(path)
    try:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    finally:
        if close:
            fh.close()


def read_json(path: str, what: str = "JSON"):
    """Parse a whole file as one JSON document; errors name the path and `what` it should be."""
    fh, close = _open_read(path)
    try:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8: {exc}") from exc
    finally:
        if close:
            fh.close()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid {what}: {exc}") from exc


_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "integer"}


def _expect_json(value, what: str, kind: type):
    """`value` if it has the JSON type `kind`, else a ValueError naming `what`."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _expect_int_pair(value, what: str, shape: str) -> tuple[int, int]:
    """`value` as a tuple if it is a JSON list of two integers, else a ValueError naming `what`."""
    pair = _expect_json(value, what, list)
    if len(pair) != 2:
        raise ValueError(f"{what} must be a {shape} pair, got {pair!r}")
    return (_expect_json(pair[0], f"{what}[0]", int), _expect_json(pair[1], f"{what}[1]", int))


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


def _read_jsonl(path: str, parse, key=None) -> tuple[list, list[Diagnostic]]:
    """The record loop of every JSONL reader: records in line order, and diagnostics.

    Each non-blank line of `path` is decoded and goes through `parse`.  A
    line that does not decode (not JSON, or an escaped lone surrogate), or
    whose `parse` raises a ValueError, KeyError or TypeError, is a
    ``bad-record`` diagnostic; an :class:`_Invalid` carries its own
    diagnostics instead.  With `key`, a record whose key was already read is
    a ``duplicate-utt-id`` diagnostic: the first one wins.
    """
    out: list = []
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for lineno, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if "\\u" in line:
                _dumps(obj).encode("utf-8")  # an escaped lone surrogate could not be written back
            record = parse(obj)
        except _Invalid as exc:
            diags.extend(
                Diagnostic(p.code, f"{path}:{lineno}: {p.message}", utt_id=p.utt_id, tag=p.tag, index=lineno)
                for p in exc.problems
            )
            continue
        except (ValueError, KeyError, TypeError) as exc:
            if isinstance(exc, UnicodeEncodeError):
                exc = "escaped lone surrogate: the text has no UTF-8 form"
            diags.append(Diagnostic("bad-record", f"{path}:{lineno}: {exc}", index=lineno))
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
        out.append(record)
    return out, diags


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
    for ch in obj["channels"]:
        tag = Tag(ch["tag"], Modality(ch["modality"]), ch["lang"])
        words = ch["words"]
        try:
            channel = Channel._from_columns(tag, tuple([w["t"] for w in words]), tuple([w["w"] for w in words]))
        except (KeyError, TypeError):
            # Word by word, so that the first faulty word raises its own error.
            channel = Channel(tag, [TimedWord(w["t"], w["w"]) for w in words])
        channels.append(channel)
    return Utterance(
        utt_id=_expect_json(obj["utt_id"], "utt_id", str),
        duration_ms=obj["duration_ms"],
        channels=tuple(channels),
    )


def _corpus_record(obj) -> Utterance:
    u = utterance_from_json(obj)
    problems = validate_utterance(u, [ch.tag for ch in u.channels])
    if problems:
        raise _Invalid(problems)
    return u


def read_corpus(path: str) -> tuple[list[Utterance], list[Diagnostic]]:
    """Parse a JSONL corpus.  Invalid lines are skipped with a diagnostic.

    Each record is self-describing (modality and language stored per
    channel), so no tag sidecar is needed; the utterance is additionally
    validated against its own declared tags (monotone times, no duplicate
    channel tags, no word equal to a tag surface).
    """
    return _read_jsonl(path, _corpus_record, _utt_id)


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


def serialized_from_json(obj: dict, tags: TagSet | None) -> SerializedSequence:
    """A serialized record; with `tags` None, no token is a tag."""
    _check_version(obj)
    raw_tokens = _expect_json(obj["tokens"], "tokens", list)
    origin_times = obj.get("origin_times")
    if origin_times is None:
        origin_times = [None] * len(raw_tokens)
    if len(_expect_json(origin_times, "origin_times", list)) != len(raw_tokens):
        raise ValueError(f"origin_times length {len(origin_times)} != tokens length {len(raw_tokens)}")
    # In bulk, as Channel checks its times; on failure, entry by entry for the message.
    if not set(map(type, origin_times)) <= {int, type(None)} or min(filter(None, origin_times), default=0) < 0:
        for i, t in enumerate(origin_times):
            if t is not None and _expect_json(t, f"origin_times[{i}]", int) < 0:
                raise ValueError(f"origin_times[{i}] must be non-negative, got {t}")
    utt_id = _expect_json(obj["utt_id"], "utt_id", str)
    method = _expect_json(obj["method"], "method", dict)
    _expect_json(method["name"], "method name", str)
    method = SerializationMethod.from_json(method)
    # One lookup per token: a declared surface becomes its Tag, anything else
    # stays as it is and must pass the word check.
    by_surface = {} if tags is None else tags._by_surface
    try:
        items = tuple([by_surface.get(text, text) for text in raw_tokens])
    except TypeError:  # an unhashable token, which the word check rejects
        items = tuple([by_surface.get(text, text) if isinstance(text, str) else text for text in raw_tokens])
    # An origin time at a tag position is dropped.
    origins = tuple([None if isinstance(x, Tag) else t for x, t in zip(items, origin_times)])
    return SerializedSequence._from_columns(utt_id, items, origins, method)


def read_serialized(path: str, tags: TagSet) -> tuple[list[SerializedSequence], list[Diagnostic]]:
    """Parse JSONL serialized records, resolving tag surfaces via `tags`."""
    return _read_jsonl(path, lambda obj: serialized_from_json(obj, tags), _utt_id)


def write_serialized(seqs: Iterable[SerializedSequence], path: str) -> None:
    _write_lines(path, (_dumps(serialized_to_json(s)) for s in seqs))


def write_serialized_text(seqs: Iterable[SerializedSequence], path: str) -> None:
    """Plain-text export: one rendered line per sequence, timestamps dropped."""
    _write_lines(path, (render_text(s) for s in seqs))


def read_text_lines(path: str) -> list[tuple[int, str]]:
    """Read raw lines (1-based numbering), stripped of the trailing newline."""
    return [(lineno, line.rstrip("\n")) for lineno, line in _read_lines(path)]


# ---------------------------------------------------------------------------
# demuxed channel records


def channels_to_json(utt_id: str, channels: dict[str, tuple[str, ...] | list[str]]) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "utt_id": utt_id,
        "channels": [
            {"tag": tag, "words": list(words)} for tag, words in channels.items()
        ],
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


def read_channels(path: str) -> tuple[dict[str, dict[str, tuple[str, ...]]], list[Diagnostic]]:
    """Parse demuxed channel records into {utt_id: {tag: words}}."""
    records, diags = _read_jsonl(path, channels_from_json, itemgetter(0))
    return dict(records), diags


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
        "entries": [[ordinal, delay] for ordinal, delay in tr.entries],
    }


def trace_from_json(obj: dict) -> EmissionTrace:
    _check_version(obj)
    return EmissionTrace(
        utt_id=_expect_json(obj["utt_id"], "utt_id", str),
        tag=_expect_json(obj["tag"], "tag", str),
        entries=tuple(
            _expect_int_pair(e, f"entries[{i}]", "[ordinal, delay]")
            for i, e in enumerate(_expect_json(obj["entries"], "entries", list))
        ),
        source_duration_ms=_expect_json(obj["source_duration_ms"], "source_duration_ms", int),
        ref_len=_expect_json(obj["ref_len"], "ref_len", int),
    )


def read_traces(path: str) -> tuple[list[EmissionTrace], list[Diagnostic]]:
    """Parse JSONL traces.  A trace LAAL cannot score is a bad line, not a fatal error."""
    return _read_jsonl(path, trace_from_json)


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
