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


def _check_version(obj: dict) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"record must be a JSON object, got {type(obj).__name__}")
    v = obj.get("v")
    if v != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {v!r} (expected {SCHEMA_VERSION})")


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
        tag = Tag(
            id=ch["tag"],
            surface=ch["tag"],
            modality=Modality(ch["modality"]),
            language=ch["lang"],
        )
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


def read_corpus(path: str) -> tuple[list[Utterance], list[Diagnostic]]:
    """Parse a JSONL corpus.  Invalid lines are skipped with a diagnostic.

    Each record is self-describing (modality and language stored per
    channel), so no tag sidecar is needed; the utterance is additionally
    validated against its own declared tags (monotone times, no duplicate
    channel tags, no word equal to a tag surface).
    """
    corpus: list[Utterance] = []
    diags: list[Diagnostic] = []
    seen_ids: set[str] = set()
    for lineno, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            u = utterance_from_json(obj)
            own_tags = TagSet(tuple(ch.tag for ch in u.channels))
        except (ValueError, KeyError, TypeError) as exc:
            diags.append(
                Diagnostic("bad-record", f"{path}:{lineno}: {exc}", index=lineno)
            )
            continue
        problems = validate_utterance(u, own_tags)
        if problems:
            for p in problems:
                diags.append(
                    Diagnostic(p.code, f"{path}:{lineno}: {p.message}", utt_id=p.utt_id, tag=p.tag, index=lineno)
                )
            continue
        if u.utt_id in seen_ids:
            diags.append(
                Diagnostic(
                    "duplicate-utt-id",
                    f"{path}:{lineno}: duplicate utt_id {u.utt_id!r}; line skipped",
                    utt_id=u.utt_id,
                    index=lineno,
                )
            )
            continue
        seen_ids.add(u.utt_id)
        corpus.append(u)
    return corpus, diags


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


def serialized_from_json(obj: dict, tags: TagSet) -> SerializedSequence:
    _check_version(obj)
    raw_tokens = obj["tokens"]
    origin_times = obj.get("origin_times")
    if origin_times is None:
        origin_times = [None] * len(raw_tokens)
    if len(origin_times) != len(raw_tokens):
        raise ValueError(
            f"origin_times length {len(origin_times)} != tokens length {len(raw_tokens)}"
        )
    # One lookup per token: a declared surface becomes its Tag, anything else
    # stays as it is and must pass the word check.
    by_surface = tags._by_surface
    try:
        items = tuple([by_surface.get(text, text) for text in raw_tokens])
    except TypeError:  # an unhashable token, which the word check rejects
        items = tuple([by_surface.get(text, text) if isinstance(text, str) else text for text in raw_tokens])
    # An origin time at a tag position is dropped.
    origins = tuple([None if isinstance(x, Tag) else t for x, t in zip(items, origin_times)])
    return SerializedSequence._from_columns(
        _expect_json(obj["utt_id"], "utt_id", str), items, origins, SerializationMethod.from_json(obj["method"])
    )


def read_serialized(path: str, tags: TagSet) -> tuple[list[SerializedSequence], list[Diagnostic]]:
    """Parse JSONL serialized records, resolving tag surfaces via `tags`."""
    return _parse_serialized(path, _decode_lines(path), tags)


def _decode_lines(path: str) -> Iterator[tuple[int, object]]:
    """Yield (line number, decoded JSON value or its decode error) per non-blank line."""
    for lineno, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            obj = exc
        yield lineno, obj


def _parse_serialized(
    path: str, records: Iterable[tuple[int, object]], tags: TagSet
) -> tuple[list[SerializedSequence], list[Diagnostic]]:
    """`read_serialized` of lines that :func:`_decode_lines` already decoded."""
    out: list[SerializedSequence] = []
    diags: list[Diagnostic] = []
    seen_ids: set[str] = set()
    for lineno, obj in records:
        try:
            if isinstance(obj, ValueError):
                raise obj  # the line is not JSON
            s = serialized_from_json(obj, tags)
        except (ValueError, KeyError, TypeError) as exc:
            diags.append(Diagnostic("bad-record", f"{path}:{lineno}: {exc}", index=lineno))
            continue
        if s.utt_id in seen_ids:
            diags.append(
                Diagnostic(
                    "duplicate-utt-id",
                    f"{path}:{lineno}: duplicate utt_id {s.utt_id!r}; line skipped",
                    utt_id=s.utt_id,
                    index=lineno,
                )
            )
            continue
        seen_ids.add(s.utt_id)
        out.append(s)
    return out, diags


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
        tag = ch["tag"]
        if tag in out:
            raise ValueError(f"duplicate channel tag {tag!r}")
        out[tag] = tuple(str(w) for w in ch["words"])
    return _expect_json(obj["utt_id"], "utt_id", str), out


def read_channels(path: str) -> tuple[dict[str, dict[str, tuple[str, ...]]], list[Diagnostic]]:
    """Parse demuxed channel records into {utt_id: {tag: words}}."""
    out: dict[str, dict[str, tuple[str, ...]]] = {}
    diags: list[Diagnostic] = []
    for lineno, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            utt_id, channels = channels_from_json(obj)
        except (ValueError, KeyError, TypeError) as exc:
            diags.append(Diagnostic("bad-record", f"{path}:{lineno}: {exc}", index=lineno))
            continue
        if utt_id in out:
            diags.append(
                Diagnostic(
                    "duplicate-utt-id",
                    f"{path}:{lineno}: duplicate utt_id {utt_id!r}; line skipped",
                    utt_id=utt_id,
                    index=lineno,
                )
            )
            continue
        out[utt_id] = channels
    return out, diags


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
        utt_id=obj["utt_id"],
        tag=obj["tag"],
        entries=tuple((int(o), int(d)) for o, d in obj["entries"]),
        source_duration_ms=obj["source_duration_ms"],
        ref_len=obj["ref_len"],
    )


def read_traces(path: str) -> tuple[list[EmissionTrace], list[Diagnostic]]:
    """Parse JSONL traces.  A trace LAAL cannot score is a bad line, not a fatal error."""
    out: list[EmissionTrace] = []
    diags: list[Diagnostic] = []
    for lineno, line in _read_lines(path):
        if not line.strip():
            continue
        try:
            tr = trace_from_json(json.loads(line))
            if not tr.entries:
                raise ValueError(f"empty trace for {tr.utt_id!r}/{tr.tag!r}")
            if tr.source_duration_ms < 1:
                raise ValueError(f"source_duration_ms must be >= 1, got {tr.source_duration_ms}")
            out.append(tr)
        except (ValueError, KeyError, TypeError) as exc:
            diags.append(Diagnostic("bad-record", f"{path}:{lineno}: {exc}", index=lineno))
    return out, diags


def write_traces(traces: Iterable[EmissionTrace], path: str) -> None:
    _write_lines(path, (_dumps(trace_to_json(tr)) for tr in traces))


# ---------------------------------------------------------------------------
# tag set sidecar (single JSON document, not JSONL)


def tag_set_to_json(tags: TagSet) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "tags": [
            {"surface": t.surface, "modality": t.modality.value, "lang": t.language}
            for t in tags.tags
        ],
    }


def tag_set_from_json(obj: dict) -> TagSet:
    _check_version(obj)
    return TagSet(
        tuple(
            Tag(
                id=t["surface"],
                surface=t["surface"],
                modality=Modality(t["modality"]),
                language=t["lang"],
            )
            for t in obj["tags"]
        )
    )


def read_tag_set(path: str) -> TagSet:
    obj = read_json(path, "tag set")
    try:
        return tag_set_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: invalid tag set: {exc}") from exc


def write_tag_set(tags: TagSet, path: str) -> None:
    fh, close = _open_write(path)
    try:
        fh.write(_dumps(tag_set_to_json(tags)))
        fh.write("\n")
    finally:
        if close:
            fh.close()
