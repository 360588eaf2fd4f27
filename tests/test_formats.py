from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import pickle
import re
import tempfile
from itertools import compress, repeat
from operator import attrgetter, is_, itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tokenweave import (
    Channel,
    Diagnostic,
    EmissionTrace,
    GroupingConfig,
    Modality,
    ReplayPolicy,
    SerializationMethod,
    SerializedSequence,
    SynthConfig,
    Tag,
    TagSet,
    TagToken,
    TimedWord,
    UNKNOWN_CHANNEL,
    Utterance,
    WordToken,
    count_switches,
    inter_time,
    replay,
    synth_corpus,
    validate_utterance,
)
from tokenweave.formats import (
    _check_version,
    _dumps,
    _expect_json,
    _read_jsonl,
    _read_lines,
    _utf8,
    _write_lines,
    channels_from_json,
    read_channels,
    read_corpus,
    read_serialized,
    read_tag_set,
    read_traces,
    serialized_from_json,
    serialized_to_json,
    trace_from_json,
    trace_to_json,
    utterance_from_json,
    utterance_to_json,
    write_channels,
    write_corpus,
    write_serialized,
    write_tag_set,
    write_traces,
)
from tokenweave.serialize import assign_group, render_text
from conftest import ASR, DE, ES


def _small_corpus():
    return list(
        synth_corpus(
            SynthConfig(
                seed=9,
                num_utterances=30,
                words_per_channel=(0, 12),
                word_rate_ms=(80, 300),
                translation_lag_ms=(0, 400),
                reorder_window_ms=100,
                channels=(ASR, ES, DE),
                vocab_size=50,
            )
        )
    )


def _read(reader, *args):
    """Every record `reader` yields, as a list, and the diagnostics it appended."""
    diags: list[Diagnostic] = []
    return list(reader(*args, diags)), diags


class TestCorpusRoundTrip:
    def test_objects_survive(self, tmp_path):
        corpus = _small_corpus()
        path = str(tmp_path / "corpus.jsonl")
        write_corpus(corpus, path)
        back, diags = _read(read_corpus, path)
        assert diags == []
        assert back == corpus

    def test_bytes_are_canonical(self, tmp_path):
        corpus = _small_corpus()
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        write_corpus(corpus, first)
        back, _ = _read(read_corpus, first)
        write_corpus(back, second)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_unicode_written_raw(self, tmp_path, demo_utterance):
        path = tmp_path / "u.jsonl"
        blob = utterance_to_json(demo_utterance)
        blob["channels"][1]["words"][0]["w"] = "está"
        write_corpus([utterance_from_json(blob)], str(path))
        raw = path.read_bytes()
        assert "está".encode("utf-8") in raw
        assert b"\\u" not in raw

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert _read(read_corpus, str(path)) == ([], [])

    def test_blank_lines_skipped(self, tmp_path, demo_utterance):
        path = tmp_path / "c.jsonl"
        line = json.dumps(utterance_to_json(demo_utterance))
        path.write_text(f"\n{line}\n\n")
        corpus, diags = _read(read_corpus, str(path))
        assert diags == []
        assert [u.utt_id for u in corpus] == ["demo-001"]


class TestCorpusDiagnostics:
    def _write(self, tmp_path, lines):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_invalid_json_line_is_skipped(self, tmp_path, demo_utterance):
        good = json.dumps(utterance_to_json(demo_utterance))
        path = self._write(tmp_path, ["{not json", good])
        corpus, diags = _read(read_corpus, path)
        assert [u.utt_id for u in corpus] == ["demo-001"]
        (d,) = diags
        assert d.code == "bad-record"
        assert d.index == 1
        assert ":1:" in d.message

    def test_negative_time_is_a_bad_record(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        blob["channels"][0]["words"][0]["t"] = -5
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = _read(read_corpus, path)
        assert corpus == []
        assert diags[0].code == "bad-record"

    @pytest.mark.parametrize(
        "field, value",
        [("words", ""), ("words", {}), ("words", "hi"), ("channels", {}), ("channels", "")],
        ids=["words-empty-str", "words-dict", "words-str", "channels-dict", "channels-empty-str"],
    )
    def test_words_or_channels_that_are_no_list_are_a_bad_record(self, tmp_path, demo_utterance, field, value):
        # Not an empty channel or utterance, and not a string indexed as a word.
        blob = utterance_to_json(demo_utterance)
        (blob["channels"][0] if field == "words" else blob)[field] = value
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = _read(read_corpus, path)
        assert corpus == []
        assert [(d.code, d.message) for d in diags] == [
            ("bad-record", f"{path}:1: {field} must be a JSON list, got {type(value).__name__}")
        ]

    def test_version_mismatch(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        blob["v"] = 99
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = _read(read_corpus, path)
        assert corpus == []
        assert "version" in diags[0].message

    def test_missing_field(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        del blob["duration_ms"]
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = _read(read_corpus, path)
        assert corpus == []
        assert diags[0].code == "bad-record"

    def test_non_monotone_channel_gets_validation_code(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        words = blob["channels"][0]["words"]
        words[0], words[1] = words[1], words[0]
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = _read(read_corpus, path)
        assert corpus == []
        assert diags[0].code == "non-monotone-time"
        assert diags[0].index == 1

    def test_duplicate_utt_id_keeps_first(self, tmp_path, demo_utterance):
        line = json.dumps(utterance_to_json(demo_utterance))
        path = self._write(tmp_path, [line, line])
        corpus, diags = _read(read_corpus, path)
        assert len(corpus) == 1
        assert diags[0].code == "duplicate-utt-id"
        assert diags[0].index == 2

    def test_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match="not valid UTF-8"):
            _read(read_corpus, str(path))


class TestSerializedRoundTrip:
    @pytest.mark.parametrize("grouping", [None, GroupingConfig(500)])
    def test_round_trip(self, tmp_path, demo_utterance, demo_tags, grouping):
        seq = inter_time(demo_utterance, grouping, demo_tags)
        path = str(tmp_path / "s.jsonl")
        write_serialized([seq], path)
        back, diags = _read(read_serialized, path, demo_tags)
        assert diags == []
        assert back == [seq]
        assert back[0].method == seq.method

    def test_origin_times_nullable_only_on_tags(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        blob = serialized_to_json(seq)
        for text, origin in zip(blob["tokens"], blob["origin_times"]):
            assert (origin is None) == (text in demo_tags)

    def test_origin_length_mismatch_rejected(self, demo_utterance, demo_tags):
        blob = serialized_to_json(inter_time(demo_utterance, tags=demo_tags))
        blob["origin_times"] = blob["origin_times"][:-1]
        with pytest.raises(ValueError, match="length"):
            serialized_from_json(blob, demo_tags)

    def test_missing_origin_times_defaults_to_none(self, demo_utterance, demo_tags):
        blob = serialized_to_json(inter_time(demo_utterance, tags=demo_tags))
        del blob["origin_times"]
        seq = serialized_from_json(blob, demo_tags)
        assert all(t.origin_time is None for t in seq.tokens if hasattr(t, "origin_time"))

    def test_duplicate_sequence_skipped(self, tmp_path, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        path = str(tmp_path / "s.jsonl")
        write_serialized([seq, seq], path)
        back, diags = _read(read_serialized, path, demo_tags)
        assert len(back) == 1
        assert diags[0].code == "duplicate-utt-id"

class TestChannelsRoundTrip:
    def test_round_trip(self, tmp_path):
        records = [
            ("u1", {"#ASR#": ("a", "b"), "#ES#": ("x",)}),
            ("u2", {"#ASR#": ()}),
        ]
        path = str(tmp_path / "ch.jsonl")
        write_channels(records, path)
        back, diags = _read(read_channels, path)
        assert diags == []
        assert back == records

    def test_duplicate_tag_in_record(self):
        with pytest.raises(ValueError, match="duplicate channel tag"):
            channels_from_json(
                {
                    "v": 1,
                    "utt_id": "u",
                    "channels": [
                        {"tag": "#ASR#", "words": []},
                        {"tag": "#ASR#", "words": []},
                    ],
                }
            )

    def test_bad_line_diagnosed(self, tmp_path):
        path = tmp_path / "ch.jsonl"
        path.write_text('{"v":1,"utt_id":"u1","channels":[]}\nnope\n')
        back, diags = _read(read_channels, str(path))
        assert [utt_id for utt_id, _ in back] == ["u1"]
        assert diags[0].index == 2


class TestTraceRoundTrip:
    def test_round_trip(self, tmp_path, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = list(replay(seq, ReplayPolicy(), 1200).values())
        path = str(tmp_path / "tr.jsonl")
        write_traces(traces, path)
        back, diags = _read(read_traces, path)
        assert diags == []
        assert back == traces

    def test_invalid_trace_line(self, tmp_path):
        path = tmp_path / "tr.jsonl"
        good = EmissionTrace("u", "#ES#", ((0, 10),), 100, 1)
        write_traces([good], str(path))
        text = path.read_text() + '{"v":1,"utt_id":"u2"}\n'
        path.write_text(text)
        back, diags = _read(read_traces, str(path))
        assert back == [good]
        assert diags[0].code == "bad-record"


def _oracle_entry(value, what: str) -> tuple[int, int]:
    """One entry as an (ordinal, delay) tuple if it is a JSON list of two integers, else the reader's ValueError."""
    pair = _expect_json(value, what, list)
    if len(pair) != 2:
        raise ValueError(f"{what} must be a [ordinal, delay] pair, got {pair!r}")
    return _expect_json(pair[0], f"{what}[0]", int), _expect_json(pair[1], f"{what}[1]", int)


def _oracle_trace_from_json(obj: dict) -> EmissionTrace:
    """The trace reader that checked entries one at a time, kept as the reference."""
    _check_version(obj)
    raw = _expect_json(obj["entries"], "entries", list)
    utt_id, tag, duration, ref_len = obj["utt_id"], obj["tag"], obj["source_duration_ms"], obj["ref_len"]
    entries = [_oracle_entry(e, f"entries[{i}]") for i, e in enumerate(raw)]
    return EmissionTrace._from_columns(
        utt_id, tag, tuple([o for o, _ in entries]), tuple([d for _, d in entries]), duration, ref_len
    )


_JSON_ODD = st.sampled_from([True, False, 1.0, 2.5, "1", "", None, {}, [], 10**20])
_INT_PAIR = st.lists(st.integers(0, 50), min_size=2, max_size=2)
_TRACE_ENTRIES = st.one_of(
    st.lists(_INT_PAIR, max_size=6).map(lambda entries: sorted(entries, key=itemgetter(1))),  # valid
    st.lists(
        st.one_of(
            _INT_PAIR,
            st.lists(st.one_of(st.integers(0, 50), _JSON_ODD), min_size=2, max_size=2),  # bools, floats, strings, null
            st.lists(st.integers(0, 50), max_size=3),  # wrong lengths, mostly
            _JSON_ODD,  # not a list
        ),
        max_size=6,
    ),
    _JSON_ODD,
)


class TestTraceReaderMatchesEntryOracle:
    @given(_TRACE_ENTRIES, st.one_of(st.integers(0, 100), _JSON_ODD), st.one_of(st.integers(0, 6), _JSON_ODD))
    @settings(max_examples=800)
    def test_same_trace_or_same_error(self, entries, duration, ref_len):
        record = {"v": 1, "utt_id": "u1", "tag": "#ES#", "entries": entries, "source_duration_ms": duration, "ref_len": ref_len}
        expected = _outcome(_oracle_trace_from_json, copy.deepcopy(record))
        got = _outcome(trace_from_json, record)
        assert got == expected  # equal traces, or the same exception type and message
        assert type(got) is type(expected)
        if isinstance(got, EmissionTrace):
            # The reader is the row constructor: the trace's own entries build it again.
            assert EmissionTrace(got.utt_id, got.tag, got.entries, got.source_duration_ms, got.ref_len) == got

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 5], [1, True]],
            [[0, 5], [1, 2.0]],
            [[0, 5], [1, "6"]],
            [[0, 5], [1, None]],
            [[0, 5], [1]],
            [[0, 5], [1, 6, 7]],
            [[0, 5], None],
            [[0, 5], "01"],
            [[None, 5], [1, True]],
            [[0, 5], [1, 6]],
        ],
    )
    def test_first_bad_entry_is_named(self, entries):
        record = {"v": 1, "utt_id": "u1", "tag": "#ES#", "entries": entries, "source_duration_ms": 10, "ref_len": 2}
        assert _outcome(trace_from_json, record) == _outcome(_oracle_trace_from_json, copy.deepcopy(record))


class TestTagSetSidecar:
    def test_round_trip(self, tmp_path, demo_tags):
        path = str(tmp_path / "tags.json")
        write_tag_set(demo_tags, path)
        back = read_tag_set(path)
        assert back == demo_tags
        assert back.get("#ES#") == ES
        assert back.get("#ASR#").modality == ASR.modality

    def test_invalid_document_names_path(self, tmp_path):
        path = tmp_path / "tags.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="tags.json"):
            read_tag_set(str(path))

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"v":1,"tags":5}', "tags must be a JSON list, got int"),
            ('{"v":1,"tags":[5]}', "tags[0] must be a JSON object, got int"),
            ('{"v":true,"tags":[]}', "unsupported schema version True (expected 1)"),
            (
                '{"v":1,"tags":[{"surface":"#A#","modality":"asr","lang":5}]}',
                "language must be a non-empty string, got 5",
            ),
        ],
    )
    def test_field_of_the_wrong_type_names_it(self, tmp_path, document, message):
        path = tmp_path / "tags.json"
        path.write_text(document)
        with pytest.raises(ValueError) as info:
            read_tag_set(str(path))
        assert str(info.value) == f"{path}: invalid tag set: {message}"


class TestStdStreams:
    def test_dash_reads_stdin(self, monkeypatch):
        # The raw line reader of `demux --text`; the record readers' stdin is in TestReaderContract.
        monkeypatch.setattr("sys.stdin", io.StringIO("one\ntwo\n"))
        assert list(_read_lines("-")) == [(1, "one\n"), (2, "two\n")]

    def test_dash_writes_stdout(self, capsys, demo_tags):
        write_tag_set(demo_tags, "-")
        out = capsys.readouterr().out
        assert json.loads(out)["tags"][0]["surface"] == "#ASR#"

    def test_dash_is_read_and_written_as_a_file_is(self, monkeypatch):
        # Whatever encoding, error handler and newline rule the streams were opened with.
        stdin = io.TextIOWrapper(io.BytesIO("Å\r\nb\rc\n".encode()), encoding="latin-1", newline="\n")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii", errors="backslashreplace", newline="\n")
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        assert list(_read_lines("-")) == [(1, "Å\n"), (2, "b\n"), (3, "c\n")]
        _write_lines("-", ["Å"])
        stdout.flush()
        assert stdout.buffer.getvalue() == "Å\n".encode()
        assert (stdin.closed, stdout.closed) == (False, False)
        with pytest.raises(UnicodeEncodeError):
            _write_lines("-", ["\udcff"])

    def test_a_stream_without_an_encoding_layer_is_used_as_it_is(self, monkeypatch):
        stdin = io.StringIO("a\r\n")
        monkeypatch.setattr("sys.stdin", stdin)
        assert list(_read_lines("-")) == [(1, "a\r\n")]
        assert _utf8(stdin) is stdin


# ---------------------------------------------------------------------------
# One contract for the four JSONL record readers.


def _contract_record(kind: str, utt_id: str) -> dict:
    return {
        "corpus": {"v": 1, "utt_id": utt_id, "duration_ms": 100, "channels": [{"tag": "#ASR#", "modality": "asr", "lang": "en", "words": [{"t": 1, "w": "a"}]}]},
        "serialized": {"v": 1, "utt_id": utt_id, "method": {"name": "inter_time"}, "tokens": ["#ASR#", "a"], "origin_times": [None, 1]},
        "channels": {"v": 1, "utt_id": utt_id, "channels": [{"tag": "#ASR#", "words": ["a"]}]},
        "traces": {"v": 1, "utt_id": utt_id, "tag": "#ASR#", "source_duration_ms": 100, "ref_len": 1, "entries": [[0, 1]]},
    }[kind]


_CONTRACT_READERS = {
    "corpus": (read_corpus, lambda records: [u.utt_id for u in records]),
    "serialized": (lambda path, diags: read_serialized(path, TagSet((ASR,)), diags), lambda records: [s.utt_id for s in records]),
    "channels": (read_channels, lambda records: [utt_id for utt_id, _ in records]),
    "traces": (read_traces, lambda records: [t.utt_id for t in records]),
}


class TestReaderContract:
    @pytest.mark.parametrize("kind", sorted(_CONTRACT_READERS))
    @pytest.mark.parametrize("stdin", [False, True])
    def test_lines_codes_prefixes_and_order(self, tmp_path, monkeypatch, kind, stdin):
        reader, utt_ids = _CONTRACT_READERS[kind]
        u1, u2 = (_dumps(_contract_record(kind, u)) for u in ("u1", "u2"))
        text = "\n".join(["", u1, "{broken", "[1]", '{"v":2}', "   ", u2, u1]) + "\n"
        if stdin:
            path = "-"
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        else:
            path = str(tmp_path / f"{kind}.jsonl")
            (tmp_path / f"{kind}.jsonl").write_text(text)
        records, diags = _read(reader, path)
        expected = [
            ("bad-record", 3, f"{path}:3: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)", None),
            ("bad-record", 4, f"{path}:4: record must be a JSON object, got list", None),
            ("bad-record", 5, f"{path}:5: unsupported schema version 2 (expected 1)", None),
        ]
        if kind == "traces":  # a trace is not keyed: the repeated utt_id is read again
            assert utt_ids(records) == ["u1", "u2", "u1"]
        else:
            expected.append(("duplicate-utt-id", 8, f"{path}:8: duplicate utt_id 'u1'; line skipped", "u1"))
            assert utt_ids(records) == ["u1", "u2"]
        assert [(d.code, d.index, d.message, d.utt_id) for d in diags] == expected

    @pytest.mark.parametrize("kind", sorted(_CONTRACT_READERS))
    def test_escaped_lone_surrogate_is_a_bad_record(self, tmp_path, kind):
        # json.dumps escapes both; only the pair has a UTF-8 form to write back.
        reader, utt_ids = _CONTRACT_READERS[kind]
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("".join(json.dumps(_contract_record(kind, u)) + "\n" for u in ("\ud800", "\U0001f600")))
        records, diags = _read(reader, str(path))
        assert utt_ids(records) == ["\U0001f600"]
        assert [(d.code, d.index, d.message) for d in diags] == [
            ("bad-record", 1, f"{path}:1: escaped lone surrogate: the text has no UTF-8 form")
        ]

    @pytest.mark.parametrize("kind", sorted(_CONTRACT_READERS))
    @pytest.mark.parametrize("stdin", [False, True])
    def test_text_that_is_not_utf8_is_fatal(self, tmp_path, monkeypatch, kind, stdin):
        reader, _ = _CONTRACT_READERS[kind]
        data = (_dumps(_contract_record(kind, "u1")) + "\n").encode() + b"\xff\n"
        if stdin:
            path = "-"
            # As the interpreter opens stdin in the POSIX locale, which would pass the byte on.
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
        else:
            path = str(tmp_path / "bad.jsonl")
            (tmp_path / "bad.jsonl").write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: not valid UTF-8"):
            _read(reader, path)

    @pytest.mark.parametrize("kind", sorted(_CONTRACT_READERS))
    def test_diagnostics_are_appended_as_the_lines_are_read(self, tmp_path, kind):
        reader, utt_ids = _CONTRACT_READERS[kind]
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(_dumps(_contract_record(kind, "u1")) + "\n{broken\n")
        diags: list[Diagnostic] = []
        with contextlib.closing(reader(str(path), diags)) as records:
            first = next(records)
            assert diags == []
            assert utt_ids([first, *records]) == ["u1"]
        assert [(d.code, d.index) for d in diags] == [("bad-record", 2)]


# ---------------------------------------------------------------------------
# The object-based stream of the previous version, kept as the reference for
# the columnar one: one TagToken or WordToken per position, checked by the
# scan below, and read, written, counted, rendered and replayed from tokens.


def _oracle_check_sequence(tokens) -> list[str]:
    problems: list[str] = []
    prev_tag = None
    prev_was_tag = False
    for i, tok in enumerate(tokens):
        if isinstance(tok, TagToken):
            if i == 0:
                pass
            elif prev_was_tag:
                problems.append(f"adjacent tag tokens at index {i}")
            elif prev_tag is not None and tok.tag.surface == prev_tag.surface:
                problems.append(f"tag {tok.tag.surface!r} repeated without a switch at index {i}")
            prev_tag = tok.tag
            prev_was_tag = True
        elif isinstance(tok, WordToken):
            if prev_tag is None:
                problems.append(f"word {tok.word!r} at index {i} precedes any tag")
            prev_was_tag = False
        else:
            problems.append(f"unknown token type at index {i}: {tok!r}")
    return problems


def _oracle_from_json(obj, tags):
    """(utt_id, tokens, method) as the object-based reader built them."""
    _check_version(obj)
    raw_tokens = obj["tokens"]
    origin_times = obj.get("origin_times")
    if origin_times is None:
        origin_times = [None] * len(raw_tokens)
    if len(origin_times) != len(raw_tokens):
        raise ValueError(
            f"origin_times length {len(origin_times)} != tokens length {len(raw_tokens)}"
        )
    toks = []
    for text, origin in zip(raw_tokens, origin_times):
        if origin is None and text in tags:
            toks.append(TagToken(tags.get(text)))
        else:
            toks.append(WordToken(text, origin_time=origin))
    utt_id = obj["utt_id"]
    method = SerializationMethod.from_json(obj["method"])
    problems = _oracle_check_sequence(toks)
    if problems:
        raise ValueError(f"invalid serialized sequence {utt_id!r}: {problems[0]}")
    return utt_id, tuple(toks), method


def _oracle_to_json(utt_id, tokens, method) -> dict:
    out_tokens, origin_times = [], []
    for tok in tokens:
        if isinstance(tok, TagToken):
            out_tokens.append(tok.tag.surface)
            origin_times.append(None)
        else:
            out_tokens.append(tok.word)
            origin_times.append(tok.origin_time)
    return {"v": 1, "utt_id": utt_id, "method": method.to_json(), "tokens": out_tokens, "origin_times": origin_times}


def _oracle_count_switches(tokens) -> int:
    return sum(1 for t in tokens if isinstance(t, TagToken))


def _oracle_render_text(tokens) -> str:
    return " ".join(t.tag.surface if isinstance(t, TagToken) else t.word for t in tokens)


def _oracle_replay(utt_id, tokens, method, policy, source_duration_ms):
    mode = policy.mode
    if mode == "auto":
        mode = "group_boundary" if method.group_ms else "origin_time"
    if mode == "group_boundary" and not method.group_ms:
        raise ValueError(f"sequence {utt_id!r} was not grouped; no boundary to replay")
    delays: dict[str, list[tuple[int, int]]] = {}
    for ordinal, tok in enumerate(tokens):
        if isinstance(tok, TagToken):
            current = delays.setdefault(tok.tag.surface, [])
            continue
        if tok.origin_time is None:
            raise ValueError(f"word {tok.word!r} in {utt_id!r} has no origin time; cannot replay")
        base = assign_group(tok.origin_time, method.group_ms) if mode == "group_boundary" else tok.origin_time
        current.append((ordinal, base + policy.overhead_ms * ordinal))
    if source_duration_ms is None:
        latest = max((d for ds in delays.values() for _, d in ds), default=0)
        source_duration_ms = max(1, latest)
    return {
        surface: EmissionTrace(utt_id, surface, tuple(entries), source_duration_ms, len(entries))
        for surface, entries in delays.items()
        if entries
    }


_STREAM_TAGS = TagSet((ASR, ES, DE))
_SURFACES = ["#ASR#", "#ES#", "#DE#"]
# "#XX#" spells no declared surface, so it is a word.
_WORDS = st.sampled_from(["a", "b", "está", "#XX#", "w1", "x.y"])
_METHODS = [{"name": "inter_time"}, {"name": "inter_time", "group_ms": 500}, {"name": "inter_gamma", "gamma": 0.5}]
_BAD_TOKENS = ["a b", " ", "\t", "x\u3000y", "\n", "", 5, 1.5, None, True, [1], {"a": 1}, ["#ASR#"]]
_CORRUPTIONS = [
    None,
    "bad token",
    "short origins",
    "long origins",
    "word first",
    "adjacent tags",
    "repeated tag",
    "origin at tag",
    "no origin_times",
    "null origin_times",
]


@st.composite
def _records(draw):
    """A build-shaped serialized record, then at most one corruption of it."""
    tokens: list = []
    origins: list = []
    prev = None
    for surface, words in draw(st.lists(st.tuples(st.sampled_from(_SURFACES), st.lists(_WORDS, min_size=1, max_size=4)), max_size=6)):
        if surface == prev:
            continue
        prev = surface
        tokens.append(surface)
        origins.append(None)
        for w in words:
            tokens.append(w)
            origins.append(draw(st.integers(0, 3000)))
    record = {"v": 1, "utt_id": "u1", "method": draw(st.sampled_from(_METHODS)), "tokens": tokens, "origin_times": origins}
    corruption = draw(st.sampled_from(_CORRUPTIONS))
    tag_positions = [i for i, t in enumerate(tokens) if t in _SURFACES]
    word_positions = [i for i, t in enumerate(tokens) if t not in _SURFACES]
    if corruption == "bad token":
        i = draw(st.integers(0, len(tokens)))
        tokens.insert(i, draw(st.sampled_from(_BAD_TOKENS)))
        origins.insert(i, 7)
    elif corruption == "short origins" and origins:
        origins.pop()
    elif corruption == "long origins":
        origins.append(1)
    elif corruption == "word first":
        tokens.insert(0, "early")
        origins.insert(0, 3)
    elif corruption == "adjacent tags" and tag_positions:
        i = draw(st.sampled_from(tag_positions))
        tokens.insert(i + 1, next(s for s in _SURFACES if s != tokens[i]))
        origins.insert(i + 1, None)
    elif corruption == "repeated tag" and word_positions:
        i = draw(st.sampled_from(word_positions))
        tokens.insert(i + 1, [t for t in tokens[:i] if t in _SURFACES][-1])
        origins.insert(i + 1, None)
    elif corruption == "origin at tag" and tag_positions:
        origins[draw(st.sampled_from(tag_positions))] = draw(st.integers(0, 3000))
    elif corruption == "no origin_times":
        del record["origin_times"]
    elif corruption == "null origin_times":
        record["origin_times"] = None
    return record


# Origin times of the wrong kind: what a JSON record can hold that is no int >= 0 or null.
_BAD_ORIGIN_TIMES = st.sampled_from(["5", "", 2.5, 0.0, True, False, -1, -3000, [5], {}])


def _bad_origin_time(t) -> bool:
    return t is not None and (type(t) is not int or t < 0)


@st.composite
def _columns(draw):
    """Build-record columns, runs of a tag and its words, and a method; some break the constructor's rules.

    A word may spell a declared surface.  In about one draw in four, an origin
    time may be of the wrong kind, at a word or at a tag.
    """
    items: list = []
    origin_times: list = []
    word_time = st.integers(0, 3000) | st.none() if draw(st.booleans()) else st.integers(0, 3000)
    tag_time = st.sampled_from([None, None, None, 0, 1500])
    if draw(st.integers(0, 3)) == 0:
        word_time, tag_time = word_time | _BAD_ORIGIN_TIMES, tag_time | _BAD_ORIGIN_TIMES
    run_words = st.lists(_WORDS | st.sampled_from(_SURFACES), max_size=4)
    for tag, words in draw(st.lists(st.tuples(st.sampled_from([ASR, ES, DE]), run_words), max_size=6)):
        items += [tag, *words]
        origin_times += [draw(tag_time)] + [draw(word_time) for _ in words]
    return tuple(items), tuple(origin_times), SerializationMethod.from_json(draw(st.sampled_from(_METHODS)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, KeyError, TypeError) as exc:
        return (type(exc), str(exc))


def _flat(items) -> list:
    """`items` by kind and surface, so that a tag read with a tag set equals one read from the record itself."""
    return [(type(x), getattr(x, "surface", x)) for x in items]


class TestColumnarStreamMatchesObjectOracle:
    @given(_records())
    @settings(max_examples=500)
    def test_reader_writer_and_stream_consumers(self, record):
        expected = _outcome(_oracle_from_json, copy.deepcopy(record), _STREAM_TAGS)
        got = _outcome(serialized_from_json, record, _STREAM_TAGS)
        if not isinstance(got, SerializedSequence):
            assert got == expected  # same exception type, same message
            return
        utt_id, tokens, method = expected
        assert (got.utt_id, got.tokens, got.method) == (utt_id, tokens, method)
        assert len(got) == len(tokens)
        assert _dumps(serialized_to_json(got)) == _dumps(_oracle_to_json(utt_id, tokens, method))
        assert count_switches(got) == _oracle_count_switches(tokens)
        assert render_text(got) == _oracle_render_text(tokens)
        for policy in (ReplayPolicy(), ReplayPolicy("origin_time", 5), ReplayPolicy("group_boundary", 0)):
            for duration in (None, 4000):
                assert _outcome(replay, got, policy, duration) == _outcome(
                    _oracle_replay, utt_id, tokens, method, policy, duration
                )

    def test_word_spelling_a_tag_stays_a_word(self):
        seq = SerializedSequence("u", (ASR, "#ES#"), (None, 5), SerializationMethod("inter_time"))
        assert seq.tokens == (TagToken(ASR), WordToken("#ES#", 5))
        assert count_switches(seq) == 1
        assert render_text(seq) == "#ASR# #ES#"

    @pytest.mark.parametrize(
        "tokens, origins",
        [
            (["#ASR#", "a b"], [None, 1]),
            (["#ASR#", ""], [None, 1]),
            (["#ASR#", 5], [None, 1]),
            (["#ASR#", ["a"]], [None, 1]),
            (["#ASR#", {"a": 1}], [None, 1]),
            (["#ASR#", "a"], [None]),
            (["a", "#ASR#"], [1, None]),
            (["#ASR#", "#ES#", "a"], [None, None, 1]),
            (["#ASR#", "a", "#ASR#", "b"], [None, 1, None, 2]),
        ],
    )
    def test_bad_record_messages_are_unchanged(self, tmp_path, tokens, origins):
        record = {"v": 1, "utt_id": "u1", "method": {"name": "inter_time"}, "tokens": tokens, "origin_times": origins}
        exc_type, message = _outcome(_oracle_from_json, copy.deepcopy(record), _STREAM_TAGS)
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(record) + "\n")
        seqs, diags = _read(read_serialized, str(path), _STREAM_TAGS)
        assert seqs == []
        assert [(d.code, d.message) for d in diags] == [("bad-record", f"{path}:1: {message}")]

    @given(_columns(), st.sampled_from(["u1", "utt é"]))
    @settings(max_examples=400)
    def test_read_inverts_write_for_every_constructed_record(self, columns, utt_id):
        items, origin_times, method = columns
        try:
            seq = SerializedSequence(utt_id, items, origin_times, method)
        except ValueError:
            return  # columns the constructor refuses are no record
        record = json.loads(_dumps(serialized_to_json(seq)))
        if all(t is not None for x, t in zip(items, origin_times) if isinstance(x, str) and x in _SURFACES):
            # With every word that spells a declared surface timed, the tags are the tag positions.
            assert serialized_from_json(record, _STREAM_TAGS) == seq
        if None not in compress(origin_times, [isinstance(x, str) for x in items]):
            # With every word timed, the record's own tags are its tag positions.
            own = serialized_from_json(record, None)
            assert _flat(own.items) == _flat(items)
            assert own.origin_times == origin_times

    @given(_columns(), st.sampled_from(["u1", "utt é"]))
    @settings(max_examples=400)
    def test_constructor_and_reader_refuse_the_same_origin_times(self, columns, utt_id):
        items, origin_times, method = columns
        tokens = [x.surface if isinstance(x, Tag) else x for x in items]
        record = {"v": 1, "utt_id": utt_id, "method": method.to_json(), "tokens": tokens, "origin_times": list(origin_times)}
        record = json.loads(json.dumps(record))  # what a file holds
        built = _outcome(SerializedSequence, utt_id, items, origin_times, method)

        def origin_fault(outcome):
            return outcome if isinstance(outcome, tuple) and outcome[1].startswith("origin_times[") else None

        # The first bad origin time by position is refused, by both, with one message.
        assert (origin_fault(built) is not None) == any(map(_bad_origin_time, origin_times))
        for tags in (_STREAM_TAGS, None):
            assert origin_fault(_outcome(serialized_from_json, copy.deepcopy(record), tags)) == origin_fault(built)

    @pytest.mark.parametrize("tags", [_STREAM_TAGS, None], ids=["tag set", "own tags"])
    def test_a_token_is_a_tag_iff_its_origin_is_null_and_it_spells_a_surface(self, tags):
        method = {"name": "inter_time"}
        record = {"v": 1, "utt_id": "u1", "method": method, "tokens": ["#ASR#", "a", "#ES#", "b"], "origin_times": [None, 1, 7, 2]}
        seq = serialized_from_json(record, tags)
        assert _flat(seq.items) == _flat((ASR, "a", "#ES#", "b"))
        assert seq.origin_times == (None, 1, 7, 2)
        assert serialized_to_json(seq) == record
        record = {"v": 1, "utt_id": "u1", "method": method, "tokens": ["#ASR#", "a"], "origin_times": [9, 1]}
        with pytest.raises(ValueError, match="^invalid serialized sequence 'u1': word '#ASR#' at index 0 precedes any tag$"):
            serialized_from_json(record, tags)

    @given(_records())
    @settings(max_examples=500)
    def test_both_reading_modes_agree_when_every_null_time_token_is_a_declared_surface(self, record):
        tokens = record["tokens"]
        origins = record.get("origin_times") or [None] * len(tokens)
        assume(all(t in _SURFACES for t, o in zip(tokens, origins) if o is None))
        with_tags = _outcome(serialized_from_json, copy.deepcopy(record), _STREAM_TAGS)
        own = _outcome(serialized_from_json, record, None)
        if isinstance(with_tags, SerializedSequence) and isinstance(own, SerializedSequence):
            assert (_flat(own.items), own.origin_times) == (_flat(with_tags.items), with_tags.origin_times)
        else:
            assert own == with_tags  # same exception type, same message


# ---------------------------------------------------------------------------
# The record parser that `stats` kept to itself before `read_serialized` read
# each record's own tags, kept as the reference for `read_serialized(path,
# None, diags)`.


def _own_tags(obj, known: dict) -> TagSet | None:
    """A build-written record's tags: its own tokens at null origin times that can be tag surfaces.

    None if there is no such token or the record is malformed.  `known`
    keeps one Tag per surface across records.
    """
    tokens, origins = (obj.get("tokens"), obj.get("origin_times")) if isinstance(obj, dict) else (None, None)
    if not isinstance(tokens, list) or not isinstance(origins, (list, type(None))):
        return None
    try:
        surfaces = dict.fromkeys(tokens if origins is None else compress(tokens, map(is_, origins, repeat(None))))
    except TypeError:  # an unhashable token, which the word check rejects
        return None
    for s in surfaces:
        if s not in known and isinstance(s, str) and s.split() == [s] and s != UNKNOWN_CHANNEL:
            known[s] = Tag(s, Modality.TRANSCRIPTION, "und")
    tags = tuple(known[s] for s in surfaces if s in known)
    return TagSet(tags) if tags else None


# No record spells this surface, so with it no token is a tag.
_NO_TAGS = TagSet((Tag("#no-such-tag#", Modality.TRANSCRIPTION, "und"),))


def _reference_read_own_tags(path: str, diags: list) -> list[SerializedSequence]:
    known: dict = {}

    def parse(obj):
        tags = _own_tags(obj, known)
        return serialized_from_json(obj, _NO_TAGS if tags is None else tags)

    return list(_read_jsonl(path, parse, diags, attrgetter("utt_id")))


def _assert_reads_as_reference(path: str) -> list[SerializedSequence]:
    """`read_serialized(path, None, diags)`'s records, after checking them and its diagnostics against the reference."""
    got, diags = _read(read_serialized, path, None)
    expected_diags: list[Diagnostic] = []
    expected = _reference_read_own_tags(path, expected_diags)
    assert diags == expected_diags
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g.utt_id, g.items, g.origin_times) == (e.utt_id, e.items, e.origin_times)
        assert _dumps(serialized_to_json(g)) == _dumps(serialized_to_json(e))
        assert count_switches(g) == count_switches(e)
    return got


class TestOwnTagsMatchTheReference:
    @given(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3"]), _records()), min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_records_read_as_the_reference_reads_them(self, records):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "built.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps({**record, "utt_id": utt_id}) + "\n" for utt_id, record in records)
            _assert_reads_as_reference(path)

    def test_a_tag_of_one_record_is_a_word_where_another_times_it(self, tmp_path):
        # Between the two good records: tokens at null origin times that
        # cannot be tag surfaces, a line that is not JSON and a duplicate.
        path = tmp_path / "built.jsonl"
        method = {"name": "inter_time"}
        records = [
            {"v": 1, "utt_id": "u1", "method": method, "tokens": ["#ASR#", "hi", "#ES#", "hola"], "origin_times": [None, 0, None, 5]},
            {"v": 1, "utt_id": "u3", "method": method, "tokens": ["<unknown>", "#ASR#", "y"], "origin_times": [None, None, 1]},
            {"v": 1, "utt_id": "u4", "method": method, "tokens": ["#ASR#", "a b", "y"], "origin_times": [None, None, 1]},
            {"v": 1, "utt_id": "u5", "method": method, "tokens": ["#ASR#", ["y"], "#ES#"]},
            {"v": 1, "utt_id": "u6", "method": method, "tokens": ["#ASR#", "", "y"], "origin_times": [None, None, 1]},
            "{nope",
            {"v": 1, "utt_id": "u1", "method": method, "tokens": ["#ES#", "z"], "origin_times": [None, 1]},
            {"v": 1, "utt_id": "u2", "method": method, "tokens": ["#ASR#", "#ES#", "x"], "origin_times": [None, 3, 4]},
        ]
        path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
        first, second = _assert_reads_as_reference(str(path))
        assert [isinstance(x, Tag) for x in first.items] == [True, False, True, False]
        assert second.items == (first.items[0], "#ES#", "x")
        assert second.items[0] is first.items[0]
        assert second.origin_times == (None, 3, 4)
        assert (count_switches(first), count_switches(second)) == (2, 1)


# ---------------------------------------------------------------------------
# The TimedWord-based corpus reader and validator of the previous version,
# kept as the reference for the columnar channel.


def _oracle_utterance_from_json(obj):
    _check_version(obj)
    channels = []
    for ch in _expect_json(obj["channels"], "channels", list):
        tag = Tag(ch["tag"], Modality(ch["modality"]), ch["lang"])
        words = tuple(TimedWord(w["t"], w["w"]) for w in _expect_json(ch["words"], "words", list))
        channels.append(Channel(tag=tag, words=words))
    return Utterance(utt_id=obj["utt_id"], duration_ms=obj["duration_ms"], channels=tuple(channels))


def _oracle_validate_utterance(u, words_by_channel, tags):
    diags = []
    if not u.channels:
        diags.append(Diagnostic("no-channels", "utterance has no channels", utt_id=u.utt_id))
    seen = {}
    surfaces = {t.surface for t in tags}
    for ci, (ch, words) in enumerate(zip(u.channels, words_by_channel)):
        s = ch.tag.surface
        if s in seen:
            diags.append(Diagnostic("duplicate-channel-tag", f"tag {s!r} used by channels {seen[s]} and {ci}", utt_id=u.utt_id, tag=s, index=ci))
        else:
            seen[s] = ci
        if s not in surfaces:
            diags.append(Diagnostic("unknown-channel-tag", f"tag {s!r} is not in the tag set", utt_id=u.utt_id, tag=s, index=ci))
        prev = None
        for wi, tw in enumerate(words):
            if prev is not None and tw.time < prev:
                diags.append(Diagnostic("non-monotone-time", f"time {tw.time} after {prev} in channel {s!r}", utt_id=u.utt_id, tag=s, index=wi))
            prev = tw.time
            if tw.word in surfaces:
                diags.append(Diagnostic("word-is-tag", f"word at index {wi} equals tag surface {tw.word!r}", utt_id=u.utt_id, tag=s, index=wi))
    return diags


_CORPUS_TAGS = TagSet((ASR, ES, DE))
_CHANNEL_PLAN = [("#ASR#", "asr", "en"), ("#ES#", "st", "es"), ("#DE#", "st", "de"), ("#XX#", "st", "xx")]
_WORD_FAULTS = {
    "missing t": lambda w: {"w": w["w"]},
    "missing w": lambda w: {"t": w["t"]},
    "bool time": lambda w: {**w, "t": True},
    "float time": lambda w: {**w, "t": float(w["t"])},
    "negative time": lambda w: {**w, "t": -1},
    "string time": lambda w: {**w, "t": "5"},
    "whitespace word": lambda w: {**w, "w": "a b"},
    "tab word": lambda w: {**w, "w": "\t"},
    "empty word": lambda w: {**w, "w": ""},
    "int word": lambda w: {**w, "w": 7},
    "list entry": lambda w: [w["t"], w["w"]],
    "int entry": lambda w: 5,
    "string entry": lambda w: "tw",
    "tag word": lambda w: {**w, "w": "#ES#"},
}


@st.composite
def _corpus_records(draw):
    """A corpus record, valid by construction, then at most one fault in it."""
    plan = draw(st.lists(st.sampled_from(_CHANNEL_PLAN), max_size=3, unique=True))
    channels = []
    for surface, modality, lang in plan:
        times = sorted(draw(st.lists(st.integers(0, 5000), max_size=6)))
        words = [{"t": t, "w": draw(st.sampled_from(["a", "b", "está", "x.y", "#XX#"]))} for t in times]
        channels.append({"tag": surface, "modality": modality, "lang": lang, "words": words})
    record = {"v": 1, "utt_id": "u1", "duration_ms": draw(st.integers(1, 6000)), "channels": channels}
    fault = draw(st.sampled_from([None, "non-monotone", "words not a list", *_WORD_FAULTS]))
    words = [w for ch in channels for w in ch["words"]]
    if fault == "words not a list" and channels:
        draw(st.sampled_from(channels))["words"] = draw(st.sampled_from([5, "ab", None, {"t": 1}]))
    elif fault == "non-monotone":
        long = [ch["words"] for ch in channels if len(ch["words"]) >= 2 and ch["words"][0]["t"] < ch["words"][-1]["t"]]
        if long:
            ws = draw(st.sampled_from(long))
            ws[0], ws[-1] = ws[-1], ws[0]
    elif fault is not None and words:
        ch = draw(st.sampled_from([ch for ch in channels if ch["words"]]))
        i = draw(st.integers(0, len(ch["words"]) - 1))
        ch["words"][i] = _WORD_FAULTS[fault](ch["words"][i])
    return record


class TestColumnarChannelMatchesTimedWordOracle:
    @given(_corpus_records())
    @settings(max_examples=400)
    def test_reader_and_validator(self, record):
        expected = _outcome(_oracle_utterance_from_json, copy.deepcopy(record))
        got = _outcome(utterance_from_json, copy.deepcopy(record))
        if not isinstance(got, Utterance):
            assert got == expected  # same exception type, same message
            return
        assert got == expected
        words = [tuple(TimedWord(w["t"], w["w"]) for w in ch["words"]) for ch in record["channels"]]
        assert [ch.words for ch in got.channels] == words
        assert [len(ch) for ch in got.channels] == [len(w) for w in words]
        assert validate_utterance(got, _CORPUS_TAGS) == _oracle_validate_utterance(got, words, _CORPUS_TAGS)
        assert utterance_to_json(got) == record
        for ch in got.channels:
            from_words = Channel(ch.tag, ch.words)
            assert from_words == ch and hash(from_words) == hash(ch) and repr(from_words) == repr(ch)
            assert pickle.loads(pickle.dumps(ch)) == ch

    @pytest.mark.parametrize(
        "words",
        [
            [{"t": 1}, {"w": "a"}],
            [{"t": -1, "w": "a"}, {"w": "b"}],
            [{"t": 1, "w": "a b"}, 5],
            [{"t": 1.5, "w": "a"}, {"t": 2, "w": 7}],
        ],
    )
    def test_first_of_two_faults_is_reported(self, words):
        # Pulling the time column first would meet the second fault first.
        record = {"v": 1, "utt_id": "u1", "duration_ms": 10, "channels": [{"tag": "#ASR#", "modality": "asr", "lang": "en", "words": words}]}
        expected = _outcome(_oracle_utterance_from_json, copy.deepcopy(record))
        assert _outcome(utterance_from_json, record) == expected


# ---------------------------------------------------------------------------
# Each record's writer and reader are inverses over every record its
# constructor accepts, and a `utt_id` (or a trace's `tag`) that is no string
# is refused by the constructor and by the reader, with one message.

# Any string a JSON line can hold: a lone surrogate has no UTF-8 form.
_JSON_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_TOKEN_TEXT = _JSON_TEXT.filter(lambda s: s.split() == [s] and s != UNKNOWN_CHANNEL)


@st.composite
def _constructed_utterances(draw):
    channels = []
    for surface in draw(st.lists(_TOKEN_TEXT, max_size=3)):
        tag = Tag(surface, draw(st.sampled_from(Modality)), draw(_JSON_TEXT.filter(bool)))
        words = draw(st.lists(st.builds(TimedWord, st.integers(0, 10**12), _TOKEN_TEXT), max_size=4))
        channels.append(Channel(tag, words))
    return Utterance(draw(_JSON_TEXT), draw(st.integers(1, 10**12)), channels)


@st.composite
def _constructed_sequences(draw):
    items, origin_times, method = draw(_columns())
    seq = _outcome(SerializedSequence, draw(_JSON_TEXT), items, origin_times, method)
    assume(isinstance(seq, SerializedSequence))
    # A word that spells a declared surface reads back as a word only if it is timed.
    assume(all(t is not None for x, t in zip(items, origin_times) if isinstance(x, str) and x in _SURFACES))
    return seq


@st.composite
def _constructed_traces(draw):
    entries = draw(st.lists(st.tuples(st.integers(-5, 50), st.integers(-(10**6), 10**6)), min_size=1, max_size=6))
    entries.sort(key=itemgetter(1))
    return EmissionTrace(draw(_JSON_TEXT), draw(_JSON_TEXT), entries, draw(st.integers(1, 10**12)), draw(st.integers(0, 50)))


# kind: (a builder of one record, whose string fields may be given, its writer, its reader)
_RECORD_KINDS = {
    "corpus": (
        lambda utt_id="u1": Utterance(utt_id, 10, (Channel(ASR, (TimedWord(0, "a"),)),)),
        utterance_to_json,
        utterance_from_json,
    ),
    "serialized": (
        lambda utt_id="u1": SerializedSequence(utt_id, (ASR, "a"), (None, 0), SerializationMethod("inter_time")),
        serialized_to_json,
        lambda obj: serialized_from_json(obj, _STREAM_TAGS),
    ),
    "trace": (lambda utt_id="u1", tag="#ASR#": EmissionTrace(utt_id, tag, ((0, 5),), 10, 1), trace_to_json, trace_from_json),
}


class TestRecordsRoundTripAndRefuseTheSameIds:
    @pytest.mark.parametrize(
        "kind, records",
        [("corpus", _constructed_utterances()), ("serialized", _constructed_sequences()), ("trace", _constructed_traces())],
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_constructed_record_reads_back_equal(self, kind, records, data):
        record = data.draw(records)
        _, write, read = _RECORD_KINDS[kind]
        assert read(json.loads(_dumps(write(record)))) == record

    @pytest.mark.parametrize("value", [5, None, [1], True], ids=["int", "None", "list", "bool"])
    @pytest.mark.parametrize(
        "kind, field",
        [("corpus", "utt_id"), ("serialized", "utt_id"), ("trace", "utt_id"), ("trace", "tag")],
    )
    def test_a_field_that_is_no_string_is_refused_alike(self, kind, field, value):
        build, write, read = _RECORD_KINDS[kind]
        message = f"{field} must be a JSON string, got {type(value).__name__}"
        with pytest.raises(ValueError) as built:
            build(**{field: value})
        assert str(built.value) == message
        with pytest.raises(ValueError) as read_back:
            read({**write(build()), field: value})
        assert str(read_back.value) == message
