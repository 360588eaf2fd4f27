from __future__ import annotations

import copy
import io
import json
import pickle
import re

import pytest
from hypothesis import given, settings
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
    channels_from_json,
    read_channels,
    read_corpus,
    read_serialized,
    read_tag_set,
    read_text_lines,
    read_traces,
    serialized_from_json,
    serialized_to_json,
    utterance_from_json,
    utterance_to_json,
    write_channels,
    write_corpus,
    write_serialized,
    write_serialized_text,
    write_tag_set,
    write_traces,
)
from tokenweave.serialize import assign_group, render_text
from conftest import ASR, DE, ES


def _small_corpus():
    return synth_corpus(
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


class TestCorpusRoundTrip:
    def test_objects_survive(self, tmp_path):
        corpus = _small_corpus()
        path = str(tmp_path / "corpus.jsonl")
        write_corpus(corpus, path)
        back, diags = read_corpus(path)
        assert diags == []
        assert back == corpus

    def test_bytes_are_canonical(self, tmp_path):
        corpus = _small_corpus()
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        write_corpus(corpus, first)
        back, _ = read_corpus(first)
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
        assert read_corpus(str(path)) == ([], [])

    def test_blank_lines_skipped(self, tmp_path, demo_utterance):
        path = tmp_path / "c.jsonl"
        line = json.dumps(utterance_to_json(demo_utterance))
        path.write_text(f"\n{line}\n\n")
        corpus, diags = read_corpus(str(path))
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
        corpus, diags = read_corpus(path)
        assert [u.utt_id for u in corpus] == ["demo-001"]
        (d,) = diags
        assert d.code == "bad-record"
        assert d.index == 1
        assert ":1:" in d.message

    def test_negative_time_is_a_bad_record(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        blob["channels"][0]["words"][0]["t"] = -5
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = read_corpus(path)
        assert corpus == []
        assert diags[0].code == "bad-record"

    def test_version_mismatch(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        blob["v"] = 99
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = read_corpus(path)
        assert corpus == []
        assert "version" in diags[0].message

    def test_missing_field(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        del blob["duration_ms"]
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = read_corpus(path)
        assert corpus == []
        assert diags[0].code == "bad-record"

    def test_non_monotone_channel_gets_validation_code(self, tmp_path, demo_utterance):
        blob = utterance_to_json(demo_utterance)
        words = blob["channels"][0]["words"]
        words[0], words[1] = words[1], words[0]
        path = self._write(tmp_path, [json.dumps(blob)])
        corpus, diags = read_corpus(path)
        assert corpus == []
        assert diags[0].code == "non-monotone-time"
        assert diags[0].index == 1

    def test_duplicate_utt_id_keeps_first(self, tmp_path, demo_utterance):
        line = json.dumps(utterance_to_json(demo_utterance))
        path = self._write(tmp_path, [line, line])
        corpus, diags = read_corpus(path)
        assert len(corpus) == 1
        assert diags[0].code == "duplicate-utt-id"
        assert diags[0].index == 2

    def test_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match="not valid UTF-8"):
            read_corpus(str(path))


class TestSerializedRoundTrip:
    @pytest.mark.parametrize("grouping", [None, GroupingConfig(500)])
    def test_round_trip(self, tmp_path, demo_utterance, demo_tags, grouping):
        seq = inter_time(demo_utterance, grouping, demo_tags)
        path = str(tmp_path / "s.jsonl")
        write_serialized([seq], path)
        back, diags = read_serialized(path, demo_tags)
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
        back, diags = read_serialized(path, demo_tags)
        assert len(back) == 1
        assert diags[0].code == "duplicate-utt-id"

    def test_text_export_matches_render(self, tmp_path, demo_utterance, demo_tags):
        seqs = [
            inter_time(demo_utterance, tags=demo_tags),
            inter_time(demo_utterance, GroupingConfig(500), demo_tags),
        ]
        path = str(tmp_path / "s.txt")
        write_serialized_text(seqs, path)
        lines = read_text_lines(path)
        assert lines == [(1, render_text(seqs[0])), (2, render_text(seqs[1]))]


class TestChannelsRoundTrip:
    def test_round_trip(self, tmp_path):
        records = [
            ("u1", {"#ASR#": ("a", "b"), "#ES#": ("x",)}),
            ("u2", {"#ASR#": ()}),
        ]
        path = str(tmp_path / "ch.jsonl")
        write_channels(records, path)
        back, diags = read_channels(path)
        assert diags == []
        assert back == {"u1": {"#ASR#": ("a", "b"), "#ES#": ("x",)}, "u2": {"#ASR#": ()}}

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
        back, diags = read_channels(str(path))
        assert list(back) == ["u1"]
        assert diags[0].index == 2


class TestTraceRoundTrip:
    def test_round_trip(self, tmp_path, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = list(replay(seq, ReplayPolicy(), 1200).values())
        path = str(tmp_path / "tr.jsonl")
        write_traces(traces, path)
        back, diags = read_traces(path)
        assert diags == []
        assert back == traces

    def test_invalid_trace_line(self, tmp_path):
        path = tmp_path / "tr.jsonl"
        good = EmissionTrace("u", "#ES#", ((0, 10),), 100, 1)
        write_traces([good], str(path))
        text = path.read_text() + '{"v":1,"utt_id":"u2"}\n'
        path.write_text(text)
        back, diags = read_traces(str(path))
        assert back == [good]
        assert diags[0].code == "bad-record"


class TestTagSetSidecar:
    def test_round_trip(self, tmp_path, demo_tags):
        path = str(tmp_path / "tags.json")
        write_tag_set(demo_tags, path)
        back = read_tag_set(path)
        assert back.surfaces == demo_tags.surfaces
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
        monkeypatch.setattr("sys.stdin", io.StringIO("one\ntwo\n"))
        assert read_text_lines("-") == [(1, "one"), (2, "two")]

    def test_dash_writes_stdout(self, capsys, demo_tags):
        write_tag_set(demo_tags, "-")
        out = capsys.readouterr().out
        assert json.loads(out)["tags"][0]["surface"] == "#ASR#"


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
    "serialized": (lambda path: read_serialized(path, TagSet((ASR,))), lambda records: [s.utt_id for s in records]),
    "channels": (read_channels, list),
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
        records, diags = reader(path)
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
        records, diags = reader(str(path))
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
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        else:
            path = str(tmp_path / "bad.jsonl")
            (tmp_path / "bad.jsonl").write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: not valid UTF-8"):
            reader(path)


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
        if text in tags:
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, KeyError, TypeError) as exc:
        return (type(exc), str(exc))


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
        assert got.word_tokens == tuple(t for t in tokens if isinstance(t, WordToken))
        assert len(got) == len(tokens)
        assert _dumps(serialized_to_json(got)) == _dumps(_oracle_to_json(utt_id, tokens, method))
        assert count_switches(got) == _oracle_count_switches(tokens)
        assert render_text(got) == _oracle_render_text(tokens)
        for policy in (ReplayPolicy(), ReplayPolicy("origin_time", 5), ReplayPolicy("group_boundary", 0)):
            for duration in (None, 4000):
                assert _outcome(replay, got, policy, duration) == _outcome(
                    _oracle_replay, utt_id, tokens, method, policy, duration
                )

    @given(_records())
    @settings(max_examples=200)
    def test_both_constructors_give_one_value(self, record):
        columnar = _outcome(serialized_from_json, record, _STREAM_TAGS)
        if not isinstance(columnar, SerializedSequence):
            return
        from_tokens = SerializedSequence(columnar.utt_id, columnar.tokens, columnar.method)
        assert from_tokens == columnar
        assert hash(from_tokens) == hash(columnar)
        assert repr(from_tokens) == repr(columnar)
        for seq in (from_tokens, columnar):
            back = pickle.loads(pickle.dumps(seq))
            assert back == columnar
            assert repr(back) == repr(columnar)
            assert back.tokens == columnar.tokens

    def test_word_spelling_a_tag_stays_a_word(self):
        seq = SerializedSequence("u", (TagToken(ASR), WordToken("#ES#", 5)), SerializationMethod("inter_time"))
        assert seq.items == (ASR, "#ES#")
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
        seqs, diags = read_serialized(str(path), _STREAM_TAGS)
        assert seqs == []
        assert [(d.code, d.message) for d in diags] == [("bad-record", f"{path}:1: {message}")]

    def test_origin_at_a_tag_position_is_dropped(self):
        record = {"v": 1, "utt_id": "u1", "method": {"name": "inter_time"}, "tokens": ["#ASR#", "a"], "origin_times": [9, 1]}
        seq = serialized_from_json(record, _STREAM_TAGS)
        assert seq.origin_times == (None, 1)
        assert serialized_to_json(seq)["origin_times"] == [None, 1]


# ---------------------------------------------------------------------------
# The TimedWord-based corpus reader and validator of the previous version,
# kept as the reference for the columnar channel.


def _oracle_utterance_from_json(obj):
    _check_version(obj)
    channels = []
    for ch in obj["channels"]:
        tag = Tag(ch["tag"], Modality(ch["modality"]), ch["lang"])
        words = tuple(TimedWord(w["t"], w["w"]) for w in ch["words"])
        channels.append(Channel(tag=tag, words=words))
    return Utterance(utt_id=obj["utt_id"], duration_ms=obj["duration_ms"], channels=tuple(channels))


def _oracle_validate_utterance(u, words_by_channel, tags):
    diags = []
    if not u.channels:
        diags.append(Diagnostic("no-channels", "utterance has no channels", utt_id=u.utt_id))
    seen = {}
    surfaces = set(tags.surfaces)
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
