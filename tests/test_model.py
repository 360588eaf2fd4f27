from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import sys
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenweave import (
    UNKNOWN_CHANNEL,
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
    check_sequence,
    validate_utterance,
)
from tokenweave.demux import DemuxState
from tokenweave.formats import _dumps, serialized_from_json
from tokenweave.model import _all_token_text, _check_int, _check_token_text
from conftest import ASR, DE, ES


class TestTimedWord:
    @pytest.mark.parametrize("time", [0, 1, 200, 10**9])
    def test_accepts_non_negative_times(self, time):
        assert TimedWord(time, "hello").time == time

    @pytest.mark.parametrize("time", [-1, -200, 1.5, "200", None, True])
    def test_rejects_bad_times(self, time):
        with pytest.raises(ValueError):
            TimedWord(time, "hello")

    @pytest.mark.parametrize("word", ["", " ", "two words", "tab\there", "\n", None, 7])
    def test_rejects_bad_words(self, word):
        with pytest.raises(ValueError):
            TimedWord(0, word)

    def test_immutable(self):
        tw = TimedWord(5, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            tw.time = 6


def _old_whitespace_rule_accepts(value: str) -> bool:
    """The per-character rule the token-text check used before: no ``isspace`` character."""
    return bool(value) and not any(ch.isspace() for ch in value)


def _accepts(make, value) -> bool:
    try:
        make(value)
    except ValueError:
        return False
    return True


_TOKEN_TEXT_CHECKS = [
    lambda v: TimedWord(0, v),
    lambda v: WordToken(v),
]


def _make_tag(surface):
    return Tag(surface, Modality.TRANSCRIPTION, "en")


class TestTokenTextWhitespace:
    @given(st.text())
    @example(UNKNOWN_CHANNEL)
    @example("\x1c")
    @example("\x85")
    @example("a\u2003b")
    @example("\u3000")
    @example("\u200b")
    def test_matches_per_character_isspace_rule(self, value):
        expected = _old_whitespace_rule_accepts(value)
        for make in _TOKEN_TEXT_CHECKS:
            assert _accepts(make, value) == expected
        # A tag surface also must not be the reserved unknown bucket.
        assert _accepts(_make_tag, value) == (expected and value != UNKNOWN_CHANNEL)

    @pytest.mark.parametrize("value", ["\x1c", "\x85", "a\u2003b", "\u3000"])
    def test_rejects_unicode_whitespace(self, value):
        for make in (*_TOKEN_TEXT_CHECKS, _make_tag):
            with pytest.raises(ValueError, match="whitespace"):
                make(value)


# Text no UTF-8 file can hold: a lone surrogate, alone, after ASCII and after other non-ASCII text.
_SURROGATE_TEXTS = ["b\ud800", "x\udc80", "\udfff", "é\ud800"]


class TestLoneSurrogates:
    """Every string a record holds has a UTF-8 form, so no writer stops partway through a file."""

    @pytest.mark.parametrize("text", _SURROGATE_TEXTS)
    @pytest.mark.parametrize(
        "what, build",
        [
            ("utt_id", lambda t: Utterance(t, 10, ())),
            ("word", lambda t: TimedWord(0, t)),
            ("word", lambda t: WordToken(t)),
            ("word", lambda t: Channel._from_columns(ASR, (0, 5), ("é", t))),
            ("word", lambda t: SerializedSequence("u", (ASR, "a", t), (None, 0, 5), SerializationMethod("inter_time"))),
            ("tag surface", lambda t: Tag(t, Modality.TRANSCRIPTION, "en")),
            ("language", lambda t: Tag("#X#", Modality.TRANSCRIPTION, t)),
            ("utt_id", lambda t: SerializedSequence(t, (ASR, "a"), (None, 0), SerializationMethod("inter_time"))),
            ("utt_id", lambda t: EmissionTrace(t, "#ASR#", ((0, 1),), 10, 1)),
            ("tag", lambda t: EmissionTrace("u", t, ((0, 1),), 10, 1)),
        ],
    )
    def test_is_refused_with_one_message(self, text, what, build):
        with pytest.raises(ValueError) as info:
            build(text)
        assert str(info.value) == f"{what} holds a lone surrogate, which has no UTF-8 form: {text!r}"

    def test_other_text_beyond_ascii_is_kept(self):
        ch = Channel._from_columns(Tag("#日本#", Modality.TRANSLATION, "ja"), (0, 5), ("é", "日本"))
        assert ch.texts == ("é", "日本") and ch.tag.surface == "#日本#"

    @given(st.lists(st.text(st.characters(exclude_categories=()), max_size=3), max_size=4))
    @example(["a", "b\ud800"])
    @example(["é", "\udc80"])
    def test_bulk_check_agrees_with_the_word_check(self, words):
        assert _all_token_text(words) == all(_accepts(lambda w: _check_token_text(w, "word"), w) for w in words)


class TestTag:
    def test_fields(self):
        assert ASR.surface == "#ASR#"
        assert ASR.modality is Modality.TRANSCRIPTION
        assert ES.modality is Modality.TRANSLATION

    def test_rejects_whitespace_surface(self):
        with pytest.raises(ValueError):
            Tag("a b", Modality.TRANSCRIPTION, "en")

    def test_rejects_empty_language(self):
        with pytest.raises(ValueError):
            Tag("#X#", Modality.TRANSCRIPTION, "")

    def test_rejects_non_modality(self):
        with pytest.raises(ValueError):
            Tag("#X#", "asr", "en")


class TestTagSet:
    def test_lookup(self):
        ts = TagSet((ASR, ES, DE))
        assert "#ES#" in ts
        assert "#FR#" not in ts
        assert ts.get("#DE#") is DE
        assert ts.get("#FR#") is None
        assert list(ts) == [ASR, ES, DE]

    @given(st.one_of(st.sampled_from(["#ASR#", "#ES#", "#DE#", "#FR#", "#asr#", ""]), st.text(), st.none(), st.integers(), st.lists(st.text())))
    def test_lookup_matches_linear_scan(self, surface):
        ts = TagSet((ASR, ES, DE))
        matches = [t for t in ts.tags if t.surface == surface]
        assert (surface in ts) == bool(matches)
        assert ts.get(surface) is (matches[0] if matches else None)

    def test_index_is_not_part_of_value(self):
        ts = TagSet((ASR, ES))
        assert ts == TagSet([ASR, ES])
        assert hash(ts) == hash(TagSet((ASR, ES)))
        assert "_by_surface" not in repr(ts)
        copy = pickle.loads(pickle.dumps(ts))
        assert copy == ts
        assert copy.get("#ES#") == ES and copy.tags == (ASR, ES)

    def test_rejects_duplicate_surface(self):
        dup = Tag("#ASR#", Modality.TRANSLATION, "de")
        with pytest.raises(ValueError, match="duplicate tag surfaces"):
            TagSet((ASR, dup))

    def test_rejects_reserved_surface(self):
        with pytest.raises(ValueError, match="reserved"):
            TagSet((Tag(UNKNOWN_CHANNEL, Modality.TRANSCRIPTION, "en"),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TagSet(())


class TestUtterance:
    def test_channel_lookup(self, demo_utterance):
        assert demo_utterance.channel("#ES#").words[0].word == "Estoy"
        assert demo_utterance.channel("#XX#") is None

    @pytest.mark.parametrize("duration", [0, -5, 1.5, True])
    def test_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError):
            Utterance("u", duration, ())

    @pytest.mark.parametrize("channels, shown", [((5,), "(5,)"), (["a", "b"], "('a', 'b')")], ids=["int", "str"])
    def test_rejects_a_channel_that_is_no_channel(self, channels, shown):
        # Checked after utt_id and duration_ms, with the message the serializers give.
        with pytest.raises(ValueError) as info:
            Utterance("u", 10, channels)
        assert str(info.value) == f"every channel must be a Channel, got {shown}"
        with pytest.raises(ValueError, match="^duration_ms "):
            Utterance("u", 0, channels)

    @pytest.mark.parametrize(
        "words, shown",
        [([(0, "a")], "(0, 'a')"), ((TimedWord(0, "a"), "b"), "'b'"), (["a", "b"], "'a'")],
        ids=["pair", "str-word", "str"],
    )
    def test_channel_rejects_a_word_that_is_no_timed_word(self, words, shown):
        with pytest.raises(ValueError) as info:
            Channel(ASR, words)
        assert str(info.value) == f"every word must be a TimedWord, got {shown}"

    def test_channels_coerced_to_tuple(self):
        u = Utterance("u", 10, [Channel(ASR, [TimedWord(1, "a")])])
        assert isinstance(u.channels, tuple)
        assert isinstance(u.channels[0].words, tuple)

    def test_non_monotone_channel_is_constructible(self):
        # Constructors stay permissive; the validator reports the issue.
        ch = Channel(ASR, (TimedWord(500, "b"), TimedWord(100, "a")))
        u = Utterance("u", 10, (ch,))
        codes = [d.code for d in validate_utterance(u, TagSet((ASR,)))]
        assert codes == ["non-monotone-time"]


class TestValidateUtterance:
    def test_valid_demo(self, demo_utterance, demo_tags):
        assert validate_utterance(demo_utterance, demo_tags) == []

    def test_no_channels(self, demo_tags):
        diags = validate_utterance(Utterance("u", 10, ()), demo_tags)
        assert [d.code for d in diags] == ["no-channels"]

    def test_duplicate_channel_tag(self, demo_tags):
        ch = Channel(ASR, (TimedWord(1, "a"),))
        diags = validate_utterance(Utterance("u", 10, (ch, ch)), demo_tags)
        assert "duplicate-channel-tag" in [d.code for d in diags]

    def test_tags_may_be_any_iterable_of_tags(self):
        # The corpus reader checks a record against its own channel tags.
        ch = Channel(ASR, (TimedWord(1, "a"), TimedWord(2, "#ES#")))
        u = Utterance("u", 10, (ch, ch))
        assert [d.code for d in validate_utterance(u, [ASR, ES])] == ["word-is-tag", "duplicate-channel-tag", "word-is-tag"]
        assert [d.code for d in validate_utterance(u, (ch.tag for ch in u.channels))] == ["duplicate-channel-tag"]

    def test_unknown_channel_tag(self, demo_tags):
        other = Tag("#XX#", Modality.TRANSLATION, "xx")
        u = Utterance("u", 10, (Channel(other, (TimedWord(1, "a"),)),))
        diags = validate_utterance(u, demo_tags)
        assert [d.code for d in diags] == ["unknown-channel-tag"]

    def test_word_colliding_with_tag_surface(self, demo_tags):
        u = Utterance("u", 10, (Channel(ASR, (TimedWord(1, "#ES#"),)),))
        diags = validate_utterance(u, demo_tags)
        assert [d.code for d in diags] == ["word-is-tag"]

    def test_diagnostics_carry_context(self, demo_tags):
        ch = Channel(ASR, (TimedWord(500, "b"), TimedWord(100, "a")))
        d = validate_utterance(Utterance("utt-9", 10, (ch,)), demo_tags)[0]
        assert d.utt_id == "utt-9"
        assert d.tag == "#ASR#"
        assert d.index == 1
        assert d.to_json()["code"] == "non-monotone-time"


class TestSerializedSequence:
    def test_empty_is_valid(self):
        s = SerializedSequence("u", (), (), SerializationMethod("inter_time"))
        assert len(s) == 0
        assert s.tokens == ()

    @pytest.mark.parametrize("method", [{"name": "zigzag"}, {"name": "inter_time"}, "inter_time", None])
    def test_method_that_is_not_a_method_record_is_rejected(self, method):
        # Caught when the sequence is built, not when it is written.
        with pytest.raises(ValueError, match=f"^method must be a SerializationMethod, got {type(method).__name__}$"):
            SerializedSequence("u", (), (), method)
        with pytest.raises(ValueError, match="method must be a SerializationMethod"):
            SerializedSequence("u", (ASR, "a"), (None, 1), method)

    @pytest.mark.parametrize(
        "items, origin_times, message",
        [
            ((ASR, "a", "b"), (None, 1), "origin_times length 2 != items length 3"),
            ((ASR, "a"), (None, 1, 2), "origin_times length 3 != items length 2"),
            ((), (None,), "origin_times length 1 != items length 0"),
        ],
    )
    def test_columns_of_unequal_length_rejected(self, items, origin_times, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SerializedSequence("u", items, origin_times, SerializationMethod("inter_time"))

    @pytest.mark.parametrize(
        "items, origin_times, message",
        [
            ((ASR, "a"), (5, 1), "origin time 5 at tag position 0"),
            ((ASR, "a", ES, "b"), (None, 1, 0, 2), "origin time 0 at tag position 2"),
            # The first fault by position names the message.
            ((ASR, "a b", ES), (None, 1, 3), "word must not contain whitespace: 'a b'"),
        ],
    )
    def test_origin_time_at_a_tag_position_rejected(self, items, origin_times, message):
        # A timed tag would be written as a line that the own-tags reader rejects.
        with pytest.raises(ValueError, match=f"^{message}$"):
            SerializedSequence("u", items, origin_times, SerializationMethod("inter_time"))

    @pytest.mark.parametrize(
        "origin_times, group_ms, message",
        [
            ((None, 5, "x"), None, "origin_times[2] must be a JSON integer, got str"),
            ((None, 5, "x"), 500, "origin_times[2] must be a JSON integer, got str"),
            ((None, [5], 7), None, "origin_times[1] must be a JSON integer, got list"),
            # The first bad origin time is named.
            ((None, 2.5, "x"), None, "origin_times[1] must be a JSON integer, got float"),
            ((None, -1, 7), None, "origin_times[1] must be non-negative, got -1"),
            ((None, True, 7), None, "origin_times[1] must be a JSON integer, got bool"),
        ],
    )
    def test_origin_time_that_is_not_an_int_at_least_0_is_refused(self, origin_times, group_ms, message):
        # With the reader's message: no sequence that the reader refuses can be built, written or replayed.
        method = SerializationMethod("inter_time", group_ms=group_ms)
        with pytest.raises(ValueError) as exc:
            SerializedSequence("u", (ASR, "a", "b"), origin_times, method)
        assert str(exc.value) == message
        record = {"v": 1, "utt_id": "u", "method": method.to_json(), "tokens": ["#ASR#", "a", "b"], "origin_times": list(origin_times)}
        for tags in (TagSet((ASR,)), None):
            with pytest.raises(ValueError) as exc:
                serialized_from_json(record, tags)
            assert str(exc.value) == message

    def test_word_before_tag_rejected(self):
        with pytest.raises(ValueError, match="precedes any tag"):
            SerializedSequence("u", ("hi",), (None,), SerializationMethod("inter_time"))

    def test_adjacent_tags_rejected(self):
        with pytest.raises(ValueError, match="adjacent tag tokens"):
            SerializedSequence("u", (ASR, ES, "hola"), (None, None, 1), SerializationMethod("inter_time"))

    def test_repeated_tag_without_switch_rejected(self):
        with pytest.raises(ValueError, match="repeated without a switch"):
            SerializedSequence("u", (ASR, "a", ASR, "b"), (None, 1, None, 2), SerializationMethod("inter_time"))

    def test_check_sequence_lists_every_problem(self):
        assert check_sequence((ASR, "a", ES, "b")) == []
        assert check_sequence(("a", ASR, ES, ASR, "b", ASR)) == [
            "word 'a' at index 0 precedes any tag",
            "adjacent tag tokens at index 2",
            "adjacent tag tokens at index 3",
            "tag '#ASR#' repeated without a switch at index 5",
        ]

    def test_foreign_object_rejected(self):
        with pytest.raises(ValueError, match="word must be a non-empty string"):
            SerializedSequence("u", (ASR, object()), (None, None), SerializationMethod("inter_time"))

    def test_columns_and_token_view(self):
        s = SerializedSequence("u", (ASR, "a", "b", ES, "c"), (None, 10, None, None, 30), SerializationMethod("inter_time"))
        assert s.tokens == (TagToken(ASR), WordToken("a", 10), WordToken("b"), TagToken(ES), WordToken("c", 30))
        assert s.items[0] is ASR
        back = pickle.loads(pickle.dumps(s))
        assert (back, hash(back), repr(back)) == (s, hash(s), repr(s))


class TestSerializationMethod:
    @pytest.mark.parametrize(
        "method",
        [
            SerializationMethod("inter_time"),
            SerializationMethod("inter_time", group_ms=500),
            SerializationMethod("inter_gamma", gamma=0.25),
            SerializationMethod("inter_gamma", gamma=1),
        ],
    )
    def test_json_round_trip(self, method):
        assert SerializationMethod.from_json(method.to_json()) == method

    @given(
        st.builds(SerializationMethod, st.just("inter_time"), group_ms=st.none() | st.integers(1, 10**9))
        | st.builds(SerializationMethod, st.just("inter_gamma"), gamma=st.floats(0, 1) | st.integers(0, 1))
    )
    def test_rebuilds_from_its_own_json(self, method):
        assert SerializationMethod.from_json(json.loads(_dumps(method.to_json()))) == method

    def test_json_refuses_a_field_it_does_not_know(self):
        # Read as absent, the misspelt field would make an ungrouped inter_time.
        with pytest.raises(ValueError) as info:
            SerializationMethod.from_json({"name": "inter_time", "group-ms": 500})
        assert str(info.value) == "method has an unknown field 'group-ms'; its fields are name, gamma, group_ms"

    def test_values_are_stored_as_given(self):
        assert SerializationMethod("inter_gamma", gamma=1).to_json() == {"name": "inter_gamma", "gamma": 1}
        assert type(SerializationMethod("inter_gamma", gamma=1).gamma) is int

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"name": "zigzag"}, "unknown serialization method 'zigzag'"),
            ({"name": "inter-time"}, "unknown serialization method 'inter-time'"),
            ({"name": "inter_time", "gamma": 0.5}, "inter_time takes no gamma, got 0.5"),
            ({"name": "inter_time", "group_ms": 0}, "group_ms must be a positive integer, got 0"),
            ({"name": "inter_time", "group_ms": True}, "group_ms must be a positive integer, got True"),
            ({"name": "inter_time", "group_ms": 1.5}, "group_ms must be a positive integer, got 1.5"),
            ({"name": "inter_gamma"}, "inter_gamma requires a gamma value"),
            ({"name": "inter_gamma", "gamma": 0.5, "group_ms": 500}, "inter_gamma takes no group_ms, got 500"),
            ({"name": "inter_gamma", "gamma": "0.5"}, "gamma must be a number within [0, 1], got '0.5'"),
            ({"name": "inter_gamma", "gamma": True}, "gamma must be a number within [0, 1], got True"),
            ({"name": "inter_gamma", "gamma": -0.1}, "gamma must be a number within [0, 1], got -0.1"),
            ({"name": "inter_gamma", "gamma": 2}, "gamma must be a number within [0, 1], got 2"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            SerializationMethod(**kwargs)
        assert str(exc.value) == message

    def test_grouping_config_validation(self):
        assert GroupingConfig(None).step_ms is None
        assert GroupingConfig(250).step_ms == 250
        for bad in (0, -5, 1.5, True):
            with pytest.raises(ValueError):
                GroupingConfig(bad)


word_text = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1,
    max_size=8,
)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**6), word_text), max_size=20))
def test_channel_accepts_any_valid_words(pairs):
    ch = Channel(ASR, tuple(TimedWord(t, w) for t, w in pairs))
    assert len(ch) == len(pairs)


@given(st.integers(min_value=0, max_value=10**6), word_text)
def test_timed_word_round_trips_fields(time, word):
    tw = TimedWord(time, word)
    assert (tw.time, tw.word) == (time, word)


@dataclasses.dataclass(frozen=True, slots=True)
class _PairTrace:
    """The pair-based EmissionTrace that the columnar one replaced, kept as its reference."""

    utt_id: str
    tag: str
    entries: tuple
    source_duration_ms: int
    ref_len: int

    def __post_init__(self) -> None:
        entries = []
        for i, e in enumerate(self.entries):
            if not isinstance(e, (tuple, list)):
                raise ValueError(f"entries[{i}] must be a JSON list, got {type(e).__name__}")
            if len(e) != 2:
                raise ValueError(f"entries[{i}] must be a [ordinal, delay] pair, got {e!r}")
            entries.append((_check_int(e[0], f"entries[{i}][0]"), _check_int(e[1], f"entries[{i}][1]")))
        entries = tuple(entries)
        object.__setattr__(self, "entries", entries)
        _check_int(self.ref_len, "ref_len", 0)
        prev = None
        for _, d in entries:
            if prev is not None and d < prev:
                raise ValueError(f"delays must be non-decreasing, got {d} after {prev}")
            prev = d
        if not entries:
            raise ValueError(f"empty trace for {self.utt_id!r}/{self.tag!r}")
        _check_int(self.source_duration_ms, "source_duration_ms", 1)
        if max(self.source_duration_ms, -entries[0][1], entries[-1][1]) > sys.float_info.max:
            raise ValueError(f"times beyond {sys.float_info.max:g} ms cannot be scored")

    @property
    def delays(self) -> tuple:
        return tuple(d for _, d in self.entries)


def _mostly(good, bad, one_in=5):
    """Draws from `bad` once in `one_in` draws, else from `good`."""
    return st.integers(1, one_in).flatmap(lambda k: bad if k == 1 else good)


_ODD = st.sampled_from([10**20, 10**400, -(10**400), True, False, 1.0, 2.5, float("nan"), "1", "", None])
_INT_PAIRS = st.lists(
    st.tuples(st.integers(0, 100), _mostly(st.integers(-(10**6), 10**6), st.sampled_from([10**20, 10**400, -(10**400)]), 20)),
    max_size=8,
)
_TRACE_ENTRIES = _mostly(
    _INT_PAIRS.map(lambda entries: sorted(entries, key=itemgetter(1))),
    st.one_of(
        _INT_PAIRS,  # delays in any order
        st.lists(st.tuples(_mostly(st.integers(-5, 5), _ODD), _mostly(st.integers(-5, 5), _ODD)).map(list), max_size=5),
        st.lists(st.lists(st.integers(0, 5), max_size=3), max_size=3),  # not pairs
    ),
    2,
)
_DURATION = _mostly(st.integers(-1, 10**7), _ODD)
_REF_LEN = _mostly(st.integers(-1, 20), _ODD)


def _build(make):
    """`(object, None)` if `make()` returns, else `(None, (exception type, message))`."""
    try:
        return make(), None
    except (ValueError, TypeError) as exc:
        return None, (type(exc), str(exc))


class TestEmissionTraceMatchesPairOracle:
    @given(_TRACE_ENTRIES, _DURATION, _REF_LEN)
    @settings(max_examples=500)
    @example([], 10, 1)
    @example([(0, 5), (1, 4)], 10, 1)
    @example([(0, 10**400)], 10, 1)
    @example([(0, -(10**400)), (1, 5)], 10, 1)
    @example([[0, 5], [2, 10**20]], 7, 0)
    def test_same_trace_or_same_error(self, entries, duration, ref_len):
        got, error = _build(lambda: EmissionTrace("u", "#ES#", entries, duration, ref_len))
        want, want_error = _build(lambda: _PairTrace("u", "#ES#", entries, duration, ref_len))
        assert error == want_error
        int_pairs = all(isinstance(e, (tuple, list)) and len(e) == 2 and {*map(type, e)} <= {int} for e in entries)
        if int_pairs:
            # `_from_columns` takes int columns, which its callers check; past the
            # types, it runs the row constructor's checks: the columns fail as the pairs do.
            columns = _build(
                lambda: EmissionTrace._from_columns(
                    "u", "#ES#", tuple(o for o, _ in entries), tuple(d for _, d in entries), duration, ref_len
                )
            )
            assert columns[1] == error
        if error is None:
            assert (got.entries, got.delays) == (want.entries, want.delays)
            assert (got.utt_id, got.tag, got.source_duration_ms, got.ref_len) == ("u", "#ES#", duration, ref_len)
            assert got.ordinals == tuple(o for o, _ in want.entries)
            assert columns[0] == got and hash(columns[0]) == hash(got)
            assert pickle.loads(pickle.dumps(got)) == got

    def test_columns_are_stored_and_entries_is_a_view(self):
        tr = EmissionTrace._from_columns("u", "#ES#", (0, 2), (5, 9), 10, 2)
        assert (tr.ordinals, tr.delays, tr.entries) == ((0, 2), (5, 9), ((0, 5), (2, 9)))
        assert tr == EmissionTrace("u", "#ES#", [[0, 5], [2, 9]], 10, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.delays = (1, 2)


# One case per record class: keyword arguments in signature order, the fields
# in slot order, and another value for each argument that can change alone
# (for the mutable DemuxState, for each field).
_RECORD_CASES = [
    (TimedWord, dict(time=5, word="x"), ("time", "word"), dict(time=6, word="y")),
    (
        Tag,
        dict(surface="#FR#", modality=Modality.TRANSLATION, language="fr"),
        ("surface", "modality", "language"),
        dict(surface="#X#", modality=Modality.TRANSCRIPTION, language="de"),
    ),
    (TagSet, dict(tags=(ASR, ES)), ("tags",), dict(tags=(ASR, DE))),
    (
        Channel,
        dict(tag=ASR, words=(TimedWord(0, "hi"), TimedWord(5, "there"))),
        ("tag", "times", "texts"),
        dict(tag=ES, words=(TimedWord(0, "hi"),)),
    ),
    (
        Utterance,
        dict(utt_id="u1", duration_ms=1000, channels=(Channel(ASR, [TimedWord(0, "hi")]),)),
        ("utt_id", "duration_ms", "channels"),
        dict(utt_id="u2", duration_ms=999, channels=()),
    ),
    (TagToken, dict(tag=ASR), ("tag",), dict(tag=ES)),
    (WordToken, dict(word="hi", origin_time=5), ("word", "origin_time"), dict(word="ho", origin_time=None)),
    (
        SerializationMethod,
        dict(name="inter_gamma", gamma=0.5, group_ms=None),
        ("name", "gamma", "group_ms"),
        dict(gamma=0.25),
    ),
    (
        SerializedSequence,
        dict(utt_id="u1", items=(ASR, "hi"), origin_times=(None, 0), method=SerializationMethod("inter_time")),
        ("utt_id", "items", "origin_times", "method"),
        dict(utt_id="u2", items=(ES, "hi"), origin_times=(None, 1), method=SerializationMethod("inter_time", group_ms=9)),
    ),
    (GroupingConfig, dict(step_ms=500), ("step_ms",), dict(step_ms=None)),
    (
        Diagnostic,
        dict(code="c", message="m", utt_id="u1", tag="#ASR#", index=3),
        ("code", "message", "utt_id", "tag", "index"),
        dict(code="d", message="n", utt_id=None, tag=None, index=4),
    ),
    (
        EmissionTrace,
        dict(utt_id="u1", tag="#ES#", entries=((1, 5), (2, 9)), source_duration_ms=10, ref_len=2),
        ("utt_id", "tag", "ordinals", "delays", "source_duration_ms", "ref_len"),
        dict(utt_id="u2", tag="#DE#", entries=((1, 5),), source_duration_ms=11, ref_len=3),
    ),
    (
        SynthConfig,
        dict(
            seed=1,
            num_utterances=2,
            words_per_channel=(1, 3),
            word_rate_ms=(100, 200),
            translation_lag_ms=(0, 50),
            reorder_window_ms=0,
            channels=(ASR, ES),
            vocab_size=10,
        ),
        (
            "seed",
            "num_utterances",
            "words_per_channel",
            "word_rate_ms",
            "translation_lag_ms",
            "reorder_window_ms",
            "vocab_size",
            "channels",
        ),
        dict(
            seed=2,
            num_utterances=3,
            words_per_channel=(1, 4),
            word_rate_ms=(100, 300),
            translation_lag_ms=(0, 60),
            reorder_window_ms=5,
            channels=(ASR, DE),
            vocab_size=11,
        ),
    ),
    (ReplayPolicy, dict(mode="origin_time", overhead_ms=5), ("mode", "overhead_ms"), dict(mode="auto", overhead_ms=0)),
    (
        DemuxState,
        dict(current_tag=ASR, current_known=False, words={"#ASR#": ["hi"]}, diagnostics=[], token_index=2, utt_id="u1"),
        ("current_tag", "current_known", "words", "diagnostics", "token_index", "utt_id"),
        dict(
            current_tag=ES,
            current_known=True,
            words={},
            diagnostics=[Diagnostic("c", "m")],
            token_index=3,
            utt_id="u2",
        ),
    ),
]


class TestRecordContract:
    """Every record class compares, hashes, prints and pickles by its fields, and refuses assignment."""

    @pytest.fixture(params=_RECORD_CASES, ids=lambda case: case[0].__name__)
    def case(self, request):
        return request.param

    def test_equal_records_have_equal_hashes(self, case):
        cls, kwargs, _, _ = case
        a, b = cls(**copy.deepcopy(kwargs)), cls(*copy.deepcopy(kwargs).values())
        assert a == b and not a != b
        if cls is DemuxState:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_changing_one_argument_makes_records_unequal(self, case):
        cls, kwargs, _, others = case
        for name, value in others.items():
            assert cls(**{**kwargs, name: value}) != cls(**kwargs), name

    def test_other_classes_are_never_equal(self, case):
        cls, kwargs, fields, _ = case
        record = cls(**kwargs)
        for other_cls, other_kwargs, _, _ in _RECORD_CASES:
            if other_cls is not cls:
                assert record != other_cls(**other_kwargs)
        assert record != tuple(getattr(record, name) for name in fields)
        assert record.__eq__(object()) is NotImplemented

    def test_repr_names_the_fields_in_order(self, case):
        cls, kwargs, fields, _ = case
        record = cls(**kwargs)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_pickle_round_trips(self, case):
        cls, kwargs, fields, _ = case
        record = cls(**kwargs)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls and back == record and repr(back) == repr(record)
            assert [getattr(back, name) for name in fields] == [getattr(record, name) for name in fields]

    def test_fields_are_frozen_except_on_the_demux_state(self, case):
        cls, kwargs, fields, others = case
        record = cls(**kwargs)
        for name in fields:
            if cls is DemuxState:
                setattr(record, name, others[name])
                assert getattr(record, name) == others[name]
                delattr(record, name)
                assert not hasattr(record, name)
                continue
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
            assert record == cls(**kwargs)


@pytest.mark.parametrize("value", [5, {}, "ab"], ids=["int", "dict", "str"])
@pytest.mark.parametrize(
    "cls, field",
    [
        (TagSet, "tags"),
        (Channel, "words"),
        (Utterance, "channels"),
        (SerializedSequence, "items"),
        (SerializedSequence, "origin_times"),
        (EmissionTrace, "entries"),
        (SynthConfig, "channels"),
    ],
    ids=["TagSet", "Channel", "Utterance", "SerializedSequence-items", "SerializedSequence-origin_times", "EmissionTrace", "SynthConfig"],
)
def test_collection_field_that_is_no_list_or_tuple_is_refused(cls, field, value):
    # With the readers' message, as a ValueError: a string is no list of its characters.
    kwargs = next(kwargs for case_cls, kwargs, _, _ in _RECORD_CASES if case_cls is cls)
    with pytest.raises(ValueError) as info:
        cls(**{**kwargs, field: value})
    assert str(info.value) == f"{field} must be a JSON list, got {type(value).__name__}"
