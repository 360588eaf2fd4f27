from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tokenweave import (
    UNKNOWN_CHANNEL,
    Channel,
    GroupingConfig,
    Modality,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    TagToken,
    TimedWord,
    Utterance,
    WordToken,
    check_sequence,
    validate_utterance,
)
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
    lambda v: Tag(v, Modality.TRANSCRIPTION, "en"),
]


class TestTokenTextWhitespace:
    @given(st.text())
    @example("\x1c")
    @example("\x85")
    @example("a\u2003b")
    @example("\u3000")
    @example("\u200b")
    def test_matches_per_character_isspace_rule(self, value):
        expected = _old_whitespace_rule_accepts(value)
        for make in _TOKEN_TEXT_CHECKS:
            assert _accepts(make, value) == expected

    @pytest.mark.parametrize("value", ["\x1c", "\x85", "a\u2003b", "\u3000"])
    def test_rejects_unicode_whitespace(self, value):
        for make in _TOKEN_TEXT_CHECKS:
            with pytest.raises(ValueError, match="whitespace"):
                make(value)


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
    def test_lookup_and_priority(self):
        ts = TagSet((ASR, ES, DE))
        assert "#ES#" in ts
        assert "#FR#" not in ts
        assert ts.get("#DE#") is DE
        assert ts.get("#FR#") is None
        assert ts.priority("#ASR#") == 0
        assert ts.priority("#DE#") == 2
        assert ts.priority("#XX#") == 3
        assert ts.surfaces == ("#ASR#", "#ES#", "#DE#")
        assert list(ts) == [ASR, ES, DE]

    @given(st.one_of(st.sampled_from(["#ASR#", "#ES#", "#DE#", "#FR#", "#asr#", ""]), st.text(), st.none(), st.integers(), st.lists(st.text())))
    def test_lookup_matches_linear_scan(self, surface):
        ts = TagSet((ASR, ES, DE))
        matches = [(i, t) for i, t in enumerate(ts.tags) if t.surface == surface]
        assert (surface in ts) == bool(matches)
        assert ts.get(surface) is (matches[0][1] if matches else None)
        assert ts.priority(surface) == (matches[0][0] if matches else len(ts.tags))

    def test_index_is_not_part_of_value(self):
        ts = TagSet((ASR, ES))
        assert ts == TagSet([ASR, ES])
        assert hash(ts) == hash(TagSet((ASR, ES)))
        assert "_by_surface" not in repr(ts)
        copy = pickle.loads(pickle.dumps(ts))
        assert copy == ts
        assert copy.get("#ES#") == ES and copy.priority("#ES#") == 1

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
        s = SerializedSequence("u", (), SerializationMethod("inter_time"))
        assert len(s) == 0
        assert s.word_tokens == ()

    def test_word_before_tag_rejected(self):
        with pytest.raises(ValueError, match="precedes any tag"):
            SerializedSequence("u", (WordToken("hi"),), SerializationMethod("inter_time"))

    def test_adjacent_tags_rejected(self):
        toks = (TagToken(ASR), TagToken(ES), WordToken("hola"))
        with pytest.raises(ValueError, match="adjacent tag tokens"):
            SerializedSequence("u", toks, SerializationMethod("inter_time"))

    def test_repeated_tag_without_switch_rejected(self):
        toks = (TagToken(ASR), WordToken("a"), TagToken(ASR), WordToken("b"))
        with pytest.raises(ValueError, match="repeated without a switch"):
            SerializedSequence("u", toks, SerializationMethod("inter_time"))

    def test_check_sequence_flags_foreign_objects(self):
        assert check_sequence([object()]) != []

    @pytest.mark.parametrize(
        "tokens",
        [
            (TagToken(ASR), WordToken("a"), TagToken(ES), WordToken("b")),
            (WordToken("a"), WordToken("b"), TagToken(ASR)),
            (TagToken(ASR), TagToken(ES), TagToken(ASR), WordToken("a"), TagToken(ASR)),
            (TagToken(ASR), WordToken("#ASR#"), TagToken(ASR)),
            (TagToken(ASR), 5, TagToken(ES)),
        ],
    )
    def test_check_sequence_reads_items_like_tokens(self, tokens):
        def item(t):
            return t.tag if isinstance(t, TagToken) else t.word if isinstance(t, WordToken) else t

        assert check_sequence([item(t) for t in tokens]) == check_sequence(tokens)

    def test_foreign_object_rejected(self):
        with pytest.raises(ValueError, match="word must be a non-empty string"):
            SerializedSequence("u", (TagToken(ASR), object()), SerializationMethod("inter_time"))

    def test_columns_and_token_view(self):
        toks = (TagToken(ASR), WordToken("a", 10), WordToken("b"), TagToken(ES), WordToken("c", 30))
        s = SerializedSequence("u", toks, SerializationMethod("inter_time"))
        assert s.items == (ASR, "a", "b", ES, "c")
        assert s.origin_times == (None, 10, None, None, 30)
        assert s.tokens == toks
        assert s.items[0] is ASR

    def test_word_tokens_property(self):
        toks = (TagToken(ASR), WordToken("a"), TagToken(ES), WordToken("b"))
        s = SerializedSequence("u", toks, SerializationMethod("inter_time"))
        assert [w.word for w in s.word_tokens] == ["a", "b"]


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
