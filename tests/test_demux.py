from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tokenweave import (
    UNKNOWN_CHANNEL,
    DemuxState,
    Diagnostic,
    GroupingConfig,
    Modality,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    TagToken,
    WordToken,
    demux_full,
    feed,
    inter_time,
    render_text,
)
from conftest import ASR, DE, DEMO_GROUPED_500, DEMO_UNGROUPED, ES, FR


class TestRoundTrip:
    def test_ungrouped_text_round_trip(self, demo_utterance, demo_tags):
        result = demux_full(DEMO_UNGROUPED, demo_tags, utt_id="demo-001")
        assert result.diagnostics == []
        assert result.words == {
            "#ASR#": ["I", "am", "happy."],
            "#ES#": ["Estoy", "feliz."],
            "#DE#": ["Ich", "bin", "froh."],
        }

    def test_grouped_text_round_trip(self, demo_utterance, demo_tags):
        result = demux_full(DEMO_GROUPED_500, demo_tags)
        assert result.diagnostics == []
        assert all(
            result.words[ch.tag.surface] == [tw.word for tw in ch.words]
            for ch in demo_utterance.channels
        )

    def test_sequence_and_text_inputs_agree(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, GroupingConfig(500), demo_tags)
        from_seq = demux_full(seq, demo_tags)
        from_text = demux_full(render_text(seq), demo_tags, utt_id=seq.utt_id)
        from_items, _ = _fold(seq.items, demo_tags, seq.utt_id)
        assert from_seq == from_text == from_items

    def test_words_keep_routing_and_times(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        state = DemuxState()
        routed: dict[str, list] = {}
        for item, origin in zip(seq.items, seq.origin_times):
            tag = feed(state, item, demo_tags)
            if isinstance(item, str):
                assert tag is not None
                routed.setdefault(tag.surface, []).append((origin, item))
        assert routed == {ch.tag.surface: list(zip(ch.times, ch.texts)) for ch in demo_utterance.channels}
        assert demux_full(seq, demo_tags).words == {s: [w for _, w in pairs] for s, pairs in routed.items()}


class TestIncrementality:
    def test_fold_equals_batch(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        state, routed = _fold(seq.items, demo_tags, seq.utt_id)
        batch = demux_full(seq, demo_tags)
        assert state == batch
        assert routed == _run_tags(seq.items, demo_tags)

    def test_midstream_state_reflects_prefix(self, demo_tags):
        state = DemuxState()
        feed(state, "#ASR#", demo_tags)
        feed(state, "I", demo_tags)
        assert state.words == {"#ASR#": ["I"]}
        feed(state, "#ES#", demo_tags)
        assert state.current_tag.surface == "#ES#"
        feed(state, "Estoy", demo_tags)
        assert state.words == {"#ASR#": ["I"], "#ES#": ["Estoy"]}


class TestRobustness:
    def test_word_before_any_tag(self, demo_tags):
        result = demux_full("hello #ASR# hi", demo_tags)
        assert [d.code for d in result.diagnostics] == ["untagged-word"]
        assert result.words[UNKNOWN_CHANNEL] == ["hello"]
        assert result.words["#ASR#"] == ["hi"]

    def test_unknown_tag_words_go_to_unknown_bucket(self):
        # Declared set lacks #DE#, so a sequence's #DE# Tag is an undeclared tag.
        small = TagSet((ASR,))
        seq = SerializedSequence("u", (ASR, "a", DE, "x"), (None, 1, None, 2), SerializationMethod("inter_time"))
        result = demux_full(seq, small)
        assert [d.code for d in result.diagnostics] == ["unknown-tag"]
        assert result.words == {"#ASR#": ["a"], UNKNOWN_CHANNEL: ["x"]}

    def test_undeclared_surface_in_text_is_just_a_word(self, demo_tags):
        result = demux_full("#ASR# a #XX# x y #ES# s", demo_tags)
        assert result.words["#ASR#"] == ["a", "#XX#", "x", "y"]
        assert result.words["#ES#"] == ["s"]
        assert result.diagnostics == []

    def test_redundant_tag_is_flagged_but_routed(self, demo_tags):
        result = demux_full("#ASR# a #ASR# b", demo_tags)
        assert [d.code for d in result.diagnostics] == ["redundant-tag"]
        assert result.words["#ASR#"] == ["a", "b"]

    def test_empty_tokens_from_double_spaces(self, demo_tags):
        result = demux_full("#ASR#  a", demo_tags)
        assert [d.code for d in result.diagnostics] == ["empty-token"]
        assert result.words["#ASR#"] == ["a"]

    def test_tag_with_no_words_still_materializes_channel(self, demo_tags):
        result = demux_full("#ASR# a #ES#", demo_tags)
        assert result.words == {"#ASR#": ["a"], "#ES#": []}
        assert result.diagnostics == []

    def test_empty_stream(self, demo_tags):
        result = demux_full("", demo_tags)
        assert result.words == {}
        assert result.diagnostics == []

    @given(st.lists(st.sampled_from(["#ASR#", "#ES#", "#XX#", "a", "b", ""]), max_size=25))
    @settings(max_examples=120)
    def test_never_raises_and_loses_no_word(self, tokens):
        tags = TagSet((ASR, ES))
        result = demux_full(" ".join(tokens), tags)
        routed = sum(len(v) for v in result.words.values())
        expected_words = sum(1 for t in tokens if t not in ("#ASR#", "#ES#", ""))
        assert routed == expected_words

    def test_diagnostics_carry_token_index(self, demo_tags):
        result = demux_full("oops #ASR# a", demo_tags)
        assert result.diagnostics[0].index == 0

    def test_fed_tag_item_is_a_tag(self, demo_tags):
        # A Tag is a tag even when `tags` does not declare it.
        state = DemuxState()
        assert [feed(state, t, demo_tags) for t in (ASR, "a", FR, "b")] == [None, ASR, None, None]
        assert state.words == {"#ASR#": ["a"], UNKNOWN_CHANNEL: ["b"]}
        assert [(d.code, d.tag, d.index) for d in state.diagnostics] == [("unknown-tag", "#FR#", 2)]

    def test_fed_text_is_read_as_a_line_is(self, demo_tags):
        # Other whitespace splits a word, a declared surface is a tag, and a space is two empty tokens.
        state = DemuxState()
        feed(state, ASR, demo_tags)
        assert feed(state, "a\tb", demo_tags) == ASR
        assert feed(state, "#ASR# c", demo_tags) == ASR
        assert feed(state, " ", demo_tags) is None
        assert state.words == {"#ASR#": ["a", "b", "c"]}
        assert [(d.code, d.index) for d in state.diagnostics] == [("redundant-tag", 3), ("empty-token", 5), ("empty-token", 6)]
        assert state == demux_full("#ASR# a\tb #ASR# c  ", demo_tags)

    @pytest.mark.parametrize("token", [None, 7, b"a", TagToken(ASR), WordToken("a")])
    def test_feed_refuses_what_is_not_an_item(self, demo_tags, token):
        state = DemuxState()
        feed(state, ASR, demo_tags)
        with pytest.raises(TypeError, match=f"^feed takes a Tag or a str, got {type(token).__name__}$"):
            feed(state, token, demo_tags)
        assert state == DemuxState(current_tag=ASR, words={"#ASR#": []}, token_index=1)

    @pytest.mark.parametrize("stream", [["#ASR#", "a"], [ASR, "a"], None, b"#ASR# a"])
    def test_demux_full_refuses_what_is_not_a_sequence_or_a_line(self, demo_tags, stream):
        with pytest.raises(TypeError, match=f"^demux_full takes a SerializedSequence or a str, got {type(stream).__name__}$"):
            demux_full(stream, demo_tags)


# The reference: `DemuxState` and `feed` as they were before routing moved
# into one routine, kept verbatim apart from the names.  The live router must
# match their fold on every input form.


@dataclass
class _RefState:
    current_tag: Tag | None = None
    current_known: bool = True
    words: dict[str, list[str]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    token_index: int = 0
    utt_id: str = ""

    def channel_key(self) -> str:
        if self.current_tag is None or not self.current_known:
            return UNKNOWN_CHANNEL
        return self.current_tag.surface


def _ref_feed(state: _RefState, token: TagToken | WordToken | str, tags: TagSet) -> Tag | None:
    idx = state.token_index
    state.token_index += 1

    tag: Tag | None = None
    word: str | None = None
    if isinstance(token, TagToken):
        tag = token.tag
    elif isinstance(token, WordToken):
        word = token.word
    else:
        looked = tags.get(token)
        if looked is not None:
            tag = looked
        else:
            word = token

    if tag is not None:
        known = tag.surface in tags
        if not known:
            state.diagnostics.append(
                Diagnostic(
                    "unknown-tag",
                    f"tag {tag.surface!r} is not in the tag set",
                    utt_id=state.utt_id,
                    tag=tag.surface,
                    index=idx,
                )
            )
        elif state.current_tag is not None and state.current_known and tag.surface == state.current_tag.surface:
            state.diagnostics.append(
                Diagnostic(
                    "redundant-tag",
                    f"tag {tag.surface!r} repeated without a channel switch",
                    utt_id=state.utt_id,
                    tag=tag.surface,
                    index=idx,
                )
            )
        state.current_tag = tag
        state.current_known = known
        if known:
            state.words.setdefault(tag.surface, [])
        return None

    assert word is not None
    if word == "":
        state.diagnostics.append(
            Diagnostic(
                "empty-token",
                "empty token (consecutive spaces in text input?)",
                utt_id=state.utt_id,
                index=idx,
            )
        )
        return None
    if state.current_tag is None:
        state.diagnostics.append(
            Diagnostic(
                "untagged-word",
                f"word {word!r} arrived before any tag",
                utt_id=state.utt_id,
                index=idx,
            )
        )
    key = state.channel_key()
    state.words.setdefault(key, []).append(word)
    return state.current_tag if key != UNKNOWN_CHANNEL else None


def _ref_fold(tokens, tags, utt_id):
    """The reference fold; a bare Tag is fed as its TagToken, as a sequence takes it."""
    state = _RefState(utt_id=utt_id)
    routed = [_ref_feed(state, TagToken(t) if isinstance(t, Tag) else t, tags) for t in tokens]
    return state, routed


def _fold(items, tags, utt_id):
    """The fold of `feed` over `items`: the final state and each call's result."""
    state = DemuxState(utt_id=utt_id)
    return state, [feed(state, x, tags) for x in items]


def _check_against_reference(state, tokens, tags):
    """`state` equals the reference fold over `tokens`; returns the fold's routed tags."""
    ref, ref_routed = _ref_fold(tokens, tags, state.utt_id)
    assert list(state.words.items()) == list(ref.words.items())  # channel order too
    assert state.diagnostics == ref.diagnostics
    for name in ("current_tag", "current_known", "token_index"):
        assert getattr(state, name) == getattr(ref, name), name
    return ref_routed


def _check_line(line, tokens, tags, utt_id):
    """`demux_full` of `line`, the fold of `feed` over its `tokens` and, for a non-empty line, `feed` of the line all equal the reference fold."""
    whole = demux_full(line, tags, utt_id=utt_id)
    state, routed = _fold(tokens, tags, utt_id)
    assert state == whole
    assert routed == _check_against_reference(whole, tokens, tags)
    if line:
        by_line = DemuxState(utt_id=utt_id)
        assert feed(by_line, line, tags) == routed[-1]
        assert by_line == whole


def _run_tags(items, tags):
    """Per position of a valid sequence: None at a tag, else the run's tag when `tags` declares it."""
    out, current = [], None
    for x in items:
        if isinstance(x, Tag):
            current = x if x.surface in tags else None
            out.append(None)
        else:
            out.append(current)
    return out


# Same surface as ES, another language: a TagSet holding it still declares "#ES#".
_ES_PT = Tag("#ES#", Modality.TRANSLATION, "pt")


@st.composite
def _sequences(draw):
    items, origin_times = [], []
    prev = None
    for i, (tag, words) in enumerate(
        draw(st.lists(st.tuples(st.sampled_from([ASR, ES, DE]), st.lists(st.sampled_from(["a", "b", "#ES#", "#XX#"]), max_size=4)), max_size=7))
    ):
        if tag == prev or (items and isinstance(items[-1], Tag)):
            continue
        prev = tag
        items.append(tag)
        items += words
        origin_times += [None] + [draw(st.one_of(st.none(), st.integers(0, 3000))) for _ in words]
    return SerializedSequence("u7", tuple(items), tuple(origin_times), SerializationMethod("inter_time"))


_DECLARED = st.lists(st.sampled_from([ASR, ES, DE, _ES_PT]), min_size=1, max_size=3, unique_by=lambda t: t.surface)
_TEXT_TOKENS = ["#ASR#", "#ES#", "#DE#", "#XX#", "<unknown>", "a", "b", ""]


@st.composite
def _spaced_text(draw):
    """A text line whose space-separated tokens hold other whitespace, and the tokens demux reads in it."""
    pieces, tokens = [], []
    for words in draw(st.lists(st.lists(st.sampled_from(_TEXT_TOKENS[:-1]), max_size=3), max_size=8)):
        # Other whitespace before, between (at least one) and after the words.
        gaps = [
            draw(st.text(st.sampled_from("\t\r\x0b\u3000"), min_size=1 if 0 < i < len(words) else 0, max_size=2))
            for i in range(len(words) + 1)
        ]
        pieces.append(gaps[0] + "".join(w + gap for w, gap in zip(words, gaps[1:])))
        tokens += words or [""]
    line = " ".join(pieces)
    return line, tokens if line else []


class TestColumnarDemuxMatchesFeedFold:
    @given(_sequences(), _DECLARED, st.sampled_from(["", "given-id"]))
    @settings(max_examples=400)
    def test_words_diagnostics_and_routing(self, seq, declared, utt_id):
        tags = TagSet(tuple(declared))
        whole = demux_full(seq, tags, utt_id=utt_id)
        assert whole.utt_id == (utt_id or seq.utt_id)
        routed = _check_against_reference(whole, seq.tokens, tags)
        assert routed == _run_tags(seq.items, tags)
        # `feed` reads a string that spells a declared surface as that tag, so
        # its fold over the items equals the sequence's only without such words.
        if not any(isinstance(x, str) and x in tags for x in seq.items):
            state, fed = _fold(seq.items, tags, whole.utt_id)
            assert state == whole
            assert fed == routed
            # A routed word reports the sequence's own Tag object.
            assert all(t is None or any(t is x for x in seq.items) for t in fed)

    @given(st.lists(st.sampled_from([ASR, DE, ES, _ES_PT] + _TEXT_TOKENS), max_size=25), _DECLARED)
    @settings(max_examples=400)
    def test_item_folds_match_the_reference(self, items, declared):
        tags = TagSet(tuple(declared))
        state, routed = _fold(items, tags, "u")
        assert routed == _check_against_reference(state, items, tags)

    @given(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=25), _DECLARED)
    @settings(max_examples=400)
    def test_text_lines_match_the_reference(self, tokens, declared):
        line = " ".join(tokens)
        _check_line(line, line.split(" ") if line else [], TagSet(tuple(declared)), "line000001")

    @given(_spaced_text(), _DECLARED)
    @settings(max_examples=400)
    def test_other_whitespace_splits_a_text_token(self, line_and_tokens, declared):
        # A token that holds a tab or the like is its words; one of that whitespace only is empty.
        line, tokens = line_and_tokens
        _check_line(line, tokens, TagSet(tuple(declared)), "line000001")

    @given(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=25), st.integers(0, 25))
    @settings(max_examples=300)
    def test_prefix_then_rest_equals_whole(self, drawn, cut):
        line = " ".join(drawn)
        tokens = line.split(" ") if line else []
        # The line of the one token "" is empty, and an empty line holds no token.
        assume(tokens[:cut] != [""])
        tags = TagSet((ASR, ES, DE))
        whole = demux_full(line, tags, utt_id="u")
        by_feed = DemuxState(utt_id="u")
        for t in tokens[:cut]:
            feed(by_feed, t, tags)
        resumed = demux_full(" ".join(tokens[:cut]), tags, utt_id="u")
        for t in tokens[cut:]:
            feed(by_feed, t, tags)
            feed(resumed, t, tags)
        assert by_feed == whole
        assert resumed == whole

    def test_unknown_tag_run_goes_to_the_unknown_bucket(self):
        seq = SerializedSequence("u", (ASR, "a", DE, "x", ES), (None, 1, None, 2, None), SerializationMethod("inter_time"))
        result = demux_full(seq, TagSet((ASR, ES)))
        assert result.words == {"#ASR#": ["a"], UNKNOWN_CHANNEL: ["x"], "#ES#": []}
        assert [(d.code, d.index, d.utt_id) for d in result.diagnostics] == [("unknown-tag", 2, "u")]
        _, routed = _fold(seq.items, TagSet((ASR, ES)), "")
        words = [(t, x, i, o) for i, (t, x, o) in enumerate(zip(routed, seq.items, seq.origin_times)) if isinstance(x, str)]
        assert words == [(ASR, "a", 1, 1), (None, "x", 3, 2)]
