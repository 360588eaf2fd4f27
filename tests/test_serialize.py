from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenweave import (
    Channel,
    GroupingConfig,
    ReplayPolicy,
    SerializationMethod,
    SerializedSequence,
    Tag,
    TagSet,
    TagToken,
    TimedWord,
    Utterance,
    WordToken,
    assign_group,
    count_switches,
    inter_gamma,
    inter_time,
    render_text,
    replay,
    serialize_utterance,
)
from conftest import ASR, DE, DEMO_GROUPED_500, DEMO_UNGROUPED, ES, FR


# ---------------------------------------------------------------------------
# Reference: the object-pass pipeline the sorted-tuple serializer replaced.
# merge_and_sort -> group_and_reorder -> emit_with_tags, one MergedWord per
# word, and the count-ratio loop built on the same records.


@dataclass(frozen=True)
class MergedWord:
    time: int
    tag: Tag
    word: str
    origin_time: int
    channel_rank: int


def merge_and_sort(u, tags=None):
    if tags is not None:
        priority = {t.surface: i for i, t in enumerate(tags.tags)}
    else:
        priority = {ch.tag.surface: i for i, ch in enumerate(u.channels)}
    merged = []
    for ch in u.channels:
        for rank, tw in enumerate(ch.words):
            merged.append(MergedWord(tw.time, ch.tag, tw.word, tw.time, rank))
    merged.sort(key=lambda mw: (mw.time, priority.get(mw.tag.surface, len(priority)), mw.channel_rank))
    return merged


def emit_with_tags(words, utt_id, method):
    tokens = []
    prev_surface = None
    for mw in words:
        if mw.tag.surface != prev_surface:
            tokens.append(TagToken(mw.tag))
            prev_surface = mw.tag.surface
        tokens.append(WordToken(mw.word, origin_time=mw.origin_time))
    return SerializedSequence(utt_id=utt_id, tokens=tuple(tokens), method=method)


def group_and_reorder(words, step_ms):
    out = []
    bucket = []
    bucket_ts = None

    def flush():
        by_tag = {}
        for mw in bucket:
            by_tag.setdefault(mw.tag.surface, []).append(mw)
        for run in by_tag.values():
            out.extend(run)

    for mw in words:
        ts = assign_group(mw.origin_time, step_ms)
        if bucket_ts is not None and ts != bucket_ts:
            flush()
            bucket = []
        bucket_ts = ts
        bucket.append(MergedWord(ts, mw.tag, mw.word, mw.origin_time, mw.channel_rank))
    if bucket:
        flush()
    return out


def oracle_inter_gamma(asr, st_ch, g, utt_id):
    merged = []
    i = j = 0
    while i < len(asr.words) or j < len(st_ch.words):
        if i < len(asr.words) and j < len(st_ch.words):
            take_asr = (1.0 - g) * (1 + j) >= g * (1 + i)
        else:
            take_asr = i < len(asr.words)
        if take_asr:
            tw = asr.words[i]
            merged.append(MergedWord(tw.time, asr.tag, tw.word, tw.time, i))
            i += 1
        else:
            tw = st_ch.words[j]
            merged.append(MergedWord(tw.time, st_ch.tag, tw.word, tw.time, j))
            j += 1
    return emit_with_tags(merged, utt_id, SerializationMethod("inter_gamma", gamma=g))


def oracle_serialize(u, method, tags):
    if method.name == "inter_time":
        merged = merge_and_sort(u, tags)
        if method.group_ms is not None:
            merged = group_and_reorder(merged, method.group_ms)
        return emit_with_tags(merged, u.utt_id, SerializationMethod("inter_time", group_ms=method.group_ms))
    first, second = u.channels
    if first.tag.modality != second.tag.modality and second.tag.modality.value == "asr":
        first, second = second, first
    return oracle_inter_gamma(first, second, float(method.gamma), u.utt_id)


# The seven methods of the study-sweep benchmark workload.
STUDY_METHODS = [
    SerializationMethod("inter_time"),
    SerializationMethod("inter_time", group_ms=250),
    SerializationMethod("inter_time", group_ms=500),
    SerializationMethod("inter_time", group_ms=1000),
    SerializationMethod("inter_gamma", gamma=0.0),
    SerializationMethod("inter_gamma", gamma=0.5),
    SerializationMethod("inter_gamma", gamma=1.0),
]

# None falls back to channel order; the others reorder priorities, lack a
# channel's tag, or know none of them (every channel ties at "unknown").
ORACLE_TAG_SETS = [
    None,
    TagSet((ASR, ES, DE)),
    TagSet((DE, ES, ASR)),
    TagSet((ES, DE)),
    TagSet((FR,)),
]


@st.composite
def _oracle_utterances(draw):
    """Channels in any order (tags may repeat), possibly empty or non-monotone,
    with times on a coarse grid so that cross-channel ties are common, and
    just below grid points so that words sit on window edges."""
    channel_tags = draw(st.lists(st.sampled_from([ASR, ES, DE]), min_size=1, max_size=3))
    channels = []
    for tag in channel_tags:
        times = draw(
            st.lists(
                st.one_of(
                    st.integers(0, 12).map(lambda k: 125 * k),
                    st.integers(1, 12).map(lambda k: 125 * k - 1),
                    st.integers(0, 1600),
                ),
                max_size=10,
            )
        )
        if draw(st.booleans()):
            times.sort()
        words = draw(st.lists(st.sampled_from(["a", "b", "c."]), min_size=len(times), max_size=len(times)))
        channels.append(Channel(tag, tuple(TimedWord(t, w) for t, w in zip(times, words))))
    return Utterance("o", 2000, tuple(channels))


def _surfaces(seq):
    return [t.tag.surface if isinstance(t, TagToken) else t.word for t in seq.tokens]


class TestMatchesOracle:
    @given(_oracle_utterances(), st.sampled_from(ORACLE_TAG_SETS))
    @settings(max_examples=300)
    @example(  # timestamps tied across channels, no tag set
        Utterance("o", 2000, (Channel(ES, (TimedWord(250, "b"),)), Channel(ASR, (TimedWord(250, "a"),)))),
        None,
    )
    @example(  # a tag set lacking one channel's tag (it ties last), and an empty channel
        Utterance("o", 2000, (Channel(ASR, (TimedWord(0, "a"),)), Channel(ES, (TimedWord(0, "b"),)), Channel(DE, ()))),
        TagSet((ES, DE)),
    )
    @example(  # a non-monotone channel
        Utterance("o", 2000, (Channel(ASR, (TimedWord(900, "a"), TimedWord(100, "b"))), Channel(ES, (TimedWord(500, "c."),)))),
        TagSet((ASR, ES)),
    )
    @example(  # two channels with one tag: one run, one tag token
        Utterance("o", 2000, (Channel(ASR, (TimedWord(0, "a"),)), Channel(ASR, (TimedWord(10, "b"),)))),
        None,
    )
    @example(  # a window opened by the lower-priority channel
        Utterance("o", 2000, (Channel(ASR, (TimedWord(300, "a"),)), Channel(ES, (TimedWord(100, "b"),)))),
        TagSet((ASR, ES)),
    )
    @example(  # a word on the last millisecond of a window
        Utterance("o", 2000, (Channel(ASR, (TimedWord(100, "a"), TimedWord(499, "a"))), Channel(ES, (TimedWord(200, "b"),)))),
        TagSet((ASR, ES)),
    )
    def test_every_study_method_matches_reference(self, u, tags):
        for method in STUDY_METHODS:
            if method.name == "inter_gamma" and len(u.channels) != 2:
                with pytest.raises(ValueError, match="exactly two channels"):
                    serialize_utterance(u, method, tags)
                continue
            got = serialize_utterance(u, method, tags)
            want = oracle_serialize(u, method, tags)
            assert _surfaces(got) == _surfaces(want)
            # Token equality covers each tag, word and origin_time.
            assert got == want


class TestGoldenSerialization:
    def test_ungrouped_text(self, demo_utterance, demo_tags):
        s = inter_time(demo_utterance, tags=demo_tags)
        assert render_text(s) == DEMO_UNGROUPED

    def test_grouped_500_text(self, demo_utterance, demo_tags):
        s = inter_time(demo_utterance, GroupingConfig(500), demo_tags)
        assert render_text(s) == DEMO_GROUPED_500

    def test_tag_counts(self, demo_utterance, demo_tags):
        assert count_switches(inter_time(demo_utterance, tags=demo_tags)) == 8
        assert count_switches(inter_time(demo_utterance, GroupingConfig(500), demo_tags)) == 6

    def test_method_provenance(self, demo_utterance, demo_tags):
        assert inter_time(demo_utterance, tags=demo_tags).method == SerializationMethod("inter_time")
        grouped = inter_time(demo_utterance, GroupingConfig(500), demo_tags)
        assert grouped.method == SerializationMethod("inter_time", group_ms=500)

    def test_grouping_preserves_origin_times(self, demo_utterance, demo_tags):
        grouped = inter_time(demo_utterance, GroupingConfig(500), demo_tags)
        origins = [t.origin_time for t in grouped.tokens if isinstance(t, WordToken)]
        assert origins == [200, 400, 300, 500, 800, 700, 900, 1100]

    def test_dispatcher_matches_direct_call(self, demo_utterance, demo_tags):
        via_method = serialize_utterance(
            demo_utterance, SerializationMethod("inter_time", group_ms=500), demo_tags
        )
        assert via_method == inter_time(demo_utterance, GroupingConfig(500), demo_tags)


class TestMergeAndSort:
    """The time, tag-priority, rank merge inside inter_time."""

    def test_orders_by_time(self, demo_utterance, demo_tags):
        merged = inter_time(demo_utterance, tags=demo_tags).word_tokens
        assert [wt.origin_time for wt in merged] == sorted(wt.origin_time for wt in merged)
        assert [wt.word for wt in merged] == [
            "I", "Estoy", "am", "Ich", "happy.", "bin", "feliz.", "froh.",
        ]

    def test_timestamp_tie_broken_by_tag_declaration_order(self):
        u = Utterance(
            "tie", 100,
            (
                Channel(ES, (TimedWord(50, "hola"),)),
                Channel(ASR, (TimedWord(50, "hello"),)),
            ),
        )
        merged = inter_time(u, tags=TagSet((ASR, ES))).word_tokens
        assert [wt.word for wt in merged] == ["hello", "hola"]
        # Without a tag set the utterance's channel order is the priority.
        merged = inter_time(u, tags=None).word_tokens
        assert [wt.word for wt in merged] == ["hola", "hello"]


class TestAssignGroup:
    @pytest.mark.parametrize(
        "time,step,expected",
        [
            (0, 500, 500),
            (1, 500, 500),
            (499, 500, 500),
            (500, 500, 1000),
            (999, 500, 1000),
            (1000, 500, 1500),
            (300, 500, 500),
            (900, 500, 1000),
            (0, 1, 1),
            (7, 250, 250),
            (250, 250, 500),
        ],
    )
    def test_window_boundaries(self, time, step, expected):
        assert assign_group(time, step) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            assign_group(100, 0)
        with pytest.raises(ValueError):
            assign_group(-1, 500)

    @given(st.integers(min_value=0, max_value=10**7), st.integers(min_value=1, max_value=5000))
    def test_bound_property(self, time, step):
        ts = assign_group(time, step)
        assert 0 < ts - time <= step
        assert ts % step == 0


def _utterances(min_channels=1, max_channels=3):
    """Strategy for utterances with monotone channels over fixed tags."""
    all_tags = [ASR, ES, DE]

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_channels, max_value=max_channels))
        channels = []
        for tag in all_tags[:n]:
            gaps = draw(st.lists(st.integers(min_value=0, max_value=400), max_size=12))
            t = 0
            words = []
            for k, gap in enumerate(gaps):
                t += gap
                words.append(TimedWord(t, f"{tag.language}{k}"))
            channels.append(Channel(tag, tuple(words)))
        return Utterance("h", 10_000, tuple(channels))

    return build()


class TestGroupingProperties:
    @given(_utterances(), st.sampled_from([250, 500, 1000]))
    @settings(max_examples=60)
    def test_channel_order_is_preserved(self, u, step):
        tags = TagSet((ASR, ES, DE))
        seq = inter_time(u, GroupingConfig(step), tags)
        routed: dict[str, list[str]] = {}
        current = None
        for tok in seq.tokens:
            if isinstance(tok, TagToken):
                current = tok.tag.surface
            else:
                routed.setdefault(current, []).append(tok.word)
        for ch in u.channels:
            assert routed.get(ch.tag.surface, []) == [tw.word for tw in ch.words]

    @given(_utterances(), st.sampled_from([250, 500, 1000]))
    @settings(max_examples=60)
    def test_one_run_per_channel_per_window(self, u, step):
        tags = TagSet((ASR, ES, DE))
        seen_in_window: set[tuple[int, str]] = set()
        prev_key = None
        current = None
        for tok in inter_time(u, GroupingConfig(step), tags).tokens:
            if isinstance(tok, TagToken):
                current = tok.tag.surface
                continue
            key = (assign_group(tok.origin_time, step), current)
            if key != prev_key:
                assert key not in seen_in_window, "channel run split inside a window"
                seen_in_window.add(key)
            prev_key = key

    @given(_utterances(), st.sampled_from([250, 500]))
    @settings(max_examples=60)
    def test_substituted_times_are_window_boundaries(self, u, step):
        # The substituted time is what a boundary replay charges each word.
        tags = TagSet((ASR, ES, DE))
        seq = inter_time(u, GroupingConfig(step), tags)
        traces = replay(seq, ReplayPolicy(mode="group_boundary"))
        charged = sorted(entry for trace in traces.values() for entry in trace.entries)
        words = [(i, t) for i, t in enumerate(seq.tokens) if isinstance(t, WordToken)]
        assert [ordinal for ordinal, _ in charged] == [i for i, _ in words]
        for (_, time), (_, wt) in zip(charged, words):
            assert time == assign_group(wt.origin_time, step)
        assert [time for _, time in charged] == sorted(time for _, time in charged)

    @given(_utterances())
    @settings(max_examples=60)
    def test_coarser_windows_never_add_switches(self, u):
        tags = TagSet((ASR, ES, DE))
        ungrouped = count_switches(inter_time(u, tags=tags))
        at_500 = count_switches(inter_time(u, GroupingConfig(500), tags))
        at_1000 = count_switches(inter_time(u, GroupingConfig(1000), tags))
        assert at_1000 <= at_500 <= ungrouped


def _two_channels(asr_words: list[str], st_words: list[str]) -> tuple[Channel, Channel]:
    a = Channel(ASR, tuple(TimedWord(100 * (i + 1), w) for i, w in enumerate(asr_words)))
    b = Channel(ES, tuple(TimedWord(130 * (i + 1), w) for i, w in enumerate(st_words)))
    return a, b


class TestInterGamma:
    def test_gamma_zero_is_transcription_first(self):
        a, b = _two_channels(["a1", "a2", "a3"], ["s1", "s2"])
        seq = inter_gamma(a, b, 0.0, "u")
        assert render_text(seq) == "#ASR# a1 a2 a3 #ES# s1 s2"

    def test_gamma_one_is_translation_first(self):
        a, b = _two_channels(["a1", "a2", "a3"], ["s1", "s2"])
        seq = inter_gamma(a, b, 1.0, "u")
        assert render_text(seq) == "#ES# s1 s2 #ASR# a1 a2 a3"

    def test_gamma_half_alternates_on_equal_lengths(self):
        a, b = _two_channels(["a1", "a2", "a3"], ["s1", "s2", "s3"])
        seq = inter_gamma(a, b, 0.5, "u")
        assert render_text(seq) == "#ASR# a1 #ES# s1 #ASR# a2 #ES# s2 #ASR# a3 #ES# s3"

    def test_remainder_after_exhaustion(self):
        a, b = _two_channels(["a1"], ["s1", "s2", "s3"])
        seq = inter_gamma(a, b, 0.5, "u")
        assert render_text(seq) == "#ASR# a1 #ES# s1 s2 s3"

    def test_quarter_gamma_mixes_three_to_one(self):
        a, b = _two_channels([f"a{i}" for i in range(1, 7)], ["s1", "s2"])
        seq = inter_gamma(a, b, 0.25, "u")
        words = [t.word for t in seq.word_tokens]
        # Counts drift toward a 3:1 transcription:translation ratio.
        assert words[:4] == ["a1", "a2", "a3", "s1"]

    def test_empty_channels(self):
        a, b = _two_channels([], [])
        assert inter_gamma(a, b, 0.5, "u").tokens == ()
        a, b = _two_channels([], ["s1"])
        assert render_text(inter_gamma(a, b, 0.0, "u")) == "#ES# s1"

    def test_gamma_domain(self):
        a, b = _two_channels(["a1"], ["s1"])
        for bad in (-0.1, 1.0001, 2, "0.5", True, None, float("nan")):
            with pytest.raises(ValueError):
                inter_gamma(a, b, bad, "u")
        with pytest.raises(ValueError):
            SerializationMethod("inter_gamma", gamma=1.5)

    def test_method_provenance(self):
        a, b = _two_channels(["a1"], ["s1"])
        assert inter_gamma(a, b, 0.25, "u").method == SerializationMethod("inter_gamma", gamma=0.25)

    @given(
        st.lists(st.sampled_from(["x", "y", "z"]), max_size=10),
        st.lists(st.sampled_from(["p", "q", "r"]), max_size=10),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_emits_every_word_in_channel_order(self, asr_words, st_words, gamma):
        a, b = _two_channels(asr_words, st_words)
        seq = inter_gamma(a, b, gamma, "u")
        routed: dict[str, list[str]] = {"#ASR#": [], "#ES#": []}
        current = None
        for tok in seq.tokens:
            if isinstance(tok, TagToken):
                current = tok.tag.surface
            else:
                routed[current].append(tok.word)
        assert routed["#ASR#"] == asr_words
        assert routed["#ES#"] == st_words


class TestSerializeUtteranceDispatch:
    def test_unknown_method(self, demo_utterance, demo_tags):
        with pytest.raises(ValueError, match="unknown serialization method"):
            serialize_utterance(demo_utterance, SerializationMethod("zigzag"), demo_tags)

    def test_gamma_requires_two_channels(self, demo_utterance, demo_tags):
        with pytest.raises(ValueError, match="exactly two channels"):
            serialize_utterance(demo_utterance, SerializationMethod("inter_gamma", gamma=0.5), demo_tags)

    def test_gamma_requires_gamma(self, demo_utterance, demo_tags):
        with pytest.raises(ValueError, match="requires a gamma"):
            two = Utterance("u", 100, demo_utterance.channels[:2])
            serialize_utterance(two, SerializationMethod("inter_gamma"), demo_tags)

    def test_transcription_takes_first_role_regardless_of_order(self, demo_tags):
        st_ch = Channel(ES, (TimedWord(10, "s1"),))
        asr_ch = Channel(ASR, (TimedWord(10, "a1"),))
        u = Utterance("u", 100, (st_ch, asr_ch))
        seq = serialize_utterance(u, SerializationMethod("inter_gamma", gamma=0.0), demo_tags)
        assert render_text(seq) == "#ASR# a1 #ES# s1"


@given(_utterances())
@settings(max_examples=60)
def test_render_round_trips_through_split(u):
    tags = TagSet((ASR, ES, DE))
    seq = inter_time(u, tags=tags)
    text = render_text(seq)
    if text:
        surfaces = [
            t.tag.surface if isinstance(t, TagToken) else t.word for t in seq.tokens
        ]
        assert text.split(" ") == surfaces
