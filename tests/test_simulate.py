from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenweave import (
    Channel,
    EmissionTrace,
    GroupingConfig,
    Modality,
    ReplayPolicy,
    SerializationMethod,
    SerializedSequence,
    SynthConfig,
    Tag,
    TagSet,
    Utterance,
    count_switches,
    inter_time,
    laal,
    latency_study,
    replay,
    serialize_utterance,
    synth_corpus,
    validate_utterance,
)
from tokenweave.serialize import _ordered, assign_group
from tokenweave.formats import _dumps, utterance_to_json
from tokenweave.simulate import method_label
from conftest import ASR, DE, ES


def _config(**overrides) -> SynthConfig:
    base = dict(
        seed=42,
        num_utterances=25,
        words_per_channel=(0, 30),
        word_rate_ms=(100, 400),
        translation_lag_ms=(0, 500),
        reorder_window_ms=150,
        channels=(ASR, ES, DE),
        vocab_size=200,
    )
    base.update(overrides)
    return SynthConfig(**base)


EN2 = Tag("#EN2#", Modality.TRANSCRIPTION, "en")


@st.composite
def _synth_configs(draw) -> SynthConfig:
    """Any valid generator config: ranges low <= high, a word rate up to at least 1, distinct channel tags."""

    def pair(least_high=0):
        lo = draw(st.integers(0, 10**4))
        return lo, draw(st.integers(max(lo, least_high), 10**4))

    return SynthConfig(
        seed=draw(st.integers(-(2**63), 2**63)),
        num_utterances=draw(st.integers(0, 10**4)),
        words_per_channel=pair(),
        word_rate_ms=pair(1),
        translation_lag_ms=pair(),
        reorder_window_ms=draw(st.integers(0, 10**4)),
        channels=draw(st.permutations([ASR, ES, DE, EN2]).map(lambda tags: tags[: draw(st.integers(1, 4))])),
        vocab_size=draw(st.integers(1, 10**6)),
    )

# Overrides of `_config` that reach every branch of `synth_corpus`, each with
# the SHA-256 of the corpus file `synth` writes for it.  The golden manifest
# only holds plans led by a transcription channel.
PINNED_SYNTH = {
    "no-transcription": ({"channels": (ES, DE)}, "c68d37e539b7fee03de7b71663bd2173298c521167083fe00978db299fad783c"),
    "two-transcriptions": ({"channels": (ASR, ES, EN2, DE)}, "2573444234e7634ccd4cd21b48d98a3b13c3857cefb7668fe02c1305267e061d"),
    "translation-first": ({"channels": (ES, ASR, DE)}, "7f73b667729273289bc76690d79e3567dd21c942052e39b22a0bf1b67f8f4846"),
    "words-from-0": ({"words_per_channel": (0, 2), "num_utterances": 60}, "c322ba46e1fbb6d507c8bec6aeeaf3cd1d1fdba18168aca3982b9d83e05fe3fc"),
    "rate-from-0": ({"word_rate_ms": (0, 3)}, "363db0082ec0b1974e8849b161944b4a8cb0ca96ebf60696b4b73de9cfa2b0f9"),
    "window-0": ({"reorder_window_ms": 0}, "7a819f5359ddff0788cf23cdf78692e3a95773a29744908044ebe87fde7dce56"),
    "window-400": ({"reorder_window_ms": 400}, "3483553fd6862a7d32e8b5fcad2d97c978cc1be3adf2e86c678d5e5921e7ce11"),
}


class TestSynthCorpus:
    def test_deterministic_for_a_seed(self):
        a = [utterance_to_json(u) for u in synth_corpus(_config())]
        b = [utterance_to_json(u) for u in synth_corpus(_config())]
        assert a == b

    def test_seeds_differ(self):
        a = [utterance_to_json(u) for u in synth_corpus(_config(seed=1))]
        b = [utterance_to_json(u) for u in synth_corpus(_config(seed=2))]
        assert a != b

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_utterance_validates(self, seed):
        tags = TagSet((ASR, ES, DE))
        for u in synth_corpus(_config(seed=seed)):
            assert validate_utterance(u, tags) == []
            assert u.duration_ms >= 1

    def test_zero_lag_zero_window_copies_anchor_times(self):
        cfg = _config(
            words_per_channel=(10, 10),
            translation_lag_ms=(0, 0),
            reorder_window_ms=0,
            channels=(ASR, ES),
            num_utterances=5,
        )
        for u in synth_corpus(cfg):
            asr_times = [tw.time for tw in u.channel("#ASR#").words]
            st_times = [tw.time for tw in u.channel("#ES#").words]
            assert st_times == asr_times

    def test_channel_times_are_monotone(self):
        for u in synth_corpus(_config(reorder_window_ms=400)):
            for ch in u.channels:
                times = [tw.time for tw in ch.words]
                assert times == sorted(times)

    @pytest.mark.parametrize("name", PINNED_SYNTH)
    def test_corpus_bytes_are_pinned(self, name):
        overrides, digest = PINNED_SYNTH[name]
        lines = "".join(_dumps(utterance_to_json(u)) + "\n" for u in synth_corpus(_config(**overrides)))
        assert hashlib.sha256(lines.encode()).hexdigest() == digest

    def test_utt_ids_are_unique_and_seed_scoped(self):
        ids = [u.utt_id for u in synth_corpus(_config())]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith("s42-") for i in ids)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"words_per_channel": (5, 2)},
            {"word_rate_ms": (-1, 10)},
            {"word_rate_ms": (0, 0)},
            {"reorder_window_ms": -1},
            {"num_utterances": -1},
            {"vocab_size": 0},
            {"channels": ()},
        ],
    )
    def test_config_validation(self, overrides):
        with pytest.raises(ValueError):
            _config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": 1.5}, "seed must be a JSON integer, got float"),
            ({"seed": True}, "seed must be a JSON integer, got bool"),
            ({"num_utterances": 2.7}, "num_utterances must be a JSON integer, got float"),
            ({"words_per_channel": (1.9, 3.2)}, "words_per_channel[0] must be a JSON integer, got float"),
            ({"word_rate_ms": (True, 2.5)}, "word_rate_ms[0] must be a JSON integer, got bool"),
            ({"word_rate_ms": (1, 2.5)}, "word_rate_ms[1] must be a JSON integer, got float"),
            ({"translation_lag_ms": ("0", 5)}, "translation_lag_ms[0] must be a JSON integer, got str"),
            ({"reorder_window_ms": 0.0}, "reorder_window_ms must be a JSON integer, got float"),
            ({"vocab_size": False}, "vocab_size must be a JSON integer, got bool"),
            # A range is a list or tuple of two: not the first two of three, nor an int or a mapping.
            ({"words_per_channel": (1, 2, 3)}, "words_per_channel must be a [low, high] pair, got (1, 2, 3)"),
            ({"words_per_channel": 5}, "words_per_channel must be a JSON list, got int"),
            ({"words_per_channel": {"a": 1, "b": 2}}, "words_per_channel must be a JSON list, got dict"),
        ],
    )
    def test_config_numbers_must_be_ints(self, overrides, message):
        # Nothing is coerced: a float or bool is refused, not truncated.
        with pytest.raises(ValueError) as info:
            _config(**overrides)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"reorder_window_ms": -1}, "reorder_window_ms must be >= 0, got -1"),
            ({"num_utterances": -1}, "num_utterances must be >= 0, got -1"),
            ({"vocab_size": 0}, "vocab_size must be >= 1, got 0"),
            # With several out of bounds, the first of these three is named.
            ({"reorder_window_ms": -1, "num_utterances": -1, "vocab_size": 0}, "reorder_window_ms must be >= 0, got -1"),
            ({"num_utterances": -1, "vocab_size": 0}, "num_utterances must be >= 0, got -1"),
            ({"vocab_size": 0, "channels": ()}, "vocab_size must be >= 1, got 0"),
        ],
    )
    def test_config_bounds_are_checked_in_order(self, overrides, message):
        with pytest.raises(ValueError) as info:
            _config(**overrides)
        assert str(info.value) == message

    def test_config_json_round_trip(self):
        cfg = _config()
        assert SynthConfig.from_json(cfg.to_json()) == cfg

    @given(_synth_configs())
    def test_config_rebuilds_from_its_own_json(self, cfg):
        assert SynthConfig.from_json(json.loads(_dumps(cfg.to_json()))) == cfg

    def test_config_json_keeps_its_key_order(self):
        keys = list(_config().to_json())
        assert keys == ["v", "seed", "num_utterances", "words_per_channel", "word_rate_ms",
                        "translation_lag_ms", "reorder_window_ms", "vocab_size", "channels"]

    def test_config_json_refuses_a_field_it_does_not_know(self):
        fields = "v, seed, num_utterances, words_per_channel, word_rate_ms, translation_lag_ms, reorder_window_ms, vocab_size, channels"
        with pytest.raises(ValueError) as info:
            SynthConfig.from_json({**_config().to_json(), "plans": [["#ASR#"]]})
        assert str(info.value) == f"config has an unknown field 'plans'; its fields are {fields}"

    def test_config_json_rejects_other_versions(self):
        blob = _config().to_json()
        blob["v"] = 2
        with pytest.raises(ValueError, match="version"):
            SynthConfig.from_json(blob)


class TestReplay:
    def test_ungrouped_translation_delays(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = replay(seq, ReplayPolicy(mode="origin_time"), source_duration_ms=1200)
        assert traces["#ES#"].delays == (300, 900)
        assert traces["#ASR#"].delays == (200, 400, 700)

    def test_grouped_translation_delays(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, GroupingConfig(500), demo_tags)
        traces = replay(seq, ReplayPolicy(mode="group_boundary"), source_duration_ms=1200)
        assert traces["#ES#"].delays == (500, 1000)
        assert traces["#DE#"].delays == (1000, 1000, 1500)

    def test_auto_mode_picks_by_provenance(self, demo_utterance, demo_tags):
        grouped = inter_time(demo_utterance, GroupingConfig(500), demo_tags)
        plain = inter_time(demo_utterance, tags=demo_tags)
        auto = ReplayPolicy(mode="auto")
        assert replay(grouped, auto, 1200)["#ES#"].delays == (500, 1000)
        assert replay(plain, auto, 1200)["#ES#"].delays == (300, 900)

    def test_boundary_mode_needs_grouping_provenance(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        with pytest.raises(ValueError, match="not grouped"):
            replay(seq, ReplayPolicy(mode="group_boundary"), 1200)

    def test_missing_origin_time_is_an_error(self, demo_tags):
        seq = SerializedSequence("u", (ASR, "a"), (None, None), SerializationMethod("inter_time"))
        with pytest.raises(ValueError, match="origin time"):
            replay(seq, ReplayPolicy(), 1000)

    def test_empty_sequence_yields_no_traces(self):
        seq = SerializedSequence("u", (), (), SerializationMethod("inter_time"))
        assert replay(seq, ReplayPolicy(), 1000) == {}

    def test_tag_without_words_yields_no_trace(self):
        seq = SerializedSequence("u", (ASR, "a", ES), (None, 10, None), SerializationMethod("inter_time"))
        traces = replay(seq, ReplayPolicy(), 1000)
        assert list(traces) == ["#ASR#"]
        assert traces["#ASR#"].entries == ((1, 10),)

    def test_per_token_overhead_counts_every_token(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = replay(seq, ReplayPolicy(mode="origin_time", overhead_ms=10), 1200)
        # Token ordinals include tag tokens: Estoy is token 3, feliz. token 13.
        assert traces["#ES#"].delays == (330, 1030)

    def test_duration_defaults_to_latest_delay(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = replay(seq, ReplayPolicy())
        assert traces["#DE#"].source_duration_ms == 1100

    def test_ref_len_matches_emitted_words(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = replay(seq, ReplayPolicy(), 1200)
        assert traces["#ASR#"].ref_len == 3
        assert len(traces["#ASR#"].delays) == 3

    @pytest.mark.parametrize("group_ms", [None, 250])
    @pytest.mark.parametrize("duration", [None, "utterance"])
    def test_traces_carry_only_ints(self, group_ms, duration):
        # EmissionTrace coerces nothing, so replay must hand it ints.
        tags = TagSet((ASR, ES, DE))
        for u in synth_corpus(_config()):
            seq = inter_time(u, GroupingConfig(group_ms), tags)
            source = u.duration_ms if duration else None
            for tr in replay(seq, ReplayPolicy(overhead_ms=3), source).values():
                numbers = [tr.source_duration_ms, tr.ref_len, *(x for entry in tr.entries for x in entry)]
                assert {type(x) for x in numbers} == {int}

    def test_policy_overhead_bound_message(self):
        with pytest.raises(ValueError, match=r"^overhead_ms must be >= 0, got -1$"):
            ReplayPolicy(overhead_ms=-1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ReplayPolicy(mode="banana")
        with pytest.raises(ValueError):
            ReplayPolicy(overhead_ms=-1)
        # Traces take ints only; a fractional overhead was truncated in them.
        for overhead in (2.5, True, "5"):
            with pytest.raises(ValueError, match=f"^overhead_ms must be a JSON integer, got {type(overhead).__name__}$"):
                ReplayPolicy(overhead_ms=overhead)
        assert ReplayPolicy.from_json({}) == ReplayPolicy()
        assert ReplayPolicy.from_json({"mode": "origin_time", "overhead_ms": 5}) == ReplayPolicy("origin_time", 5)

    @given(st.builds(ReplayPolicy, st.sampled_from(["origin_time", "group_boundary", "auto"]), st.integers(0, 10**6)))
    def test_policy_rebuilds_from_its_own_json(self, policy):
        assert ReplayPolicy.from_json(json.loads(_dumps(policy.to_json()))) == policy

    def test_policy_json_refuses_a_field_it_does_not_know(self):
        with pytest.raises(ValueError) as info:
            ReplayPolicy.from_json({"overhead": 5})
        assert str(info.value) == "replay has an unknown field 'overhead'; its fields are mode, overhead_ms"

    def test_grouped_delay_dominates_by_at_most_one_window(self):
        tags = TagSet((ASR, ES, DE))
        step = 500
        for u in synth_corpus(_config(num_utterances=40)):
            plain = replay(inter_time(u, tags=tags), ReplayPolicy("origin_time"), u.duration_ms)
            grouped = replay(
                inter_time(u, GroupingConfig(step), tags),
                ReplayPolicy("group_boundary"),
                u.duration_ms,
            )
            for surface, base in plain.items():
                diffs = [
                    g - b for g, b in zip(grouped[surface].delays, sorted(base.delays))
                ]
                assert all(0 < d <= step for d in diffs)


def _replay_pairs(s: SerializedSequence, policy: ReplayPolicy, source_duration_ms=None) -> dict:
    """The pair-building replay that the columnar one replaced, kept as its reference."""
    mode = policy.mode
    if mode == "auto":
        mode = "group_boundary" if s.method.group_ms else "origin_time"
    if mode == "group_boundary" and not s.method.group_ms:
        raise ValueError(f"sequence {s.utt_id!r} was not grouped; no boundary to replay")
    step = s.method.group_ms
    grouped = mode == "group_boundary"
    overhead = policy.overhead_ms
    delays: dict[str, list[tuple[int, int]]] = {}
    for ordinal, (item, origin) in enumerate(zip(s.items, s.origin_times)):
        if isinstance(item, Tag):
            current = delays.setdefault(item.surface, [])
            continue
        if origin is None:
            raise ValueError(f"word {item!r} in {s.utt_id!r} has no origin time; cannot replay")
        base = assign_group(origin, step) if grouped else origin
        current.append((ordinal, base + overhead * ordinal))
    if source_duration_ms is None:
        latest = max((d for ds in delays.values() for _, d in ds), default=0)
        source_duration_ms = max(1, latest)
    return {
        surface: EmissionTrace(s.utt_id, surface, tuple(entries), source_duration_ms, len(entries))
        for surface, entries in delays.items()
        if entries
    }


# The study-sweep benchmark's methods.
SWEEP_METHODS = [
    SerializationMethod("inter_time"),
    SerializationMethod("inter_time", group_ms=250),
    SerializationMethod("inter_time", group_ms=500),
    SerializationMethod("inter_time", group_ms=1000),
    SerializationMethod("inter_gamma", gamma=0.0),
    SerializationMethod("inter_gamma", gamma=0.5),
    SerializationMethod("inter_gamma", gamma=1.0),
]


class TestReplayMatchesPairOracle:
    @pytest.mark.parametrize("overhead_ms", [0, 5])
    @pytest.mark.parametrize("mode", ["auto", "origin_time", "group_boundary"])
    @pytest.mark.parametrize("method", SWEEP_METHODS, ids=method_label)
    def test_same_traces_or_same_error(self, method, mode, overhead_ms):
        policy = ReplayPolicy(mode, overhead_ms)
        corpus = synth_corpus(_config(seed=7, num_utterances=60, channels=(ASR, ES), words_per_channel=(0, 40)))
        for u in corpus:
            seq = serialize_utterance(u, method)
            for duration in (u.duration_ms, None):
                if mode == "group_boundary" and not method.group_ms:
                    with pytest.raises(ValueError) as want:
                        _replay_pairs(seq, policy, duration)
                    with pytest.raises(ValueError) as got:
                        replay(seq, policy, duration)
                    assert str(got.value) == str(want.value)
                    continue
                got = replay(seq, policy, duration)
                want = _replay_pairs(seq, policy, duration)
                assert got == want and list(got) == list(want)


def test_every_replayed_trace_is_the_row_constructors():
    # replay fills each trace's int columns through `_from_columns`, which
    # leaves out the row constructor's int check: the row constructor must
    # accept every such trace's entries and build the same trace.  On three
    # channels, inter_gamma orders the first two.
    for channels, num_utterances, traces in (((ASR, ES), 500, 33_116), ((ASR, ES, DE), 60, 5_288)):
        checked = 0
        for u in synth_corpus(_config(seed=9, num_utterances=num_utterances, channels=channels, words_per_channel=(0, 40))):
            two = Utterance(u.utt_id, u.duration_ms, u.channels[:2])
            for method in SWEEP_METHODS:
                seq = serialize_utterance(u if method.name == "inter_time" else two, method)
                for mode in ("auto", "origin_time", "group_boundary") if method.group_ms else ("auto", "origin_time"):
                    for overhead_ms in (0, 5):
                        for tr in replay(seq, ReplayPolicy(mode, overhead_ms), u.duration_ms).values():
                            assert EmissionTrace(tr.utt_id, tr.tag, tr.entries, tr.source_duration_ms, tr.ref_len) == tr
                            checked += 1
        assert checked == traces


PLAIN = SerializationMethod("inter_time")
GAMMA_HALF = SerializationMethod("inter_gamma", gamma=0.5)


class TestLatencyStudy:
    def test_labels(self):
        assert method_label(SerializationMethod("inter_time")) == "inter_time"
        assert method_label(SerializationMethod("inter_time", group_ms=500)) == "inter_time+500ms"
        assert method_label(SerializationMethod("inter_gamma", gamma=0.5)) == "inter_gamma(0.5)"

    def test_switch_counts_fall_as_windows_coarsen(self):
        tags = TagSet((ASR, ES, DE))
        corpus = list(synth_corpus(_config(words_per_channel=(5, 25))))
        report = latency_study(
            corpus,
            [
                SerializationMethod("inter_time"),
                SerializationMethod("inter_time", group_ms=500),
                SerializationMethod("inter_time", group_ms=1000),
            ],
            ReplayPolicy(),
            tags,
        )
        switches = [m["mean_switches"] for m in report["methods"]]
        assert switches[0] >= switches[1] >= switches[2]
        assert report["utterances"] == len(corpus)

    def test_single_method_lists_every_channel(self):
        tags = TagSet((ASR, ES, DE))
        corpus = synth_corpus(_config(words_per_channel=(1, 10), num_utterances=10))
        report = latency_study(corpus, [SerializationMethod("inter_time")], ReplayPolicy(), tags)
        (entry,) = report["methods"]
        assert [c["tag"] for c in entry["channels"]] == ["#ASR#", "#DE#", "#ES#"]

    def test_empty_corpus(self):
        report = latency_study([], [SerializationMethod("inter_time")], ReplayPolicy())
        assert report["methods"][0]["mean_switches"] == 0.0
        assert report["methods"][0]["channels"] == []

    def test_one_pass_over_an_iterator_gives_the_report_of_the_list(self):
        config = _config(num_utterances=12, channels=(ASR, ES))
        corpus = list(synth_corpus(config))
        methods = [
            SerializationMethod("inter_time"),
            SerializationMethod("inter_time", group_ms=500),
            SerializationMethod("inter_gamma", gamma=0.5),
        ]
        policy = ReplayPolicy(overhead_ms=2)
        tags = TagSet((ASR, ES))
        expected = latency_study(corpus, methods, policy, tags)
        assert expected["utterances"] == 12
        assert latency_study(iter(corpus), methods, policy, tags) == expected
        assert latency_study(synth_corpus(config), methods, policy, tags) == expected

    @pytest.mark.parametrize(
        "methods, policy, message",
        [
            ([GAMMA_HALF], ReplayPolicy(), "inter_gamma needs exactly two channels, utterance 'u' has 3"),
            ([PLAIN, GAMMA_HALF], ReplayPolicy(), "inter_gamma needs exactly two channels, utterance 'u' has 3"),
            # Each method's sequence is replayed before the next method is checked.
            ([PLAIN, GAMMA_HALF], ReplayPolicy("group_boundary"), "sequence 'u' was not grouped; no boundary to replay"),
            ([GAMMA_HALF, PLAIN], ReplayPolicy("group_boundary"), "inter_gamma needs exactly two channels, utterance 'u' has 3"),
            ([PLAIN, "inter_time"], ReplayPolicy(), "method must be a SerializationMethod, got str"),
        ],
    )
    def test_first_error_is_the_one_of_a_loop_over_the_methods(self, methods, policy, message):
        three = Utterance("u", 100, tuple(Channel._from_columns(tag, (0, 5), ("a", "b")) for tag in (ASR, ES, DE)))
        with pytest.raises(ValueError) as info:
            latency_study([three], methods, policy)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# latency_study orders each utterance once for all its methods: it must equal
# a loop that serializes, counts, replays and scores one method at a time.

# A translation tag with the transcription's surface: two channels may share one.
ASR_AS_ST = Tag("#ASR#", Modality.TRANSLATION, "xx")
STUDY_SWEEP = [
    *(SerializationMethod("inter_time", group_ms=g) for g in (None, 250, 500, 1000)),
    *(SerializationMethod("inter_gamma", gamma=g) for g in (0.0, 0.5, 1.0)),
]


@st.composite
def _study_utterances(draw):
    """1-3 channels of monotone times: the transcription first, second or absent, two of one modality, or a shared surface."""
    tags = draw(st.lists(st.sampled_from([ASR, ES, DE, ASR_AS_ST]), min_size=1, max_size=3))
    channels = []
    for tag in tags:
        times = sorted(draw(st.lists(st.integers(0, 3000), max_size=10)))
        words = draw(st.lists(st.sampled_from(["a", "b.", "#ES#"]), min_size=len(times), max_size=len(times)))
        channels.append(Channel._from_columns(tag, tuple(times), tuple(words)))
    return Utterance(f"u{len(tags)}", draw(st.integers(1, 4000)), tuple(channels))


@st.composite
def _study_methods(draw):
    extra = [
        SerializationMethod("inter_gamma", gamma=draw(st.floats(0.0, 1.0))),
        SerializationMethod("inter_time", group_ms=draw(st.integers(1, 2000))),
    ]
    return draw(st.permutations(STUDY_SWEEP + extra))


def _outcome(run):
    """What `run()` returns, or the message of the ValueError it raises."""
    try:
        return run()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _oracle_study(corpus, methods, policy, tags):
    """The report of serialize_utterance -> count_switches -> replay -> laal, one method at a time."""
    switches = [0] * len(methods)
    laals = [{} for _ in methods]
    for u in corpus:
        for i, m in enumerate(methods):
            seq = serialize_utterance(u, m, tags)
            switches[i] += count_switches(seq)
            for surface, trace in replay(seq, policy, u.duration_ms).items():
                laals[i].setdefault(surface, []).append(laal(trace))
    return {
        "utterances": len(corpus),
        "replay": {"mode": policy.mode, "overhead_ms": policy.overhead_ms},
        "methods": [
            {
                "method": m.to_json(),
                "label": method_label(m),
                "mean_switches": total / len(corpus) if corpus else 0.0,
                "total_switches": total,
                "channels": [
                    {"tag": tag, "mean_laal_ms": sum(vals) / len(vals), "utterances": len(vals)}
                    for tag, vals in sorted(by_tag.items())
                ],
            }
            for m, total, by_tag in zip(methods, switches, laals)
        ],
    }


STUDY_TAG_SETS = [None, TagSet((ASR, ES, DE)), TagSet((DE, ES, ASR)), TagSet((ES,))]
STUDY_POLICIES = [ReplayPolicy(), ReplayPolicy("origin_time", 5), ReplayPolicy("group_boundary", 3)]


class TestOneOrderingForEveryMethod:
    @given(_study_utterances(), _study_methods(), st.sampled_from(STUDY_TAG_SETS))
    @settings(max_examples=150)
    def test_sequences_equal_one_method_at_a_time(self, u, methods, tags):
        # inter_gamma refuses all but two channels, so the inter_time methods also run alone.
        for methods in (methods, [m for m in methods if m.name == "inter_time"]):
            got = _outcome(lambda: list(_ordered(u.channels, u.utt_id, methods, tags)))
            want = _outcome(lambda: [serialize_utterance(u, m, tags) for m in methods])
            if isinstance(want, str):
                assert got == want
                continue
            assert [(s.utt_id, s.items, s.origin_times) for s in got] == [(s.utt_id, s.items, s.origin_times) for s in want]
            assert all(s.method is m for s, m in zip(got, methods))

    @given(
        st.lists(_study_utterances(), max_size=4),
        _study_methods(),
        st.sampled_from(STUDY_TAG_SETS),
        st.sampled_from(STUDY_POLICIES),
    )
    @settings(max_examples=150)
    def test_report_equals_the_one_method_loop(self, corpus, methods, tags, policy):
        for methods in (methods, [m for m in methods if m.name == "inter_time"]):
            got = _outcome(lambda: latency_study(corpus, methods, policy, tags))
            assert got == _outcome(lambda: _oracle_study(corpus, methods, policy, tags))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TagSet(("#A#",)), "a TagSet holds Tag objects, got '#A#'"),
        (lambda: TagSet((ASR, None)), "a TagSet holds Tag objects, got None"),
        (lambda: _config(channels=(5,)), "a TagSet holds Tag objects, got 5"),
        (lambda: ReplayPolicy(overhead_ms=True), "overhead_ms must be a JSON integer, got bool"),
        (lambda: ReplayPolicy(overhead_ms="5"), "overhead_ms must be a JSON integer, got str"),
    ],
)
def test_a_field_of_the_wrong_type_is_a_value_error(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


_PAIR_FIELDS = ("words_per_channel", "word_rate_ms", "translation_lag_ms")
_ODD_JSON = (True, 1.5, "1", None, [1], {})


@pytest.mark.parametrize(
    "cls, field, value",
    [
        *((SynthConfig, field, odd) for field in ("seed", "num_utterances", "reorder_window_ms", "vocab_size") for odd in _ODD_JSON),
        *((SynthConfig, field, v) for field in _PAIR_FIELDS for odd in _ODD_JSON for v in (odd, [0, odd])),
        *((ReplayPolicy, "overhead_ms", odd) for odd in _ODD_JSON),
    ],
)
def test_reader_and_constructor_refuse_a_field_alike(cls, field, value):
    # The constructor is the one check: from_json only picks the fields out of the object.
    record = _config() if cls is SynthConfig else ReplayPolicy()
    with pytest.raises(ValueError) as read:
        cls.from_json({**record.to_json(), field: value})
    with pytest.raises(ValueError) as built:
        cls(**{**{name: getattr(record, name) for name in cls._fields}, field: value})
    assert str(read.value) == str(built.value)
    assert str(read.value).startswith(field)
