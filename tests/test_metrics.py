from __future__ import annotations

import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenweave import (
    Channel,
    EmissionTrace,
    GroupingConfig,
    Modality,
    SerializationMethod,
    SerializedSequence,
    TagToken,
    TimedWord,
    Utterance,
    WordToken,
    bleu_corpus,
    count_switches,
    evaluate_corpus,
    inter_time,
    laal,
    switch_reduction,
    wer,
)
from tokenweave.metrics import format_table, normalize_words
from conftest import ASR, DE, ES, FR


# Expected distances verified against an exhaustive-alignment oracle
# (recursive minimum over substitution/insertion/deletion paths).
WER_CASES = [
    (["the", "cat", "sat"], ["the", "cat", "sat"], 0.0),
    (["the", "cat", "sat"], ["the", "cat"], 1 / 3),
    (["the", "cat"], ["the", "cat", "sat"], 0.5),
    (["a"], ["b"], 1.0),
    (["a", "b", "c", "d"], [], 1.0),
    (["x"], ["x", "x", "x"], 2.0),
    (["a", "b"], ["b", "a"], 1.0),
    (["a", "b"], ["a", "x", "y", "b"], 1.0),
    (["i", "saw", "the", "cat"], ["i", "saw", "a", "cat"], 0.25),
    (
        ["the", "quick", "brown", "fox", "jumps", "over", "the", "lazy", "dog"],
        ["the", "quick", "red", "fox", "jumped", "over", "lazy", "dogs"],
        4 / 9,
    ),
    (["a", "a", "b", "a"], ["a", "b", "a"], 0.25),
    (["The", "cat"], ["the", "cat"], 0.5),
    (["uno", "dos", "tres", "cuatro", "cinco"], ["uno", "tres", "dos", "cuatro"], 0.6),
    (["x", "y"], ["x", "y", "x", "y", "x", "y"], 2.0),
]


class TestWer:
    @pytest.mark.parametrize("ref,hyp,expected", WER_CASES)
    def test_oracle_cases(self, ref, hyp, expected):
        assert wer(ref, hyp) == pytest.approx(expected)

    def test_empty_reference_is_an_error(self):
        with pytest.raises(ValueError, match="reference"):
            wer([], ["a"])
        with pytest.raises(ValueError):
            wer([], [])

    def test_normalization(self):
        assert wer(["The", "cat"], ["the", "cat"], normalize=True) == 0.0
        assert wer(["Hello,", "world!"], ["hello", "world"], normalize=True) == 0.0
        # Normalization that empties the reference surfaces as an error too.
        with pytest.raises(ValueError):
            wer(["..."], ["a"], normalize=True)

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
           st.lists(st.sampled_from("abc"), max_size=8))
    def test_identity_and_scaled_symmetry(self, a, b):
        assert wer(a, a) == 0.0
        if b:
            assert wer(a, b) * len(a) == pytest.approx(wer(b, a) * len(b))


def test_normalize_words_strips_case_and_punctuation():
    assert normalize_words(["Hello,", "WORLD!", "..."]) == ["hello", "world"]


# Scores verified against a direct transcription of the corpus-BLEU formula
# (pooled clipped counts, uniform weights over realizable orders, BP).
TEN = [f"w{i}" for i in range(1, 11)]
TEN_SUB = TEN[:7] + ["x"] + TEN[8:]
BLEU_CASES = [
    ([["the", "cat", "sat", "on", "the", "mat"]], [["the", "cat", "sat", "on", "the", "mat"]], False, 100.0),
    ([["the", "cat"]], [["the", "cat"]], False, 100.0),
    ([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d"]], False, 77.8800783071405),
    ([["x", "y", "z"]], [["a", "b", "c"]], False, 0.0),
    ([["the", "cat", "sat", "on", "the", "mat"]], [["the", "cat", "sat", "on", "a", "mat"]], False, 53.7284965911771),
    ([["a", "b", "c", "d", "e", "f", "g"]], [["a", "b", "c", "e", "f", "g"]], False, 0.0),
    ([TEN], [TEN_SUB], False, 70.71067811865474),
    ([["a", "a", "b"], ["c", "d", "e", "f", "g"]], [["a", "a", "a"], ["c", "d", "e", "f", "g"]], False, 85.99476570625983),
    ([["a", "b"], ["b", "c"]], [["a", "b"], ["b", "x"]], False, 61.237243569579455),
    ([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e", "f"]], False, 50.813274815461476),
    ([["x", "y", "z"]], [["a", "b", "c"]], True, 45.18010018049224),
    ([TEN], [TEN_SUB], True, 74.19446627365011),
    ([["a", "b", "c", "d", "e", "f", "g"]], [["a", "b", "c", "e", "f", "g"]], True, 50.33210449798471),
]


class TestBleu:
    @pytest.mark.parametrize("refs,hyps,smooth,expected", BLEU_CASES)
    def test_oracle_cases(self, refs, hyps, smooth, expected):
        assert bleu_corpus(refs, hyps, smoothing=smooth) == pytest.approx(expected, abs=1e-9)

    def test_brevity_penalty_case_within_stated_tolerance(self):
        assert bleu_corpus([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d"]]) == pytest.approx(
            77.88, abs=0.01
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="references"):
            bleu_corpus([["a"]], [["a"], ["b"]])
        with pytest.raises(ValueError):
            bleu_corpus([], [])

    def test_empty_hypotheses_score_zero(self):
        assert bleu_corpus([["a", "b"]], [[]]) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
                st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_segment_order_invariance(self, pairs, rng):
        refs = [r for r, _ in pairs]
        hyps = [h for _, h in pairs]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert bleu_corpus(refs, hyps) == pytest.approx(
            bleu_corpus([r for r, _ in shuffled], [h for _, h in shuffled])
        )

    @given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_hundred_iff_exact_match(self, refs):
        assert bleu_corpus(refs, [list(r) for r in refs]) == 100.0
        perturbed = [list(r) for r in refs]
        perturbed[0] = perturbed[0] + ["zzz"]
        assert bleu_corpus(refs, perturbed) < 100.0


# Where `bleu_corpus` departs from sacreBLEU's corpus BLEU (Post 2018,
# arXiv:1804.08771), one hand-computed case each; the README lists them.
class TestBleuDepartsFromSacreBleu:
    def test_segments_are_pre_tokenized(self):
        # "mat." and "mat" + "." are different tokens here; sacreBLEU's 13a
        # tokenizer splits off the period, so both sides match and it gives 100.
        # Matches/totals: 1-grams 5/7, 2-grams 4/6, 3-grams 3/5, 4-grams 2/4;
        # hyp 7 >= ref 6, BP 1.  (5·4·3·2 / 7·6·5·4)^(1/4) = (1/7)^(1/4).
        refs = [["the", "cat", "sat", "on", "the", "mat."]]
        hyps = [["the", "cat", "sat", "on", "the", "mat", "."]]
        assert bleu_corpus(refs, hyps) == pytest.approx(100 * (1 / 7) ** 0.25, abs=1e-9)  # 61.48

    def test_orders_with_no_ngrams_are_dropped(self):
        # A 3-word hypothesis has no 4-grams: pooled total 0, so the mean runs
        # over orders 1-3 only (3/3, 2/2, 1/1).  BP = exp(1 - 4/3).  sacreBLEU
        # keeps order 4 with precision 0 and scores 0 (unless effective_order).
        assert bleu_corpus([["a", "b", "c", "d"]], [["a", "b", "c"]]) == pytest.approx(
            100 * math.exp(-1 / 3), abs=1e-9  # 71.65
        )

    def test_no_smoothing_by_default(self):
        # 1-grams 3/4, 2-grams 2/3, 3-grams 1/2, 4-grams 0/1: a zero precision
        # gives 0.  sacreBLEU's default "exp" smoothing puts 1/(2·1) for the
        # 4-grams: (3/4 · 2/3 · 1/2 · 1/2)^(1/4) = 0.125^(1/4), i.e. 59.46.
        assert bleu_corpus([["a", "b", "c", "d"]], [["a", "b", "c", "x"]]) == 0.0

    def test_add_one_smoothing_covers_every_order(self):
        # +1 on all four orders: 4/5 · 3/4 · 2/3 · 1/2 = 0.2, and 0.2^(1/4).
        # sacreBLEU's "add-k" (k=1) leaves 1-grams alone (Lin and Och 2004):
        # 3/4 · 3/4 · 2/3 · 1/2 = 0.1875, and 0.1875^(1/4), i.e. 65.80.
        assert bleu_corpus(
            [["a", "b", "c", "d"]], [["a", "b", "c", "x"]], smoothing=True
        ) == pytest.approx(100 * 0.2**0.25, abs=1e-9)  # 66.87


# The two-pass BLEU that per-segment statistics replaced, kept as the oracle:
# every call counts tuple slices, and `evaluate_corpus` scored each tag's
# segments and then all translation segments pooled.
def _ngram_counts(words: list[str], n: int) -> Counter:
    return Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


def _bleu_oracle(references, hypotheses, smoothing=False):
    matches = [0] * 5
    totals = [0] * 5
    ref_len = 0
    hyp_len = 0
    for ref, hyp in zip(references, hypotheses):
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, 5):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            matches[n] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            totals[n] += max(0, len(hyp) - n + 1)

    if hyp_len == 0:
        return 0.0

    log_sum = 0.0
    orders = 0
    for n in range(1, 5):
        num, den = matches[n], totals[n]
        if smoothing:
            num, den = num + 1, den + 1
        if den == 0:
            continue
        if num == 0:
            return 0.0
        log_sum += math.log(num / den)
        orders += 1
    if orders == 0:
        return 0.0

    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def _evaluate_bleu_oracle(corpus, hyps, normalize):
    """Per-tag and overall BLEU as the two-pass `evaluate_corpus` gave them."""
    per_tag: dict[str, tuple[list, list]] = {}
    for u in corpus:
        for ch in u.channels:
            if ch.tag.modality is Modality.TRANSCRIPTION:
                continue
            ref = [tw.word for tw in ch.words]
            hyp = list(hyps[u.utt_id].get(ch.tag.surface, []))
            if normalize:
                ref, hyp = normalize_words(ref), normalize_words(hyp)
            refs, tag_hyps = per_tag.setdefault(ch.tag.surface, ([], []))
            refs.append(ref)
            tag_hyps.append(hyp)
    by_tag = {s: _bleu_oracle(r, h) for s, (r, h) in per_tag.items()}
    if not per_tag:
        return by_tag, None
    pooled_refs = [r for refs, _ in per_tag.values() for r in refs]
    pooled_hyps = [h for _, tag_hyps in per_tag.values() for h in tag_hyps]
    return by_tag, _bleu_oracle(pooled_refs, pooled_hyps)


# A small alphabet repeats n-grams (clipping); "A" and "b," change under
# normalization and "..." disappears.
_SEGMENTS = st.lists(st.sampled_from(["a", "b", "c", "A", "b,", "..."]), max_size=7)


@st.composite
def _scored_corpora(draw):
    """An ASR channel plus one to three translation channels per utterance;
    a translation hypothesis may be missing, empty or shorter than 4 words."""
    tags = [ES, DE, FR][: draw(st.integers(1, 3))]
    corpus, hyps = [], {}
    for i in range(draw(st.integers(1, 4))):
        utt_id = f"u{i}"
        channels = [Channel(ASR, (TimedWord(0, "a"),))]
        hyps[utt_id] = {"#ASR#": draw(_SEGMENTS)}
        for tag in tags:
            words = draw(_SEGMENTS)
            channels.append(Channel(tag, tuple(TimedWord(10 * k, w) for k, w in enumerate(words))))
            hyp = draw(st.none() | _SEGMENTS)
            if hyp is not None:
                hyps[utt_id][tag.surface] = hyp
        corpus.append(Utterance(utt_id, 1000, tuple(channels)))
    return corpus, hyps


class TestBleuMatchesTwoPassOracle:
    @given(_scored_corpora(), st.booleans())
    @settings(max_examples=300)
    def test_evaluate_corpus(self, corpus_and_hyps, normalize):
        corpus, hyps = corpus_and_hyps
        report = evaluate_corpus(corpus, hyps, normalize=normalize)
        by_tag, overall = _evaluate_bleu_oracle(corpus, hyps, normalize)
        assert {c.tag: c.bleu for c in report.channels if c.bleu is not None} == by_tag
        assert report.overall_bleu == overall

    @given(st.lists(st.tuples(_SEGMENTS, _SEGMENTS), min_size=1, max_size=6), st.booleans())
    @settings(max_examples=300)
    def test_bleu_corpus(self, pairs, smoothing):
        refs = [r for r, _ in pairs]
        hyps = [h for _, h in pairs]
        assert bleu_corpus(refs, hyps, smoothing=smoothing) == _bleu_oracle(refs, hyps, smoothing)


def _trace(delays, duration, ref_len, tag="#ES#"):
    return EmissionTrace(
        utt_id="t",
        tag=tag,
        entries=tuple((i, d) for i, d in enumerate(delays)),
        source_duration_ms=duration,
        ref_len=ref_len,
    )


# Hand-evaluated: d* = duration / max(ref_len, hyp_len); stop at the first
# delay reaching the duration (else at the last); average of d_i - (i-1)d*.
LAAL_CASES = [
    ([1000], 1000, 1, 1000.0),
    ([500, 1000], 1000, 2, 500.0),
    ([0, 500], 1000, 2, 0.0),
    ([300, 900], 1200, 2, 300.0),
    ([100, 200, 300, 400], 1200, 2, -200.0),
    ([600, 1300, 1400], 1200, 3, 750.0),
    ([2000], 1000, 1, 2000.0),
    ([250, 250], 500, 2, 125.0),
    ([400], 800, 4, 400.0),
    ([0], 100, 1, 0.0),
    ([100, 800, 900], 800, 3, 316.6666666666667),
    ([500, 1000, 1500, 2000], 1500, 4, 625.0),
]


class TestLaal:
    @pytest.mark.parametrize("delays,duration,ref_len,expected", LAAL_CASES)
    def test_oracle_cases(self, delays, duration, ref_len, expected):
        assert laal(_trace(delays, duration, ref_len)) == pytest.approx(expected, abs=0.5)

    def test_empty_trace_is_an_error(self):
        with pytest.raises(ValueError):
            laal(_trace([], 1000, 1))

    @pytest.mark.parametrize(
        "entries, duration, ref_len, message",
        [
            (((0, 5), (1, 4)), 0, -1, "ref_len must be >= 0, got -1"),
            (((0, 5), (1, 4)), 0, 1, "delays must be non-decreasing, got 4 after 5"),
            ((), 0, 1, "empty trace for 't'/'#ES#'"),
            (((0, 1),), 0, 1, "source_duration_ms must be >= 1, got 0"),
            (((0, 10**400),), 1, 1, f"times beyond {sys.float_info.max:g} ms cannot be scored"),
        ],
    )
    def test_trace_is_checked_at_construction_in_order(self, entries, duration, ref_len, message):
        # The first rule a trace breaks names the error; laal never sees it.
        with pytest.raises(ValueError) as exc:
            EmissionTrace("t", "#ES#", entries, source_duration_ms=duration, ref_len=ref_len)
        assert str(exc.value) == message

    def test_trace_invariants(self):
        with pytest.raises(ValueError):
            _trace([500, 400], 1000, 2)  # decreasing delays
        with pytest.raises(ValueError):
            laal(_trace([1], 0, 1))  # duration below one ms
        with pytest.raises(ValueError):
            EmissionTrace("t", "#ES#", ((0, 1),), source_duration_ms=10, ref_len=-1)
        assert _trace([1, 2, 3], 10, 5).hyp_len == 3
        assert _trace([1, 2, 3], 10, 5).delays == (1, 2, 3)

    def test_lowering_a_delay_lowers_the_average(self):
        base = laal(_trace([400, 600, 800], 2000, 3))
        lower = laal(_trace([400, 500, 800], 2000, 3))
        assert lower < base


class TestSwitchCounting:
    def test_demo_counts(self, demo_utterance, demo_tags):
        assert count_switches(inter_time(demo_utterance, tags=demo_tags)) == 8
        assert count_switches(inter_time(demo_utterance, GroupingConfig(500), demo_tags)) == 6

    def test_single_channel_counts_one(self):
        u = Utterance("u", 100, (Channel(ASR, (TimedWord(1, "a"), TimedWord(2, "b"))),))
        assert count_switches(inter_time(u)) == 1

    def test_lower_bound_is_nonempty_channel_count(self, demo_utterance, demo_tags):
        seq = inter_time(demo_utterance, GroupingConfig(10_000), demo_tags)
        # One window: each channel appears exactly once.
        assert count_switches(seq) == 3

    def test_reduction_demo(self, demo_utterance, demo_tags):
        base = [inter_time(demo_utterance, tags=demo_tags)]
        variant = [inter_time(demo_utterance, GroupingConfig(500), demo_tags)]
        assert switch_reduction(base, variant) == 0.25

    def test_reduction_identity_is_zero(self, demo_utterance, demo_tags):
        base = [inter_time(demo_utterance, tags=demo_tags)]
        assert switch_reduction(base, base) == 0.0

    def test_reduction_zero_base_is_an_error(self):
        empty = SerializedSequence("u", (), SerializationMethod("inter_time"))
        with pytest.raises(ValueError, match="zero"):
            switch_reduction([empty], [empty])

    def test_reduction_requires_matching_ids(self, demo_utterance, demo_tags):
        base = [inter_time(demo_utterance, tags=demo_tags)]
        other = SerializedSequence("someone-else", base[0].tokens, base[0].method)
        with pytest.raises(ValueError, match="utterance ids"):
            switch_reduction(base, [other])


class TestEvaluateCorpus:
    def _perfect_hyps(self, corpus, tags):
        return {
            u.utt_id: {ch.tag.surface: [tw.word for tw in ch.words] for ch in u.channels}
            for u in corpus
        }

    def test_perfect_round_trip_scores(self, demo_utterance, demo_tags):
        report = evaluate_corpus([demo_utterance], self._perfect_hyps([demo_utterance], demo_tags))
        by_tag = {c.tag: c for c in report.channels}
        assert by_tag["#ASR#"].wer == 0.0
        assert by_tag["#ES#"].bleu == 100.0
        assert by_tag["#DE#"].bleu == 100.0
        assert report.overall_wer == 0.0
        assert report.overall_bleu == 100.0

    def test_missing_hypothesis_names_utterance(self, demo_utterance):
        with pytest.raises(ValueError, match="demo-001"):
            evaluate_corpus([demo_utterance], {})

    def test_extra_hypothesis_names_utterance(self, demo_utterance, demo_tags):
        hyps = self._perfect_hyps([demo_utterance], demo_tags)
        hyps["ghost"] = {}
        with pytest.raises(ValueError, match="ghost"):
            evaluate_corpus([demo_utterance], hyps)

    def test_empty_transcription_reference_is_an_error(self):
        u = Utterance("u", 100, (Channel(ASR, ()),))
        with pytest.raises(ValueError, match="empty reference"):
            evaluate_corpus([u], {"u": {"#ASR#": []}})

    def test_traces_produce_mean_laal(self, demo_utterance, demo_tags):
        hyps = self._perfect_hyps([demo_utterance], demo_tags)
        traces = [_trace([300, 900], 1200, 2, tag="#ES#")]
        report = evaluate_corpus([demo_utterance], hyps, traces=traces)
        by_tag = {c.tag: c for c in report.channels}
        assert by_tag["#ES#"].mean_laal_ms == pytest.approx(300.0)
        assert by_tag["#ASR#"].mean_laal_ms is None

    def test_normalize_flag(self):
        u = Utterance("u", 100, (Channel(ASR, (TimedWord(1, "Hello,"), TimedWord(2, "World!"))),))
        hyps = {"u": {"#ASR#": ["hello", "world"]}}
        assert evaluate_corpus([u], hyps).overall_wer == 1.0
        assert evaluate_corpus([u], hyps, normalize=True).overall_wer == 0.0

    def test_report_json_and_table(self, demo_utterance, demo_tags):
        report = evaluate_corpus([demo_utterance], self._perfect_hyps([demo_utterance], demo_tags))
        blob = report.to_json()
        assert blob["utterances"] == 1
        assert {c["tag"] for c in blob["channels"]} == {"#ASR#", "#ES#", "#DE#"}
        table = report.to_table()
        assert "#ASR#" in table and "WER" in table


def test_format_table_alignment():
    table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = table.splitlines()
    assert lines[0].startswith("a")
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
