"""Decoder-fault oracle: where the words of a stream with one bad tag token go.

A joint decoder emits every channel in one stream, and tag tokens route its
words, so one wrong or missing tag token misroutes a whole run of words.
Each test builds a synthetic corpus, renders each utterance's grouped build
as the text a decoder emits, puts one fault into it, demultiplexes it with
`demux_full` and predicts the outcome from the clean stream's runs alone.
"""

from __future__ import annotations

import pytest

from tokenweave import (
    UNKNOWN_CHANNEL,
    GroupingConfig,
    SynthConfig,
    TagSet,
    demux_full,
    evaluate_corpus,
    inter_time,
    render_text,
)
from tokenweave.kernels import edit_distance
from tokenweave.simulate import synth_corpus
from conftest import ASR, DE, ES

TAGS = TagSet((ASR, ES, DE))
SURFACES = [t.surface for t in TAGS]


@pytest.fixture(scope="module")
def built() -> list[tuple]:
    """(utterance, clean runs) per utterance; a run is (tag surface, words)."""
    cfg = SynthConfig(
        seed=11,
        num_utterances=12,
        words_per_channel=(1, 25),
        word_rate_ms=(150, 450),
        translation_lag_ms=(200, 1500),
        reorder_window_ms=300,
        channels=(ASR, ES, DE),
        vocab_size=500,
    )
    out = []
    for u in synth_corpus(cfg):
        runs: list[tuple[str, list[str]]] = []
        for token in render_text(inter_time(u, GroupingConfig(500), TAGS)).split(" "):
            if token in SURFACES:
                runs.append((token, []))
            else:
                runs[-1][1].append(token)
        out.append((u, runs))
    return out


def _text(runs) -> str:
    return " ".join(" ".join([tag] + words) if tag else " ".join(words) for tag, words in runs)


def _moved(reference: list[str], runs, i: int, to: str) -> list[str]:
    """`reference`, the words of channel `to`, with run i's words inserted where the stream now puts them."""
    at = sum(len(words) for tag, words in runs[:i] if tag == to)
    return reference[:at] + runs[i][1] + reference[at:]


def _lost(reference: list[str], runs, i: int) -> list[str]:
    """`reference`, the words of run i's channel, without run i's words."""
    at = sum(len(words) for tag, words in runs[:i] if tag == runs[i][0])
    return reference[:at] + reference[at + len(runs[i][1]) :]


def _references(u) -> dict[str, list[str]]:
    return {ch.tag.surface: list(ch.texts) for ch in u.channels}


def test_deleted_tag_joins_its_run_to_the_preceding_channel(built):
    checked = 0
    for u, runs in built:
        refs = _references(u)
        for i in range(1, len(runs)):
            gaining, losing = runs[i - 1][0], runs[i][0]
            result = demux_full(_text(runs[:i] + [(None, runs[i][1])] + runs[i + 1 :]), TAGS, utt_id=u.utt_id)
            expected = dict(refs)
            expected[gaining] = _moved(refs[gaining], runs, i, gaining)
            expected[losing] = _lost(refs[losing], runs, i)
            assert {s: result.words.get(s, []) for s in refs} == expected
            redundant = i + 1 < len(runs) and runs[i + 1][0] == gaining
            assert [d.code for d in result.diagnostics] == (["redundant-tag"] if redundant else [])
            # A contiguous block removed from, or inserted into, a correct word list costs exactly its length.
            for s in (gaining, losing):
                assert edit_distance(refs[s], result.words.get(s, [])) == len(runs[i][1])
            checked += 1
    assert checked > 100


def test_deleted_first_tag_sends_its_run_to_unknown(built):
    for u, runs in built:
        refs = _references(u)
        run = runs[0][1]
        result = demux_full(_text([(None, run)] + runs[1:]), TAGS, utt_id=u.utt_id)
        assert result.words[UNKNOWN_CHANNEL] == run
        assert [(d.code, d.index) for d in result.diagnostics] == [("untagged-word", k) for k in range(len(run))]
        assert result.words.get(runs[0][0], []) == _lost(refs[runs[0][0]], runs, 0)
        diags: list = []
        evaluate_corpus([u], [(u.utt_id, result.words)], diags)
        assert [(d.code, d.tag, d.utt_id) for d in diags] == [("unscored-words", UNKNOWN_CHANNEL, u.utt_id)]
        clean: list = []
        evaluate_corpus([u], [(u.utt_id, refs)], clean)
        assert clean == []


def test_substituted_tag_sends_its_run_to_the_substitute(built):
    checked = 0
    for u, runs in built:
        refs = _references(u)
        for i, (tag, words) in enumerate(runs):
            for sub in SURFACES:
                if sub == tag:
                    continue
                result = demux_full(_text(runs[:i] + [(sub, words)] + runs[i + 1 :]), TAGS, utt_id=u.utt_id)
                expected = dict(refs)
                expected[sub] = _moved(refs[sub], runs, i, sub)
                expected[tag] = _lost(refs[tag], runs, i)
                assert {s: result.words.get(s, []) for s in refs} == expected
                # The substitute repeats a neighbour's tag without a switch.
                redundant = (i > 0 and runs[i - 1][0] == sub) + (i + 1 < len(runs) and runs[i + 1][0] == sub)
                assert [d.code for d in result.diagnostics] == ["redundant-tag"] * redundant
                checked += 1
    assert checked > 200


def test_undeclared_substitute_is_a_word_of_the_preceding_channel(built):
    # In text, a surface outside the tag set is a word, so the fault reads as a deleted tag plus one word.
    for u, runs in built:
        refs = _references(u)
        for i in range(1, len(runs)):
            gaining = runs[i - 1][0]
            result = demux_full(_text(runs[:i] + [("#XX#", runs[i][1])] + runs[i + 1 :]), TAGS, utt_id=u.utt_id)
            at = sum(len(words) for tag, words in runs[:i] if tag == gaining)
            assert result.words[gaining] == refs[gaining][:at] + ["#XX#"] + runs[i][1] + refs[gaining][at:]
