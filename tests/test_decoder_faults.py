"""Decoder-fault oracle: where the words of a stream with one bad tag token go.

A joint decoder emits every channel in one stream, and tag tokens route its
words, so one wrong or missing tag token misroutes a whole run of words.
Each test builds a synthetic corpus, renders each utterance's grouped build
as the text a decoder emits, puts one fault into it, demultiplexes it with
`demux_full` and predicts the outcome from the clean stream's runs alone.
The same faults in a build's JSON record often break a sequence invariant;
which records `read_serialized` then skips is predicted from the runs too.
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
from tokenweave.formats import _dumps, read_serialized, serialized_to_json
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


def _json_faults(u, runs):
    """(record line, utt_id, predicted fault kind, predicted problem, text form) per one-tag fault of u's grouped build.

    The faults are those of the text tests: delete run i's tag (with its
    origin time), or substitute another declared tag for it.  The kind and
    problem are None for a record that stays valid.  Each faulty record gets
    its own utt_id.
    """
    rec = serialized_to_json(inter_time(u, GroupingConfig(500), TAGS))
    at = [k for k, t in enumerate(rec["origin_times"]) if t is None]
    assert [rec["tokens"][k] for k in at] == [tag for tag, _ in runs]
    out = []
    for i, (tag, words) in enumerate(runs):
        before = runs[i - 1][0] if i > 0 else None
        after = runs[i + 1][0] if i + 1 < len(runs) else None
        for sub in [None] + [s for s in SURFACES if s != tag]:
            tokens, times = list(rec["tokens"]), list(rec["origin_times"])
            kind = problem = None
            if sub is None:
                del tokens[at[i]], times[at[i]]
                if i == 0:
                    kind, problem = "leading-word", f"word {words[0]!r} at index 0 precedes any tag"
                elif after == before:
                    kind, problem = "merged-run", f"tag {before!r} repeated without a switch at index {at[i + 1] - 1}"
            else:
                tokens[at[i]] = sub
                if sub in (before, after):
                    where = at[i] if sub == before else at[i + 1]
                    kind, problem = "repeated-neighbour", f"tag {sub!r} repeated without a switch at index {where}"
            utt_id = f"{u.utt_id}-{len(out)}"
            line = _dumps({**rec, "utt_id": utt_id, "tokens": tokens, "origin_times": times})
            out.append((line, utt_id, kind, problem, _text(runs[:i] + [(sub, words)] + runs[i + 1 :])))
    return out


@pytest.mark.parametrize("tags", [TAGS, None], ids=["tag-set", "own-tags"])
def test_json_faults_skip_exactly_the_predicted_records(built, tmp_path, tags):
    faults = [f for u, runs in built for f in _json_faults(u, runs)]
    assert {kind for _, _, kind, _, _ in faults} == {None, "leading-word", "merged-run", "repeated-neighbour"}
    path = tmp_path / "faulty.jsonl"
    path.write_text("".join(line + "\n" for line, *_ in faults), encoding="utf-8")
    diags: list = []
    seqs = list(read_serialized(str(path), tags, diags))
    assert [(d.code, d.index, d.message) for d in diags] == [
        ("bad-record", lineno, f"{path}:{lineno}: invalid serialized sequence {utt_id!r}: {problem}")
        for lineno, (_, utt_id, kind, problem, _) in enumerate(faults, start=1)
        if kind
    ]
    kept = [(utt_id, text) for _, utt_id, kind, _, text in faults if kind is None]
    assert [s.utt_id for s in seqs] == [utt_id for utt_id, _ in kept]
    assert len(kept) > 200
    # Every record that is kept demuxes as its text form does, with no diagnostic.
    for seq, (utt_id, text) in zip(seqs, kept):
        from_json, from_text = demux_full(seq, TAGS), demux_full(text, TAGS, utt_id=utt_id)
        assert from_json.words == from_text.words
        assert from_json.diagnostics == from_text.diagnostics == []
