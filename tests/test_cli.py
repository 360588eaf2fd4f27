from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenweave import (
    GroupingConfig,
    ReplayPolicy,
    SynthConfig,
    TagSet,
    inter_time,
    laal,
    replay,
    synth_corpus,
)
from tokenweave.cli import main
from tokenweave.formats import (
    read_channels,
    read_corpus,
    read_serialized,
    write_channels,
    write_corpus,
    write_serialized,
    write_tag_set,
    write_traces,
)
from tokenweave.serialize import render_text
from tokenweave.simulate import synth_config_to_json
from conftest import ASR, DE, DEMO_GROUPED_500, DEMO_UNGROUPED, ES


@pytest.fixture
def demo_files(tmp_path, demo_utterance, demo_tags):
    """Corpus + tag set for the three-channel demo utterance."""
    corpus = str(tmp_path / "corpus.jsonl")
    tags = str(tmp_path / "tags.json")
    write_corpus([demo_utterance], corpus)
    write_tag_set(demo_tags, tags)
    return corpus, tags


def _synth_files(tmp_path, *, seed=5, n=20, channels=(ASR, ES, DE), words=(1, 8)):
    cfg = SynthConfig(
        seed=seed,
        num_utterances=n,
        words_per_channel=words,
        word_rate_ms=(100, 300),
        translation_lag_ms=(0, 400),
        reorder_window_ms=100,
        channels=channels,
        vocab_size=60,
    )
    corpus = str(tmp_path / "synth.jsonl")
    tags = str(tmp_path / "synth-tags.json")
    write_corpus(synth_corpus(cfg), corpus)
    write_tag_set(TagSet(channels), tags)
    return corpus, tags


class TestBuild:
    def test_bytes_match_library(self, tmp_path, demo_files, demo_utterance, demo_tags):
        corpus, tags = demo_files
        out = tmp_path / "cli.jsonl"
        rc = main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(out)])
        assert rc == 0
        lib = tmp_path / "lib.jsonl"
        write_serialized([inter_time(demo_utterance, tags=demo_tags)], str(lib))
        assert out.read_bytes() == lib.read_bytes()

    def test_grouped_build_renders_golden_text(self, tmp_path, demo_files, demo_tags):
        corpus, tags = demo_files
        out = str(tmp_path / "g.jsonl")
        rc = main(["build", "--method", "inter-time", "--group-ms", "500", "--tags", tags, "--input", corpus, "--output", out])
        assert rc == 0
        seqs, diags = read_serialized(out, demo_tags)
        assert diags == []
        assert render_text(seqs[0]) == DEMO_GROUPED_500

    def test_stdout_output(self, capsys, demo_files):
        corpus, tags = demo_files
        rc = main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", "-"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["utt_id"] == "demo-001"
        assert " ".join(record["tokens"]) == DEMO_UNGROUPED

    def test_bad_corpus_line_skipped_with_exit_1(self, tmp_path, demo_files, capsys):
        corpus, tags = demo_files
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        out = str(tmp_path / "b.jsonl")
        rc = main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", out])
        assert rc == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        diag = json.loads(err_lines[0])
        assert diag["code"] == "bad-record"
        assert json.loads(Path(out).read_text().splitlines()[0])["utt_id"] == "demo-001"

    @pytest.mark.parametrize("lang", [{"x": 1}, 5, [1]])
    def test_channel_language_that_is_not_a_string_is_rejected(self, tmp_path, demo_files, capsys, lang):
        # In a corpus record it is a bad line; in the tag set it is fatal.
        corpus, tags = demo_files
        record = json.loads(Path(corpus).read_text())
        record["channels"][0]["lang"] = lang
        Path(corpus).write_text(json.dumps({**record, "utt_id": "bad"}) + "\n" + Path(corpus).read_text())
        out = tmp_path / "b.jsonl"
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(out)]) == 1
        diags = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        message = f"language must be a non-empty string, got {lang!r}"
        assert [(d["code"], d["index"], d["message"]) for d in diags] == [("bad-record", 1, f"{corpus}:1: {message}")]
        assert [json.loads(line)["utt_id"] for line in out.read_text().splitlines()] == ["demo-001"]
        tag_set = json.loads(Path(tags).read_text())
        tag_set["tags"][0]["lang"] = lang
        Path(tags).write_text(json.dumps(tag_set))
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {tags}: invalid tag set: {message}\n"

    @pytest.mark.parametrize(
        "channels, code, message",
        [
            pytest.param(lambda chs: chs + chs[:1], "duplicate-channel-tag", "tag '#ASR#' used by channels 0 and 3", id="duplicate"),
            pytest.param(lambda chs: [], "no-channels", "utterance has no channels", id="none"),
            pytest.param(lambda chs: [{**chs[0], "tag": "<unknown>"}, *chs[1:]], "bad-record", "tag surface '<unknown>' is reserved", id="reserved"),
        ],
    )
    def test_corpus_channels_get_the_validator_codes(self, tmp_path, demo_files, capsys, channels, code, message):
        corpus, tags = demo_files
        record = json.loads(Path(corpus).read_text())
        bad = {**record, "utt_id": "bad", "channels": channels(record["channels"])}
        Path(corpus).write_text(json.dumps(bad) + "\n" + Path(corpus).read_text())
        out = tmp_path / "b.jsonl"
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(out)]) == 1
        diags = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(d["code"], d["index"], d["message"]) for d in diags] == [(code, 1, f"{corpus}:1: {message}")]
        assert [json.loads(line)["utt_id"] for line in out.read_text().splitlines()] == ["demo-001"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--method", "inter-time", "--gamma", "0.5"],
            ["--method", "inter-gamma", "--group-ms", "500", "--gamma", "0.5"],
            ["--method", "inter-gamma"],
            ["--method", "inter-gamma", "--gamma", "1.5"],
            ["--method", "inter-time", "--group-ms", "0"],
        ],
    )
    def test_usage_errors_exit_2(self, tmp_path, demo_files, capsys, argv):
        corpus, tags = demo_files
        rc = main(["build", *argv, "--tags", tags, "--input", corpus, "--output", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_count_balance_on_three_channels_is_per_utterance_error(self, tmp_path, demo_files, capsys):
        corpus, tags = demo_files
        out = str(tmp_path / "x.jsonl")
        rc = main(["build", "--method", "inter-gamma", "--gamma", "0.5", "--tags", tags, "--input", corpus, "--output", out])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert diag["code"] == "serialize-error"
        assert diag["utt_id"] == "demo-001"
        assert Path(out).read_text() == ""


class TestDemuxAndEval:
    def _pipeline(self, tmp_path, capsys, extra_eval=()):
        corpus, tags = _synth_files(tmp_path)
        serialized = str(tmp_path / "ser.jsonl")
        channels = str(tmp_path / "ch.jsonl")
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", serialized]) == 0
        assert main(["demux", "--tags", tags, "--input", serialized, "--output", channels]) == 0
        rc = main(["eval", "--refs", corpus, "--hyps", channels, *extra_eval])
        return rc, capsys.readouterr().out

    def test_lossless_pipeline_scores_perfectly(self, tmp_path, capsys):
        rc, out = self._pipeline(tmp_path, capsys)
        assert rc == 0
        report = json.loads(out)
        assert report["overall_wer"] == 0.0
        assert report["overall_bleu"] == 100.0
        for ch in report["channels"]:
            assert ch.get("wer", 0.0) == 0.0
            assert ch.get("bleu", 100.0) == 100.0

    def test_eval_table(self, tmp_path, capsys):
        rc, out = self._pipeline(tmp_path, capsys, extra_eval=("--table",))
        assert rc == 0
        assert "(all)" in out
        assert "#ASR#" in out

    def test_demux_text_mode(self, tmp_path, demo_files, capsys):
        _, tags = demo_files
        text = tmp_path / "stream.txt"
        text.write_text(DEMO_UNGROUPED + "\n\n" + DEMO_GROUPED_500 + "\n")
        out = str(tmp_path / "ch.jsonl")
        rc = main(["demux", "--tags", tags, "--input", str(text), "--output", out, "--text"])
        assert rc == 0
        records, diags = read_channels(out)
        assert diags == []
        assert set(records) == {"line000001", "line000003"}
        assert records["line000001"]["#ASR#"] == ("I", "am", "happy.")
        assert records["line000001"] == records["line000003"]

    def test_demux_diagnostics_exit_1(self, tmp_path, demo_files, capsys):
        _, tags = demo_files
        text = tmp_path / "stream.txt"
        text.write_text("hello #ASR# hi\n")
        rc = main(["demux", "--tags", tags, "--input", str(text), "--output", str(tmp_path / "ch.jsonl"), "--text"])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[0])
        assert diag["code"] == "untagged-word"

    def test_eval_normalize_flag(self, tmp_path, demo_files, capsys):
        corpus, _ = demo_files
        hyps = str(tmp_path / "hyps.jsonl")
        write_channels(
            [
                (
                    "demo-001",
                    {
                        "#ASR#": ("i", "am", "happy"),
                        "#ES#": ("estoy", "feliz"),
                        "#DE#": ("ich", "bin", "froh"),
                    },
                )
            ],
            hyps,
        )
        assert main(["eval", "--refs", corpus, "--hyps", hyps, "--normalize"]) == 0
        normalized = json.loads(capsys.readouterr().out)
        assert normalized["overall_wer"] == 0.0
        assert normalized["overall_bleu"] == 100.0
        assert main(["eval", "--refs", corpus, "--hyps", hyps]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["overall_wer"] > 0.0

    @pytest.mark.parametrize(
        "channel, message",
        [
            ({"tag": "#ASR#", "words": [None, 5]}, "word must be a JSON string, got NoneType"),
            ({"tag": "#ASR#", "words": ["I", 5]}, "word must be a JSON string, got int"),
            ({"tag": "#ASR#", "words": "abc"}, "words must be a JSON list, got str"),
            ({"tag": 5, "words": ["I"]}, "tag must be a JSON string, got int"),
        ],
    )
    def test_hypothesis_channel_of_the_wrong_type_is_a_bad_record(self, tmp_path, demo_files, capsys, channel, message):
        corpus, tags = demo_files
        built, hyps = tmp_path / "built.jsonl", tmp_path / "hyps.jsonl"
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(built)]) == 0
        assert main(["demux", "--tags", tags, "--input", str(built), "--output", str(hyps)]) == 0
        assert main(["eval", "--refs", corpus, "--hyps", str(hyps)]) == 0
        clean = capsys.readouterr().out
        # The bad line for the utterance comes first; the clean line for it follows.
        record = json.loads(hyps.read_text())
        hyps.write_text(json.dumps({**record, "channels": [channel, *record["channels"][1:]]}) + "\n" + hyps.read_text())
        rc = main(["eval", "--refs", corpus, "--hyps", str(hyps)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == clean
        diags = [json.loads(line) for line in captured.err.splitlines()]
        assert [(d["code"], d["index"], d["message"]) for d in diags] == [("bad-record", 1, f"{hyps}:1: {message}")]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"tokens": {"#ASR#": 0, "I": 1}}, "tokens must be a JSON list, got dict"),
            ({"origin_times": {"x": 1, "y": 2}}, "origin_times must be a JSON list, got dict"),
            ({"origin_times": [None, "x"]}, "origin_times[1] must be a JSON integer, got str"),
            ({"origin_times": [None, 1.5]}, "origin_times[1] must be a JSON integer, got float"),
            ({"origin_times": [None, True]}, "origin_times[1] must be a JSON integer, got bool"),
            ({"origin_times": [None, -1]}, "origin_times[1] must be non-negative, got -1"),
            ({"method": {"name": [1]}}, "method name must be a JSON string, got list"),
            ({"method": 5}, "method must be a JSON object, got int"),
            ({"method": {"name": "inter_time", "gamma": "x", "group_ms": [1]}}, "inter_time takes no gamma, got 'x'"),
            ({"method": {"name": "inter_time", "group_ms": [1]}}, "group_ms must be a positive integer, got [1]"),
            ({"method": {"name": "zigzag"}}, "unknown serialization method 'zigzag'"),
            ({"method": {"name": "inter_gamma", "gamma": 0.5, "group_ms": 500}}, "inter_gamma takes no group_ms, got 500"),
        ],
    )
    def test_serialized_field_of_the_wrong_type_is_a_bad_record(self, tmp_path, demo_files, capsys, fields, message):
        corpus, tags = demo_files
        built, hyps = tmp_path / "built.jsonl", tmp_path / "hyps.jsonl"
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(built)]) == 0
        assert main(["demux", "--tags", tags, "--input", str(built), "--output", str(hyps)]) == 0
        clean = hyps.read_text()
        # The bad line for the utterance comes first; the clean line for it follows.
        bad = {**json.loads(built.read_text()), "tokens": ["#ASR#", "I"], "origin_times": [None, 200], **fields}
        built.write_text(json.dumps(bad) + "\n" + built.read_text())
        capsys.readouterr()
        assert main(["demux", "--tags", tags, "--input", str(built), "--output", str(hyps)]) == 1
        assert hyps.read_text() == clean
        diags = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(d["code"], d["index"], d["message"]) for d in diags] == [("bad-record", 1, f"{built}:1: {message}")]

    def test_eval_id_mismatch_is_fatal(self, tmp_path, demo_files, capsys):
        corpus, _ = demo_files
        hyps = str(tmp_path / "hyps.jsonl")
        write_channels([("ghost", {"#ASR#": ("a",)})], hyps)
        rc = main(["eval", "--refs", corpus, "--hyps", hyps])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_switch_reduction_golden(self, tmp_path, demo_files, capsys):
        corpus, tags = demo_files
        base = str(tmp_path / "base.jsonl")
        variant = str(tmp_path / "variant.jsonl")
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", base]) == 0
        assert main(["build", "--method", "inter-time", "--group-ms", "500", "--tags", tags, "--input", corpus, "--output", variant]) == 0
        capsys.readouterr()
        rc = main(["stats", "--base", base, "--variant", variant])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {
            "utterances": 1,
            "base_switches": 8,
            "variant_switches": 6,
            "reduction": 0.25,
        }

    def test_table_output(self, tmp_path, demo_files, capsys):
        corpus, tags = demo_files
        base = str(tmp_path / "base.jsonl")
        variant = str(tmp_path / "variant.jsonl")
        main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", base])
        main(["build", "--method", "inter-time", "--group-ms", "1000", "--tags", tags, "--input", corpus, "--output", variant])
        capsys.readouterr()
        rc = main(["stats", "--base", base, "--variant", variant, "--table"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert "base switches" in out

    def test_line_diagnostics_precede_fatal_error(self, tmp_path, demo_files, capsys):
        # Without origin_times every token reads as a tag, so each line is
        # skipped and the reduction is undefined; the skipped lines must
        # still be reported before the fatal error.
        corpus, tags = demo_files
        built = tmp_path / "built.jsonl"
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(built)]) == 0
        record = json.loads(built.read_text())
        del record["origin_times"]
        bare = tmp_path / "bare.jsonl"
        bare.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        rc = main(["stats", "--base", str(bare), "--variant", str(bare)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line)["code"] for line in err[:-1]] == ["bad-record", "bad-record"]
        assert all(json.loads(line)["index"] == 1 for line in err[:-1])
        assert err[-1].startswith("error: base corpus has zero tag tokens")

    def _builds(self, tmp_path, demo_files):
        corpus, tags = demo_files
        base = tmp_path / "base.jsonl"
        variant = tmp_path / "variant.jsonl"
        assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(base)]) == 0
        assert main(["build", "--method", "inter-time", "--group-ms", "500", "--tags", tags, "--input", corpus, "--output", str(variant)]) == 0
        return base, variant

    def test_base_from_stdin(self, tmp_path, demo_files, capsys, monkeypatch):
        # Each input is read once, so `-` works for --base.
        base, variant = self._builds(tmp_path, demo_files)
        capsys.readouterr()
        assert main(["stats", "--base", str(base), "--variant", str(variant)]) == 0
        from_files = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(base.read_text()))
        assert main(["stats", "--base", "-", "--variant", str(variant)]) == 0
        from_stdin = capsys.readouterr()
        assert from_stdin.err == ""
        assert from_stdin.out == from_files.out
        assert json.loads(from_stdin.out)["reduction"] == 0.25

    @pytest.mark.parametrize("text", ["[1]", "5", '"x"', "null", "{nope"])
    def test_line_that_is_not_a_record_is_skipped(self, tmp_path, demo_files, capsys, text):
        base, variant = self._builds(tmp_path, demo_files)
        base.write_text(text + "\n" + base.read_text())
        variant.write_text(text + "\n" + variant.read_text())
        capsys.readouterr()
        rc = main(["stats", "--base", str(base), "--variant", str(variant)])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["reduction"] == 0.25
        diags = [json.loads(line) for line in captured.err.splitlines()]
        assert [(d["code"], d["index"]) for d in diags] == [("bad-record", 1), ("bad-record", 1)]
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize(
        "token, message",
        [
            ("a b", "word must not contain whitespace: 'a b'"),
            (5, "word must be a non-empty string, got 5"),
            ("", "word must be a non-empty string, got ''"),
            ("<unknown>", "invalid serialized sequence 'demo-001': word '<unknown>' at index 0 precedes any tag"),
        ],
    )
    def test_token_that_cannot_be_a_tag_is_a_bad_record(self, tmp_path, demo_files, capsys, token, message):
        # The bad token sits where the record's first tag was, at a null origin time.
        base, variant = self._builds(tmp_path, demo_files)
        record = json.loads(base.read_text())
        record["tokens"][0] = token
        base.write_text(base.read_text() + json.dumps(record) + "\n")
        capsys.readouterr()
        rc = main(["stats", "--base", str(base), "--variant", str(variant)])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["reduction"] == 0.25
        diags = [json.loads(line) for line in captured.err.splitlines()]
        assert [(d["code"], d["index"], d["message"]) for d in diags] == [("bad-record", 2, f"{base}:2: {message}")]

    def test_bad_line_leaves_the_other_lines_alone(self, tmp_path, capsys):
        # The bad line's tokens `a` and `b` must not read as tags in the good line.
        path = tmp_path / "built.jsonl"
        path.write_text(
            '{"v":1,"utt_id":"u1","method":{"name":"inter_time"},'
            '"tokens":["#ASR#","a","#ES#","c","#ASR#","b"],"origin_times":[null,1,null,2,null,3]}\n'
            '{"v":1,"utt_id":"u2","method":{"name":"inter_time"},"tokens":"ab"}\n'
        )
        rc = main(["stats", "--base", str(path), "--variant", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out) == {"utterances": 1, "base_switches": 3, "variant_switches": 3, "reduction": 0.0}
        diags = [json.loads(line) for line in captured.err.splitlines()]
        assert [(d["code"], d["index"]) for d in diags] == [("bad-record", 2), ("bad-record", 2)]

    @pytest.mark.parametrize("text", ["", '{"v":1,"utt_id":"u1","method":{"name":"inter_time"},"tokens":[],"origin_times":[]}\n'])
    def test_inputs_without_tags_leave_the_reduction_undefined(self, tmp_path, capsys, text):
        path = tmp_path / "built.jsonl"
        path.write_text(text)
        assert main(["stats", "--base", str(path), "--variant", str(path)]) == 2
        assert capsys.readouterr().err == "error: base corpus has zero tag tokens; reduction is undefined\n"

    def test_memory_is_bounded_by_one_record(self, tmp_path, capsys):
        # stats holds one record at a time; reading the whole build into
        # SerializedSequences takes at least 5 times its peak.
        cfg = SynthConfig(
            seed=3,
            num_utterances=3000,
            words_per_channel=(0, 45),
            word_rate_ms=(150, 450),
            translation_lag_ms=(200, 1500),
            reorder_window_ms=300,
            channels=(ASR, ES, DE),
            vocab_size=5000,
        )
        tags = TagSet((ASR, ES, DE))
        path = str(tmp_path / "built.jsonl")
        write_serialized([inter_time(u, tags=tags) for u in synth_corpus(cfg)], path)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stats_peak = peak(lambda: main(["stats", "--base", path, "--variant", path]))
        assert json.loads(capsys.readouterr().out)["utterances"] == 3000
        whole_file_peak = peak(lambda: read_serialized(path, tags))
        assert stats_peak * 5 <= whole_file_peak


class TestLaal:
    def test_json_report_matches_library(self, tmp_path, demo_utterance, demo_tags, capsys):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = replay(seq, ReplayPolicy(), source_duration_ms=1200)
        path = str(tmp_path / "traces.jsonl")
        write_traces(traces.values(), path)
        rc = main(["laal", "--traces", path])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["traces"] == 3
        by_tag = {c["tag"]: c for c in report["channels"]}
        for surface, trace in traces.items():
            assert by_tag[surface]["mean_laal_ms"] == pytest.approx(laal(trace))
            assert by_tag[surface]["traces"] == 1
        expected = sum(laal(t) for t in traces.values()) / 3
        assert report["overall_mean_laal_ms"] == pytest.approx(expected)

    def test_table(self, tmp_path, demo_utterance, demo_tags, capsys):
        seq = inter_time(demo_utterance, GroupingConfig(500), demo_tags)
        path = str(tmp_path / "traces.jsonl")
        write_traces(replay(seq, ReplayPolicy(), 1200).values(), path)
        rc = main(["laal", "--traces", path, "--table"])
        assert rc == 0
        assert "mean LAAL (ms)" in capsys.readouterr().out

    def test_unscorable_trace_is_a_skipped_line(self, tmp_path, demo_utterance, demo_tags, capsys):
        seq = inter_time(demo_utterance, tags=demo_tags)
        traces = list(replay(seq, ReplayPolicy(), source_duration_ms=1200).values())
        path = tmp_path / "traces.jsonl"
        write_traces(traces, str(path))
        lines = path.read_text().splitlines()
        empty = {**json.loads(lines[0]), "utt_id": "b", "entries": []}
        silent = {**json.loads(lines[0]), "utt_id": "c", "source_duration_ms": 0}
        path.write_text("\n".join([lines[0], json.dumps(empty), json.dumps(silent), *lines[1:]]) + "\n")
        rc = main(["laal", "--traces", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["traces"] == 3
        diags = [json.loads(line) for line in captured.err.splitlines()]
        assert [(d["code"], d["index"]) for d in diags] == [("bad-record", 2), ("bad-record", 3)]
        assert "empty trace for 'b'/" in diags[0]["message"]


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("tag", 5, "tag must be a JSON string, got int"),
            ("tag", [1], "tag must be a JSON string, got list"),
            ("utt_id", None, "utt_id must be a JSON string, got NoneType"),
            ("ref_len", True, "ref_len must be a JSON integer, got bool"),
            ("source_duration_ms", True, "source_duration_ms must be a JSON integer, got bool"),
            ("source_duration_ms", 1200.0, "source_duration_ms must be a JSON integer, got float"),
            ("entries", [[1.9, 10.7]], "entries[0][0] must be a JSON integer, got float"),
            ("entries", [[1, "2"]], "entries[0][1] must be a JSON integer, got str"),
            ("entries", [[1, 2, 3]], "entries[0] must be a [ordinal, delay] pair, got [1, 2, 3]"),
            ("entries", [5], "entries[0] must be a JSON list, got int"),
            ("entries", {"0": 1}, "entries must be a JSON list, got dict"),
            ("v", True, "unsupported schema version True (expected 1)"),
            ("v", 1.0, "unsupported schema version 1.0 (expected 1)"),
            ("entries", [[0, 10**400]], f"times beyond {sys.float_info.max:g} ms cannot be scored"),
            ("entries", [[0, -(10**400)], [1, 5]], f"times beyond {sys.float_info.max:g} ms cannot be scored"),
            ("source_duration_ms", 10**400, f"times beyond {sys.float_info.max:g} ms cannot be scored"),
        ],
    )
    def test_field_of_the_wrong_type_is_a_bad_record(self, tmp_path, demo_utterance, demo_tags, capsys, field, value, message):
        seq = inter_time(demo_utterance, tags=demo_tags)
        path = tmp_path / "traces.jsonl"
        write_traces(replay(seq, ReplayPolicy(), source_duration_ms=1200).values(), str(path))
        lines = path.read_text().splitlines()
        bad = {**json.loads(lines[0]), "utt_id": "b", field: value}
        path.write_text("\n".join([lines[0], json.dumps(bad), *lines[1:]]) + "\n")
        rc = main(["laal", "--traces", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["traces"] == 3
        diags = [json.loads(line) for line in captured.err.splitlines()]
        assert [(d["code"], d["index"], d["message"]) for d in diags] == [("bad-record", 2, f"{path}:2: {message}")]


class TestSynth:
    def _config_path(self, tmp_path, seed=None):
        cfg = SynthConfig(
            seed=0 if seed is None else seed,
            num_utterances=12,
            words_per_channel=(0, 10),
            word_rate_ms=(100, 300),
            translation_lag_ms=(0, 300),
            reorder_window_ms=50,
            channels=(ASR, ES),
            vocab_size=40,
        )
        blob = synth_config_to_json(cfg)
        if seed is None:
            del blob["seed"]
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(blob))
        return str(path)

    def test_deterministic(self, tmp_path):
        config = self._config_path(tmp_path, seed=3)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["synth", "--config", config, "--output", str(a)]) == 0
        assert main(["synth", "--config", config, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override(self, tmp_path):
        with_seed = self._config_path(tmp_path, seed=3)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        c = tmp_path / "c.jsonl"
        assert main(["synth", "--config", with_seed, "--output", str(a)]) == 0
        assert main(["synth", "--config", with_seed, "--seed", "4", "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()
        seeded = self._config_path(tmp_path, seed=4)
        assert main(["synth", "--config", seeded, "--output", str(c)]) == 0
        assert b.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_other_than_the_integer_1_is_fatal(self, tmp_path, capsys, version):
        config = Path(self._config_path(tmp_path, seed=3))
        config.write_text(json.dumps({**json.loads(config.read_text()), "v": version}))
        assert main(["synth", "--config", str(config), "--output", str(tmp_path / "x.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: unsupported schema version {version!r} (expected 1)\n"

    def test_missing_seed_is_fatal(self, tmp_path, capsys):
        config = self._config_path(tmp_path, seed=None)
        rc = main(["synth", "--config", config, "--output", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "no seed" in capsys.readouterr().err


class TestStudy:
    def _study_config(self, tmp_path, **overrides):
        synth = synth_config_to_json(
            SynthConfig(
                seed=21,
                num_utterances=15,
                words_per_channel=(1, 10),
                word_rate_ms=(100, 300),
                translation_lag_ms=(0, 300),
                reorder_window_ms=100,
                channels=(ASR, ES),
                vocab_size=40,
            )
        )
        blob = {
            "synth": synth,
            "methods": [
                {"name": "inter-time"},
                {"name": "inter_time", "group_ms": 500},
                {"name": "inter-gamma", "gamma": 0.5},
            ],
            "replay": {"mode": "auto", "overhead_ms": 0},
        }
        blob.update(overrides)
        path = tmp_path / "study.json"
        path.write_text(json.dumps(blob))
        return str(path)

    def test_end_to_end(self, tmp_path, capsys):
        config = self._study_config(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["study", "--config", config, "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        labels = [m["label"] for m in report["methods"]]
        assert labels == ["inter_time", "inter_time+500ms", "inter_gamma(0.5)"]
        assert report["utterances"] == 15
        assert report["methods"][0]["mean_switches"] >= report["methods"][1]["mean_switches"]
        table = capsys.readouterr().out
        assert "mean switches" in table
        assert "inter_gamma(0.5)" in table

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"methods": []}, "no methods"),
            ({"synth": None, "corpus": None}, "exactly one"),
        ],
    )
    def test_config_errors(self, tmp_path, capsys, overrides, message):
        if overrides.get("synth", "keep") is None:
            config = self._study_config(tmp_path)
            blob = json.loads(Path(config).read_text())
            blob["corpus"] = "whatever.jsonl"
            Path(config).write_text(json.dumps(blob))
        else:
            config = self._study_config(tmp_path, **overrides)
        rc = main(["study", "--config", config, "--output", "-"])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"synth": []}, "synth must be a JSON object, got list"),
            ({"methods": [5]}, "methods[0] must be a JSON object, got int"),
            ({"methods": {"name": "inter_time"}}, "methods must be a JSON list, got dict"),
            ({"methods": 3}, "methods must be a JSON list, got int"),
            ({"methods": [{"name": 5}]}, "methods[0].name must be a JSON string, got int"),
            ({"replay": []}, "replay must be a JSON object, got list"),
            ({"replay": 7}, "replay must be a JSON object, got int"),
        ],
    )
    def test_section_of_the_wrong_type_is_fatal(self, tmp_path, capsys, overrides, message):
        config = self._study_config(tmp_path, **overrides)
        rc = main(["study", "--config", config, "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {config}: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"synth": None, "corpus": 5}, "corpus must be a JSON string, got int"),
            ({"synth": None, "corpus": ["corpus.jsonl"]}, "corpus must be a JSON string, got list"),
            ({"tags": 5}, "tags must be a JSON string, got int"),
            ({"tags": {"v": 1}}, "tags must be a JSON string, got dict"),
        ],
    )
    def test_path_that_is_not_a_string_is_fatal(self, tmp_path, capsys, overrides, message):
        # An integer must not reach open(), which would take it as a file descriptor.
        config = self._study_config(tmp_path, **overrides)
        if overrides.get("synth", "keep") is None:
            blob = json.loads(Path(config).read_text())
            del blob["synth"]
            Path(config).write_text(json.dumps(blob))
        rc = main(["study", "--config", config, "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {config}: {message}\n"

    @pytest.mark.parametrize("command", ["synth", "study"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"channels": 5}, "channels must be a JSON list, got int"),
            ({"channels": [5]}, "channels[0] must be a JSON object, got int"),
            ({"words_per_channel": 5}, "words_per_channel must be a JSON list, got int"),
            ({"word_rate_ms": [100]}, "word_rate_ms must be a [low, high] pair, got [100]"),
            ({"translation_lag_ms": [0, None]}, "translation_lag_ms[1] must be a JSON integer, got NoneType"),
            ({"num_utterances": "5"}, "num_utterances must be a JSON integer, got str"),
            ({"vocab_size": 2.5}, "vocab_size must be a JSON integer, got float"),
            ({"reorder_window_ms": True}, "reorder_window_ms must be a JSON integer, got bool"),
            ({"seed": [1]}, "seed must be a JSON integer, got list"),
        ],
    )
    def test_synth_field_of_the_wrong_type_is_fatal(self, tmp_path, capsys, command, overrides, message):
        synth = json.loads(Path(self._study_config(tmp_path)).read_text())["synth"]
        synth.update(overrides)
        if command == "synth":
            config = tmp_path / "synth.json"
            config.write_text(json.dumps(synth))
        else:
            config = self._study_config(tmp_path, synth=synth)
        rc = main([command, "--config", str(config), "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "method, message",
        [
            ({"name": "inter_gamma", "gamma": "0.5"}, "gamma must be a number within [0, 1], got '0.5'"),
            ({"name": "inter_gamma", "gamma": True}, "gamma must be a number within [0, 1], got True"),
            ({"name": "inter_time", "gamma": 0.5}, "inter_time takes no gamma, got 0.5"),
            ({"name": "inter_gamma", "gamma": 0.5, "group_ms": 500}, "inter_gamma takes no group_ms, got 500"),
            ({"name": "inter_time", "group_ms": True}, "group_ms must be a positive integer, got True"),
        ],
    )
    def test_method_is_checked_before_any_work(self, tmp_path, capsys, method, message):
        config = self._study_config(tmp_path)
        blob = json.loads(Path(config).read_text())
        blob["methods"].append(method)
        Path(config).write_text(json.dumps(blob))
        out = tmp_path / "report.json"
        rc = main(["study", "--config", config, "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {config}: methods[3]: {message}\n")
        assert not out.exists()

    def test_replay_overhead_of_the_wrong_type_is_fatal(self, tmp_path, capsys):
        config = self._study_config(tmp_path, replay={"mode": "auto", "overhead_ms": "5"})
        rc = main(["study", "--config", config, "--output", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: overhead_ms must be a JSON integer, got str\n"

    def test_neither_corpus_nor_synth(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"methods": [{"name": "inter_time"}]}))
        rc = main(["study", "--config", str(path), "--output", "-"])
        assert rc == 2
        assert "corpus" in capsys.readouterr().err

    def test_missing_config_field_reports_key(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"synth": {"v": 1, "channels": []}, "methods": [{"name": "inter_time"}]}))
        rc = main(["study", "--config", str(path), "--output", "-"])
        assert rc == 2
        assert "error: missing field" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
@pytest.mark.parametrize("command", [["synth", "--seed", "3"], ["synth"], ["study"]])
def test_config_that_is_not_an_object_is_fatal(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    rc = main([*command, "--config", str(path), "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "demux", "stats", "eval"])
def test_utt_id_that_is_not_a_string_is_a_bad_record(tmp_path, demo_files, capsys, command):
    corpus, tags = demo_files
    built, hyps = tmp_path / "built.jsonl", tmp_path / "hyps.jsonl"
    assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(built)]) == 0
    assert main(["demux", "--tags", tags, "--input", str(built), "--output", str(hyps)]) == 0
    capsys.readouterr()
    # A copy of the input's last record, with a list for its utt_id.
    bad = {"build": corpus, "eval": corpus}.get(command, str(built))
    with open(bad, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**json.loads(Path(bad).read_text().splitlines()[-1]), "utt_id": [1]}) + "\n")
    out = str(tmp_path / "out.jsonl")
    argv = {
        "build": ["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", out],
        "demux": ["demux", "--tags", tags, "--input", str(built), "--output", out],
        "stats": ["stats", "--base", str(built), "--variant", str(built)],
        "eval": ["eval", "--refs", corpus, "--hyps", str(hyps)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    diags = [json.loads(line) for line in captured.err.splitlines()]
    assert {(d["code"], d["index"], d["message"].split(": ", 1)[1]) for d in diags} == {
        ("bad-record", 2, "utt_id must be a JSON string, got list")
    }
    if command in ("build", "demux"):
        assert [json.loads(line)["utt_id"] for line in Path(out).read_text().splitlines()] == ["demo-001"]
    else:
        assert json.loads(captured.out)


# One input line made from a valid record by replacing one of its fields, at
# any depth, with a random JSON value.  The run reports it; it never ends in a
# traceback, and only a mismatch between two inputs (stats, eval) is fatal.

_TEXT = st.text(st.characters(exclude_categories=()), max_size=4)  # lone surrogates included
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)

_ARGV = {
    "build": lambda f: ["build", "--method", "inter-time", "--tags", f["tags"], "--input", f["corpus"], "--output", f["out"]],
    "demux": lambda f: ["demux", "--tags", f["tags"], "--input", f["built"], "--output", f["out"]],
    "stats": lambda f: ["stats", "--base", f["built"], "--variant", f["grouped"]],
    "eval": lambda f: ["eval", "--refs", f["corpus"], "--hyps", f["hyps"]],
    "laal": lambda f: ["laal", "--traces", f["traces"]],
}


def _field_paths(value, path=()):
    """The key path of every field of every JSON object in `value`."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _field_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _field_paths(item, path + (i,))


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    corpus, tags = _synth_files(d, n=4)
    files = {name: str(d / f"{name}.jsonl") for name in ("built", "grouped", "hyps", "traces")}
    files.update(corpus=corpus, tags=tags)
    assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", files["built"]]) == 0
    assert main(["build", "--method", "inter-time", "--group-ms", "500", "--tags", tags, "--input", corpus, "--output", files["grouped"]]) == 0
    assert main(["demux", "--tags", tags, "--input", files["built"], "--output", files["hyps"]]) == 0
    utts, _ = read_corpus(corpus)
    write_traces([tr for u in utts for tr in replay(inter_time(u, tags=TagSet((ASR, ES, DE))), ReplayPolicy(), u.duration_ms).values()], files["traces"])
    return files


@pytest.mark.parametrize(
    "command, target",
    [("build", "corpus"), ("demux", "built"), ("stats", "built"), ("stats", "grouped"), ("eval", "corpus"), ("eval", "hyps"), ("laal", "traces")],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_corrupted_line_is_never_a_traceback(pipeline_inputs, command, target, data):
    files = dict(pipeline_inputs)
    lines = Path(files[target]).read_text(encoding="utf-8").splitlines()
    record = json.loads(data.draw(st.sampled_from(lines)))
    path = data.draw(st.sampled_from(sorted(_field_paths(record), key=repr)))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_JSON_VALUES)
    lines.insert(data.draw(st.integers(0, len(lines))), json.dumps(record))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        files[target] = os.path.join(d, "corrupted.jsonl")
        files["out"] = os.path.join(d, "out.jsonl")
        Path(files[target]).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(_ARGV[command](files))
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    diags = [json.loads(line) for line in err.getvalue().splitlines() if not line.startswith("error:")]
    assert all("code" in d for d in diags)
    if command in ("build", "demux", "laal"):
        assert rc in (0, 1)
    assert (rc, len(errors)) in {(0, 0), (1, 0), (2, 1)}


def _stats(base: str) -> tuple[int, dict | None, list[dict]]:
    """Exit code, report and diagnostics of `stats` with `base` on both sides."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["stats", "--base", base, "--variant", base])
    diags = [json.loads(line) for line in err.getvalue().splitlines() if not line.startswith("error:")]
    return rc, json.loads(out.getvalue()) if out.getvalue() else None, diags


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_one_corrupted_record_never_changes_how_another_is_read(pipeline_inputs, data):
    # stats on the file counts the clean records as it does without the
    # corrupted one, plus the corrupted one as it counts it alone.
    lines = Path(pipeline_inputs["built"]).read_text(encoding="utf-8").splitlines()
    record = {**json.loads(data.draw(st.sampled_from(lines))), "utt_id": "corrupted"}
    path = data.draw(st.sampled_from(sorted(_field_paths(record), key=repr)))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(st.none() | _JSON_VALUES)
    at = data.draw(st.integers(0, len(lines)))
    with tempfile.TemporaryDirectory() as d:
        alone, corrupted = os.path.join(d, "alone.jsonl"), os.path.join(d, "corrupted.jsonl")
        Path(alone).write_text(json.dumps(record) + "\n", encoding="utf-8")
        Path(corrupted).write_text("\n".join([*lines[:at], json.dumps(record), *lines[at:]]) + "\n", encoding="utf-8")
        _, clean, _ = _stats(pipeline_inputs["built"])
        rc_alone, report_alone, diags_alone = _stats(alone)
        rc, report, diags = _stats(corrupted)
    read = not diags_alone
    switches = (report_alone["base_switches"] if rc_alone != 2 else 0) if read else 0
    assert rc == (1 if diags_alone else 0)
    assert {d["index"] for d in diags} == ({at + 1} if diags_alone else set())
    assert report["utterances"] == clean["utterances"] + read
    assert report["base_switches"] == clean["base_switches"] + switches


def test_escaped_lone_surrogate_is_a_bad_record(tmp_path, demo_files, capsys):
    # Written back as UTF-8, the utt_id would end the run with exit 2.
    corpus, tags = demo_files
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**json.loads(Path(corpus).read_text().splitlines()[0]), "utt_id": "\ud800"}) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["build", "--method", "inter-time", "--tags", tags, "--input", corpus, "--output", str(out)]) == 1
    diags = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(d["code"], d["index"]) for d in diags] == [("bad-record", 2)]
    assert [json.loads(line)["utt_id"] for line in out.read_text().splitlines()] == ["demo-001"]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tokenweave", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "build" in proc.stdout and "demux" in proc.stdout

    def test_import_leaves_out_the_process_pool(self):
        # No subcommand starts worker processes.
        code = (
            "import sys, tokenweave.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_unreadable_input_is_fatal(self, tmp_path, capsys):
        rc = main(["laal", "--traces", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
