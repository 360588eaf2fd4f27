"""Command-line front end: serialize, demux, score, and simulate as a pipeline.

Exit codes: 0 success, 1 the run completed but diagnostics were emitted
(bad input lines were skipped, or input words went unscored), 2 fatal error
(usage, unreadable file, domain violation).  Diagnostics go to standard
error, one canonical JSON object per line; primary results go to the
requested output path, with "-" meaning stdin/stdout.  Every stream holds
UTF-8 text, as a file does (see :func:`formats._utf8`); standard error
escapes what has no UTF-8 form, such as an undecodable byte of a path.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing

# Each cmd_* imports the other layers it calls, so that a stage loads only
# those: a CLI stage is a short process, and its imports are a large part of
# its run time.
from . import formats
from .model import Diagnostic, SerializationMethod, _expect_json, _json_object, validate_utterance

__all__ = ["main"]


def _emit_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(formats._dumps(d.to_json()), file=sys.stderr)


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned plain-text table with a dashed header rule."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# build


def _refuse_stdin_twice(inputs: dict[str, str], why: str = "stdin holds one input") -> None:
    """A ValueError, raised before any input is read, if two of `inputs` (name: path) are - (stdin)."""
    names = [name for name, path in inputs.items() if path == "-"]
    if len(names) > 1:
        raise ValueError(f"{names[0]} and {names[1]} cannot both be - (stdin): {why}")


def _refuse_input_as_output(output: str, *inputs: str) -> None:
    """A ValueError if `output` is the same file as an input: it would be truncated before it is read."""
    if output == "-" or not os.path.exists(output):
        return
    for path in inputs:
        if path != "-" and os.path.exists(path) and os.path.samefile(path, output):
            raise ValueError(f"{output}: is also the input {path}; write to another file")


def cmd_build(args: argparse.Namespace, diags: list[Diagnostic]) -> None:
    from .serialize import serialize_utterance

    _refuse_stdin_twice({"--tags": args.tags, "--input": args.input})
    tags = formats.read_tag_set(args.tags)
    method = SerializationMethod(args.method.replace("-", "_"), gamma=args.gamma, group_ms=args.group_ms)
    _refuse_input_as_output(args.output, args.input)
    # Reader, validation and serialize diagnostics are reported in that order.
    invalid: list[Diagnostic] = []
    unserializable: list[Diagnostic] = []

    def seqs():
        for u in formats.read_corpus(args.input, diags):
            problems = validate_utterance(u, tags)
            if problems:
                invalid.extend(problems)
                continue
            try:
                seq = serialize_utterance(u, method, tags)
            except ValueError as exc:
                unserializable.append(Diagnostic("serialize-error", str(exc), utt_id=u.utt_id))
                continue
            yield seq

    try:
        formats.write_serialized(seqs(), args.output)
    finally:
        diags += invalid + unserializable


# ---------------------------------------------------------------------------
# demux


def cmd_demux(args: argparse.Namespace, diags: list[Diagnostic]) -> None:
    from .demux import demux_full

    _refuse_stdin_twice({"--tags": args.tags, "--input": args.input})
    tags = formats.read_tag_set(args.tags)
    _refuse_input_as_output(args.output, args.input)
    # Reader diagnostics are reported before demux diagnostics.
    demux_diags: list[Diagnostic] = []

    if args.text:
        lines = formats._read_lines(args.input)
        streams = ((f"line{n:06d}", line) for n, line in lines if line.strip())
    else:
        streams = ((s.utt_id, s) for s in formats.read_serialized(args.input, tags, diags))

    def records():
        for utt_id, stream in streams:
            result = demux_full(stream, tags, utt_id=utt_id)
            demux_diags.extend(result.diagnostics)
            yield utt_id, result.words

    try:
        formats.write_channels(records(), args.output)
    finally:
        diags += demux_diags


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args: argparse.Namespace, diags: list[Diagnostic]) -> None:
    from .metrics import switch_report

    _refuse_stdin_twice({"--base": args.base, "--variant": args.variant})
    # Read without a tag set, each record's tags are its own.
    base, variant = (formats.read_serialized(path, None, diags) for path in (args.base, args.variant))
    report = switch_report(base, variant)
    if args.table:
        headers = ["utterances", "base switches", "variant switches", "reduction"]
        row = [str(report["utterances"]), str(report["base_switches"]), str(report["variant_switches"])]
        formats._write_lines("-", [format_table(headers, [[*row, f"{report['reduction']:.6f}"]])])
    else:
        formats._write_lines("-", [formats._dumps(report)])


# ---------------------------------------------------------------------------
# eval / laal


def _cell(obj: dict, key: str, spec: str) -> str:
    """`obj[key]` formatted with `spec`, or an empty cell if the report has no such key."""
    return format(obj[key], spec) if key in obj else ""


def cmd_eval(args: argparse.Namespace, diags: list[Diagnostic]) -> None:
    from .metrics import evaluate_corpus

    _refuse_stdin_twice({"--refs": args.refs, "--hyps": args.hyps}, "the two are read side by side")
    # Both inputs stream through one scoring pass.  Reference, hypothesis and
    # unscored-words diagnostics are reported in that order.
    hyp_diags: list[Diagnostic] = []
    unscored: list[Diagnostic] = []
    refs = formats.read_corpus(args.refs, diags)
    hyps = formats.read_channels(args.hyps, hyp_diags)
    with closing(refs), closing(hyps):
        try:
            report = evaluate_corpus(refs, hyps, unscored, normalize=args.normalize)
        finally:
            diags += hyp_diags + unscored
    if args.table:
        rows = [
            [c["tag"], c["modality"], _cell(c, "wer", ".4f"), _cell(c, "bleu", ".2f"), str(c["segments"])]
            for c in report["channels"]
        ]
        overall = ["(all)", "", _cell(report, "overall_wer", ".4f"), _cell(report, "overall_bleu", ".2f")]
        rows.append([*overall, str(report["utterances"])])
        formats._write_lines("-", [format_table(["tag", "modality", "WER", "BLEU", "n"], rows)])
    else:
        formats._write_lines("-", [formats._dumps(report)])


def cmd_laal(args: argparse.Namespace, diags: list[Diagnostic]) -> None:
    from .metrics import laal_report

    report = laal_report(formats.read_traces(args.traces, diags))
    if args.table:
        rows = [[c["tag"], f"{c['mean_laal_ms']:.1f}", str(c["traces"])] for c in report["channels"]]
        formats._write_lines("-", [format_table(["tag", "mean LAAL (ms)", "traces"], rows)])
    else:
        formats._write_lines("-", [formats._dumps(report)])


# ---------------------------------------------------------------------------
# synth / study


def cmd_synth(args: argparse.Namespace, diags: list[Diagnostic]) -> None:
    from .simulate import SynthConfig, synth_corpus

    obj = _expect_json(formats.read_json(args.config), f"{args.config}: config", dict)
    if args.seed is not None:
        obj = {**obj, "seed": args.seed}
    if "seed" not in obj:
        raise ValueError("no seed: provide --seed or a \"seed\" field in the config")
    config = SynthConfig.from_json(obj, f"{args.config}: config")
    formats.write_corpus(synth_corpus(config), args.output)


def cmd_study(args: argparse.Namespace, diags: list[Diagnostic]) -> None:
    from .simulate import ReplayPolicy, SynthConfig, latency_study, synth_corpus

    fields = ("corpus", "synth", "methods", "replay", "tags")
    obj = _json_object(formats.read_json(args.config), fields, f"{args.config}: config")
    _refuse_stdin_twice(
        {"--config": args.config, 'the config\'s "corpus"': obj.get("corpus"), 'the config\'s "tags"': obj.get("tags")}
    )

    if "corpus" in obj and "synth" in obj:
        raise ValueError("study config must have exactly one of \"corpus\" or \"synth\"")
    if "corpus" in obj:
        corpus = formats.read_corpus(_expect_json(obj["corpus"], f"{args.config}: corpus", str), diags)
    elif "synth" in obj:
        corpus = synth_corpus(SynthConfig.from_json(obj["synth"], f"{args.config}: synth"))
    else:
        raise ValueError("study config must have a \"corpus\" path or a \"synth\" section")

    methods = []
    for i, m in enumerate(_expect_json(obj.get("methods", []), f"{args.config}: methods", list)):
        what = f"{args.config}: methods[{i}]"
        name = _expect_json(_json_object(m, SerializationMethod._fields, what).get("name"), f"{what}.name", str)
        try:
            # A "-" in a study method's name reads as "_", as in build's --method.
            methods.append(SerializationMethod(**{**m, "name": name.replace("-", "_")}))
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc
    if not methods:
        raise ValueError("study config lists no methods")

    policy = ReplayPolicy.from_json(obj.get("replay", {}), f"{args.config}: replay")
    tags = formats.read_tag_set(_expect_json(obj["tags"], f"{args.config}: tags", str)) if "tags" in obj else None

    with closing(corpus):
        report = latency_study(corpus, methods, policy, tags)

    formats._write_lines(args.output, [formats._dumps(report)])
    if args.output == "-":
        return  # stdout holds the report, and only the report

    rows = []
    for entry in report["methods"]:
        for ch in entry["channels"]:
            rows.append(
                [entry["label"], ch["tag"], f"{ch['mean_laal_ms']:.1f}", f"{entry['mean_switches']:.2f}"]
            )
    formats._write_lines("-", [format_table(["method", "tag", "mean LAAL (ms)", "mean switches"], rows)])


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenweave",
        description="Serialize multi-channel timed transcripts into single tagged "
        "token streams, split them back, and score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="serialize a corpus into tagged token streams")
    p.add_argument("--method", required=True, choices=["inter-time", "inter-gamma"])
    p.add_argument("--gamma", type=float, default=None, help="balance in [0,1] (inter-gamma only)")
    p.add_argument("--group-ms", type=int, default=None, help="time-step grouping window (inter-time only)")
    p.add_argument("--tags", required=True, help="tag set JSON file")
    p.add_argument("--input", required=True, help="corpus JSONL, - for stdin")
    p.add_argument("--output", required=True, help="serialized JSONL, - for stdout")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("demux", help="split serialized streams back into channels")
    p.add_argument("--tags", required=True, help="tag set JSON file")
    p.add_argument("--input", required=True, help="serialized JSONL (or plain text with --text)")
    p.add_argument("--output", required=True, help="channels JSONL, - for stdout")
    p.add_argument("--text", action="store_true", help="input is plain text, one stream per line")
    p.set_defaults(func=cmd_demux)

    p = sub.add_parser("stats", help="switch counts and reduction ratio between two builds")
    p.add_argument("--base", required=True, help="baseline serialized JSONL (build output)")
    p.add_argument("--variant", required=True, help="variant serialized JSONL (build output)")
    p.add_argument("--table", action="store_true", help="plain-text table instead of JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="WER/BLEU report of demuxed channels against a corpus")
    p.add_argument("--refs", required=True, help="reference corpus JSONL")
    p.add_argument("--hyps", required=True, help="demuxed channels JSONL")
    p.add_argument("--normalize", action="store_true", help="lowercase and strip punctuation")
    p.add_argument("--table", action="store_true", help="plain-text table instead of JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("laal", help="latency report from emission traces")
    p.add_argument("--traces", required=True, help="traces JSONL")
    p.add_argument("--table", action="store_true", help="plain-text table instead of JSON")
    p.set_defaults(func=cmd_laal)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a config")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--output", required=True, help="corpus JSONL, - for stdout")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("study", help="compare serialization methods: lagging and switches")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--output", required=True, help="report JSON, - for stdout")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its diagnostics go to stderr and set the exit code.

    On a fatal error the diagnostics collected so far, which often explain
    it, are written before the `error:` line, and the exit code is 2.
    """
    formats._utf8(sys.stderr, "backslashreplace")
    args = build_parser().parse_args(argv)
    diags: list[Diagnostic] = []
    try:
        args.func(args, diags)
    except (KeyError, ValueError, OSError) as exc:
        _emit_diags(diags)
        print(f"error: missing field {exc}" if isinstance(exc, KeyError) else f"error: {exc}", file=sys.stderr)
        return 2
    _emit_diags(diags)
    return 1 if diags else 0
