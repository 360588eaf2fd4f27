"""Command-line front end: serialize, demux, score, and simulate as a pipeline.

Exit codes: 0 success, 1 the run completed but validation diagnostics were
emitted (bad input lines were skipped), 2 fatal error (usage, unreadable
file, domain violation).  Diagnostics go to standard error, one canonical
JSON object per line; primary results go to the requested output path, with
"-" meaning stdin/stdout.
"""

from __future__ import annotations

import argparse
import sys
from itertools import compress, repeat
from operator import is_, itemgetter

from . import formats
from .demux import demux_full
from .metrics import _switch_reduction, count_switches, evaluate_corpus, format_table, laal
from .model import (
    Diagnostic,
    Modality,
    SerializationMethod,
    Tag,
    TagSet,
    UNKNOWN_CHANNEL,
    Utterance,
    validate_utterance,
)
from .serialize import serialize_utterance
from .simulate import (
    latency_study,
    method_label,
    replay_policy_from_json,
    synth_config_from_json,
    synth_corpus,
)

__all__ = ["main"]


def _emit_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(formats._dumps(d.to_json()), file=sys.stderr)


def _print(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# build


def cmd_build(args: argparse.Namespace) -> int:
    tags = formats.read_tag_set(args.tags)
    method = SerializationMethod(args.method.replace("-", "_"), gamma=args.gamma, group_ms=args.group_ms)
    corpus, diags = formats.read_corpus(args.input)

    work: list[Utterance] = []
    for u in corpus:
        problems = validate_utterance(u, tags)
        if problems:
            diags.extend(problems)
        else:
            work.append(u)

    # Every validation diagnostic is reported before any serialize error.
    lines = []
    for u in work:
        try:
            seq = serialize_utterance(u, method, tags)
        except ValueError as exc:
            diags.append(Diagnostic("serialize-error", str(exc), utt_id=u.utt_id))
            continue
        lines.append(formats._dumps(formats.serialized_to_json(seq)))
    formats._write_lines(args.output, lines)
    _emit_diags(diags)
    return 1 if diags else 0


# ---------------------------------------------------------------------------
# demux


def cmd_demux(args: argparse.Namespace) -> int:
    tags = formats.read_tag_set(args.tags)
    diags: list[Diagnostic] = []
    records: list[tuple[str, dict]] = []

    if args.text:
        for lineno, line in formats.read_text_lines(args.input):
            if not line.strip():
                continue
            result = demux_full(line, tags, utt_id=f"line{lineno:06d}")
            diags.extend(result.diagnostics)
            records.append((f"line{lineno:06d}", result.words))
    else:
        seqs, diags = formats.read_serialized(args.input, tags)
        for s in seqs:
            result = demux_full(s, tags)
            diags.extend(result.diagnostics)
            records.append((s.utt_id, result.words))

    formats.write_channels(records, args.output)
    _emit_diags(diags)
    return 1 if diags else 0


# ---------------------------------------------------------------------------
# stats


def _own_tags(obj, known: dict[str, Tag]) -> TagSet | None:
    """A build-written record's tags: its own tokens at null origin times that can be tag surfaces.

    The serializer stamps an origin time on every word; a record without
    `origin_times` has a null one at every token.  A token that cannot be a
    tag surface (not a non-empty string without whitespace, or the reserved
    unknown bucket) stays a word, so its line fails the word check.  None if
    there is no such token or the record is malformed (the parser reports
    it).  `known` keeps one Tag per surface across records.
    """
    tokens, origins = (obj.get("tokens"), obj.get("origin_times")) if isinstance(obj, dict) else (None, None)
    if not isinstance(tokens, list) or not isinstance(origins, (list, type(None))):
        return None
    try:
        surfaces = dict.fromkeys(tokens if origins is None else compress(tokens, map(is_, origins, repeat(None))))
    except TypeError:  # an unhashable token, which the word check rejects
        return None
    for s in surfaces:
        if s not in known and isinstance(s, str) and s.split() == [s] and s != UNKNOWN_CHANNEL:
            # Modality and language are not in the stream and do not matter
            # for switch counting; "und" is the undetermined language code.
            known[s] = Tag(s, Modality.TRANSCRIPTION, "und")
    tags = tuple(known[s] for s in surfaces if s in known)
    return TagSet(tags) if tags else None


def cmd_stats(args: argparse.Namespace) -> int:
    known: dict[str, Tag] = {}

    def parse(obj) -> tuple[str, int]:
        # Only the record's (utt_id, switches) pair is kept.
        seq = formats.serialized_from_json(obj, _own_tags(obj, known))
        return seq.utt_id, count_switches(seq)

    base_counts, diags_b = formats._read_jsonl(args.base, parse, itemgetter(0))
    variant_counts, diags_v = formats._read_jsonl(args.variant, parse, itemgetter(0))
    diags = diags_b + diags_v
    try:
        reduction = _switch_reduction(base_counts, variant_counts)
    except ValueError:
        _emit_diags(diags)  # the skipped lines are usually why the reduction is undefined
        raise
    result = {
        "utterances": len(base_counts),
        "base_switches": sum(n for _, n in base_counts),
        "variant_switches": sum(n for _, n in variant_counts),
        "reduction": reduction,
    }
    if args.table:
        _print(
            format_table(
                ["utterances", "base switches", "variant switches", "reduction"],
                [[str(result["utterances"]), str(result["base_switches"]), str(result["variant_switches"]), f"{reduction:.6f}"]],
            )
        )
    else:
        _print(formats._dumps(result))
    _emit_diags(diags)
    return 1 if diags else 0


# ---------------------------------------------------------------------------
# eval / laal


def cmd_eval(args: argparse.Namespace) -> int:
    refs, diags_r = formats.read_corpus(args.refs)
    hyps, diags_h = formats.read_channels(args.hyps)
    diags = diags_r + diags_h
    report = evaluate_corpus(refs, hyps, normalize=args.normalize)
    _print(report.to_table() if args.table else formats._dumps(report.to_json()))
    _emit_diags(diags)
    return 1 if diags else 0


def cmd_laal(args: argparse.Namespace) -> int:
    traces, diags = formats.read_traces(args.traces)
    by_tag: dict[str, list[float]] = {}
    for tr in traces:
        by_tag.setdefault(tr.tag, []).append(laal(tr))
    channels = [
        {"tag": tag, "mean_laal_ms": sum(vals) / len(vals), "traces": len(vals)}
        for tag, vals in sorted(by_tag.items())
    ]
    all_vals = [v for vals in by_tag.values() for v in vals]
    result = {
        "traces": len(traces),
        "channels": channels,
        "overall_mean_laal_ms": sum(all_vals) / len(all_vals) if all_vals else 0.0,
    }
    if args.table:
        rows = [[c["tag"], f"{c['mean_laal_ms']:.1f}", str(c["traces"])] for c in channels]
        _print(format_table(["tag", "mean LAAL (ms)", "traces"], rows))
    else:
        _print(formats._dumps(result))
    _emit_diags(diags)
    return 1 if diags else 0


# ---------------------------------------------------------------------------
# synth / study


def _section(path: str, name: str, obj, kind: type):
    """`obj` if it has the JSON type `kind`, else a ValueError naming `path` and `name`."""
    return formats._expect_json(obj, f"{path}: {name}", kind)


def _read_config(path: str) -> dict:
    return _section(path, "config", formats.read_json(path), dict)


def cmd_synth(args: argparse.Namespace) -> int:
    obj = _read_config(args.config)
    if args.seed is not None:
        obj = {**obj, "seed": args.seed}
    if "seed" not in obj:
        raise ValueError("no seed: provide --seed or a \"seed\" field in the config")
    config = synth_config_from_json(obj)
    formats.write_corpus(synth_corpus(config), args.output)
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    obj = _read_config(args.config)
    diags: list[Diagnostic] = []

    if "corpus" in obj and "synth" in obj:
        raise ValueError("study config must have exactly one of \"corpus\" or \"synth\"")
    if "corpus" in obj:
        corpus, diags = formats.read_corpus(_section(args.config, "corpus", obj["corpus"], str))
    elif "synth" in obj:
        synth = _section(args.config, "synth", obj["synth"], dict)
        corpus = synth_corpus(synth_config_from_json(synth))
    else:
        raise ValueError("study config must have a \"corpus\" path or a \"synth\" section")

    methods = []
    for i, m in enumerate(_section(args.config, "methods", obj.get("methods", []), list)):
        m = _section(args.config, f"methods[{i}]", m, dict)
        name = _section(args.config, f"methods[{i}].name", m.get("name"), str)
        try:
            methods.append(SerializationMethod.from_json({**m, "name": name.replace("-", "_")}))
        except ValueError as exc:
            raise ValueError(f"{args.config}: methods[{i}]: {exc}") from exc
    if not methods:
        raise ValueError("study config lists no methods")

    policy = replay_policy_from_json(_section(args.config, "replay", obj.get("replay", {}), dict))
    tags = formats.read_tag_set(_section(args.config, "tags", obj["tags"], str)) if "tags" in obj else None

    report = latency_study(corpus, methods, policy, tags)

    formats._write_lines(args.output, [formats._dumps(report)])

    rows = []
    for entry in report["methods"]:
        for ch in entry["channels"]:
            rows.append(
                [entry["label"], ch["tag"], f"{ch['mean_laal_ms']:.1f}", f"{entry['mean_switches']:.2f}"]
            )
    _print(format_table(["method", "tag", "mean LAAL (ms)", "mean switches"], rows))
    _emit_diags(diags)
    return 1 if diags else 0


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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing field {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
