"""Per-layer spans for the traced benchmark run, recorded from outside `src/`.

`Tracer.install` replaces each public function of a layer with a wrapper at
every module binding that refers to it, which is where callers look it up
(`tokenweave.cli.serialize_utterance`, `tokenweave.metrics.edit_distance`,
and so on).  Each call records one span: name, start, end and the span that
was open when it began.  Spans are per record or per corpus, never per
token.  A layer's self time is the sum of its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict


def _skipped(counts, args, result):
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], list):
        counts["formats.records_skipped"] += len(result[1])


def _record_in(counts, args, result):
    counts["formats.records_in"] += 1


def _record_out(counts, args, result):
    counts["formats.records_out"] += 1


def _validated(counts, args, result):
    counts["model.validate_calls"] += 1


def _sequence_checked(counts, args, result):
    counts["model.sequences_checked"] += 1


def _serialized(counts, args, result):
    words = sum(len(ch.words) for ch in args[0].channels)
    counts["serialize.words_in"] += words
    counts["serialize.tags_out"] += len(result) - words


def _demuxed(counts, args, result):
    stream = args[0]
    if isinstance(stream, str):
        counts["demux.tokens_in"] += len(stream.split(" ")) if stream else 0
    else:
        counts["demux.tokens_in"] += len(getattr(stream, "tokens", stream))
    counts["demux.diagnostics"] += len(result.diagnostics)


def _aligned(counts, args, result):
    counts["kernels.pairs"] += 1
    counts["kernels.cells"] += len(args[0]) * len(args[1])


def _bleu(counts, args, result):
    counts["metrics.bleu_segments"] += len(args[0])


def _laal(counts, args, result):
    counts["metrics.laal_traces"] += 1


def _replayed(counts, args, result):
    counts["simulate.replay_traces"] += len(result)


# (module, function, self-time metric, counter).  Where two entries name
# nested calls, as a reader and its `*_from_json`, the outer span's self
# time excludes the inner one.  `_write_lines` is private, but `build`
# writes its output through it.  A function that a later version renames or
# removes is reported as absent.
LAYERS = [
    *[("formats", f, "formats.read_s", _skipped) for f in
      ("read_corpus", "read_serialized", "read_channels", "read_traces", "read_tag_set", "read_text_lines")],
    *[("formats", f, "formats.objects_s", _record_in) for f in
      ("utterance_from_json", "serialized_from_json", "channels_from_json", "trace_from_json")],
    ("formats", "tag_set_from_json", "formats.objects_s", None),
    *[("formats", f, "formats.write_s", _record_out) for f in
      ("utterance_to_json", "serialized_to_json", "channels_to_json", "trace_to_json")],
    *[("formats", f, "formats.write_s", None) for f in
      ("tag_set_to_json", "write_corpus", "write_serialized", "write_serialized_text", "write_channels",
       "write_traces", "write_tag_set", "_write_lines")],
    ("model", "validate_utterance", "model.validate_s", _validated),
    ("model", "check_sequence", "model.check_sequence_s", _sequence_checked),
    ("serialize", "serialize_utterance", "serialize.s", _serialized),
    ("demux", "demux_full", "demux.s", _demuxed),
    ("kernels", "edit_distance", "kernels.edit_distance_s", _aligned),
    ("metrics", "bleu_corpus", "metrics.bleu_s", _bleu),
    ("metrics", "laal", "metrics.laal_s", _laal),
    ("metrics", "evaluate_corpus", "metrics.evaluate_s", None),
    ("metrics", "count_switches", "metrics.switches_s", None),
    ("metrics", "switch_reduction", "metrics.switches_s", None),
    ("simulate", "synth_corpus", "simulate.synth_s", None),
    ("simulate", "replay", "simulate.replay_s", _replayed),
    ("simulate", "latency_study", "simulate.study_s", None),
]

ROOT_METRIC = "cli.self_s"


class Tracer:
    """Spans and counts for one stage, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [metric, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.counter_errors: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, metric: str) -> int:
        idx = len(self.spans)
        self.spans.append([metric, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run(self, metric: str, fn, *args):
        """Call `fn(*args)` inside a span."""
        idx = self._open(metric)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, metric: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if inspect.isgenerator(result):
                return tracer._traced_generator(result, metric)
            if counter is not None:
                try:
                    counter(tracer.counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    tracer.counter_errors[fn.__name__] += 1
            return result

        return traced

    def _traced_generator(self, gen, metric: str):
        # A reader that yields records gets one span per record.
        while True:
            idx = self._open(metric)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def install(self) -> None:
        """Wrap every LAYERS function at each tokenweave module binding of it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "tokenweave" or name.startswith("tokenweave.")]
        for layer, name, metric, counter in LAYERS:
            fn = getattr(sys.modules.get(f"tokenweave.{layer}"), name, None)
            if not callable(fn):
                self.absent.append(f"{layer}.{name}")
                continue
            wrapper = self._wrap(fn, metric, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (metric, start, end, _), child in zip(self.spans, covered):
            out[metric] += end - start - child
        return dict(out)
