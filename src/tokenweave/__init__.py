"""tokenweave: weave multi-channel timed transcripts into one token stream.

A transcription and its translations are parallel word sequences, each word
carrying the time a streaming model would commit it.  This package flattens
those channels into a single stream using channel-tag tokens, optionally
groups timestamps into fixed windows to cut tag switches, splits streams
back into channels, and scores the results (WER, BLEU, length-adaptive
average lagging).  A seeded generator and an idealized replayer stand in
for real streaming models in tests and latency studies.
"""

from .demux import DemuxResult, DemuxState, demux_full, feed
from .metrics import (
    EmissionTrace,
    bleu_corpus,
    count_switches,
    evaluate_corpus,
    laal,
    switch_reduction,
    wer,
)
from .model import (
    UNKNOWN_CHANNEL,
    Channel,
    Diagnostic,
    GroupingConfig,
    Modality,
    SerializationMethod,
    SerializedSequence,
    SerializedToken,
    Tag,
    TagSet,
    TagToken,
    TimedWord,
    Utterance,
    WordToken,
    check_sequence,
    validate_utterance,
)
from .serialize import (
    assign_group,
    inter_gamma,
    inter_time,
    render_text,
    serialize_utterance,
)
from .simulate import ReplayPolicy, SynthConfig, latency_study, replay, synth_corpus

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "UNKNOWN_CHANNEL",
    "Modality",
    "TimedWord",
    "Tag",
    "TagSet",
    "Channel",
    "Utterance",
    "TagToken",
    "WordToken",
    "SerializedToken",
    "SerializationMethod",
    "SerializedSequence",
    "GroupingConfig",
    "Diagnostic",
    "check_sequence",
    "validate_utterance",
    "assign_group",
    "inter_time",
    "inter_gamma",
    "serialize_utterance",
    "render_text",
    "DemuxState",
    "DemuxResult",
    "feed",
    "demux_full",
    "EmissionTrace",
    "wer",
    "bleu_corpus",
    "laal",
    "count_switches",
    "switch_reduction",
    "evaluate_corpus",
    "SynthConfig",
    "ReplayPolicy",
    "synth_corpus",
    "replay",
    "latency_study",
]
