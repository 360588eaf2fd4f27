"""tokenweave: weave multi-channel timed transcripts into one token stream.

A transcription and its translations are parallel word sequences, each word
carrying the time a streaming model would commit it.  This package flattens
those channels into a single stream using channel-tag tokens, optionally
groups timestamps into fixed windows to cut tag switches, splits streams
back into channels, and scores the results (WER, BLEU, length-adaptive
average lagging).  A seeded generator and an idealized replayer stand in
for real streaming models in tests and latency studies.

Each public name is imported from its submodule the first time it is looked
up, so ``import tokenweave`` itself loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name.
_EXPORTS = {
    name: module
    for module, names in {
        "model": (
            "UNKNOWN_CHANNEL",
            "Modality",
            "TimedWord",
            "Tag",
            "TagSet",
            "Channel",
            "Utterance",
            "TagToken",
            "WordToken",
            "SerializationMethod",
            "SerializedSequence",
            "GroupingConfig",
            "Diagnostic",
            "EmissionTrace",
            "check_sequence",
            "validate_utterance",
        ),
        "serialize": ("assign_group", "inter_time", "serialize_utterance", "render_text"),
        "demux": ("DemuxState", "feed", "demux_full"),
        "metrics": (
            "wer", "bleu_corpus", "laal", "laal_report",
            "count_switches", "switch_reduction", "switch_report", "evaluate_corpus",
        ),
        "simulate": ("SynthConfig", "ReplayPolicy", "synth_corpus", "replay", "latency_study"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import the submodule that defines `name` and keep the name here (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
