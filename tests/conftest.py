from __future__ import annotations

import pytest

from tokenweave import Channel, Modality, SynthConfig, Tag, TagSet, TimedWord, Utterance
from tokenweave.simulate import synth_corpus

import acceptance_log

ASR = Tag("#ASR#", Modality.TRANSCRIPTION, "en")
ES = Tag("#ES#", Modality.TRANSLATION, "es")
DE = Tag("#DE#", Modality.TRANSLATION, "de")
FR = Tag("#FR#", Modality.TRANSLATION, "fr")

# Three-channel demo utterance used throughout: an English transcription with
# Spanish and German translations, word emission times in ms.
DEMO_UNGROUPED = (
    "#ASR# I #ES# Estoy #ASR# am #DE# Ich #ASR# happy. #DE# bin #ES# feliz. #DE# froh."
)
DEMO_GROUPED_500 = "#ASR# I am #ES# Estoy #DE# Ich bin #ASR# happy. #ES# feliz. #DE# froh."


@pytest.fixture
def demo_tags() -> TagSet:
    return TagSet((ASR, ES, DE))


@pytest.fixture
def demo_utterance() -> Utterance:
    return Utterance(
        utt_id="demo-001",
        duration_ms=1200,
        channels=(
            Channel(ASR, (TimedWord(200, "I"), TimedWord(400, "am"), TimedWord(700, "happy."))),
            Channel(ES, (TimedWord(300, "Estoy"), TimedWord(900, "feliz."))),
            Channel(DE, (TimedWord(500, "Ich"), TimedWord(800, "bin"), TimedWord(1100, "froh."))),
        ),
    )


def _plan_corpora(seed: int) -> list[Utterance]:
    """One seed's slice of the property corpus: 1 to 4 channels per plan."""
    plans = [
        (ASR,),
        (ASR, ES),
        (ASR, ES, DE),
        (ASR, ES, DE, FR),
    ]
    out: list[Utterance] = []
    for k, plan in enumerate(plans):
        cfg = SynthConfig(
            seed=seed * 10 + k,
            num_utterances=850,
            words_per_channel=(0, 50),
            word_rate_ms=(80, 400),
            translation_lag_ms=(0, 700),
            reorder_window_ms=250,
            channels=plan,
            vocab_size=400,
        )
        out.extend(synth_corpus(cfg))
    return out


@pytest.fixture(scope="session")
def property_corpus() -> list[Utterance]:
    """>= 10,000 synthetic utterances over 3 seeds and 1-4 channel plans."""
    corpus: list[Utterance] = []
    for seed in (11, 22, 33):
        corpus.extend(_plan_corpora(seed))
    assert len(corpus) >= 10_000
    return corpus


@pytest.fixture(scope="session")
def two_channel_corpus() -> list[Utterance]:
    """200+ transcription+translation pairs for the count-balance policy."""
    cfg = SynthConfig(
        seed=77,
        num_utterances=220,
        words_per_channel=(0, 40),
        word_rate_ms=(100, 400),
        translation_lag_ms=(0, 600),
        reorder_window_ms=200,
        channels=(ASR, ES),
        vocab_size=300,
    )
    return list(synth_corpus(cfg))


def pytest_configure(config) -> None:
    # A file left open fails its test.  Not in pyproject.toml, which would
    # also apply it to the benchmark's tests.
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_terminal_summary(terminalreporter) -> None:
    if acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.write_line(line)
