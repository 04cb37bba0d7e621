import pathlib
import tracemalloc

import pytest

from ulmkit.textpipe import SPECIALS, Vocabulary

ROOT = pathlib.Path(__file__).resolve().parent.parent

# acceptance-criterion verdicts, echoed after the run (capture hides prints)
VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def traced_peak(run) -> int:
    """The most bytes that ``run()`` holds at once, as tracemalloc counts
    them; numpy reports its arrays' buffers to it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def vocab_of(size: int) -> Vocabulary:
    """A vocabulary of ``size`` tokens: the specials, then made-up words."""
    return Vocabulary(list(SPECIALS) + [f"w{i}" for i in range(size - len(SPECIALS))])


FIXTURES = ROOT / "fixtures"
DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def corpus_path():
    return FIXTURES / "corpus.txt"


@pytest.fixture(scope="session")
def labeled_path():
    return FIXTURES / "labeled.csv"


@pytest.fixture(scope="session")
def preprocess_cases_path():
    return DATA / "preprocess_cases.json"
