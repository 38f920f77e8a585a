import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import pytest

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "scythe" / "data"

# one line per acceptance criterion, printed after the test summary
ACCEPTANCE_LINES = []


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def digit_limit():
    """Pin the int-string digit limit to CPython's default, 4300, for one test.

    The limit bounds rational exponents; an environment that disables it
    (PYTHONINTMAXSTRDIGITS=0) would otherwise let 1e999999999 build.
    """
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
