import faulthandler
import signal
import sys
from pathlib import Path

import pytest

# Let the suite run from a source checkout even without an installed package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# No test may run longer than this. The slowest take about 2.5 s, so the
# bound only catches a test that hangs, such as a prover that loops.
TEST_TIME_BOUND_S = 120
# A hang inside native code never returns to the interpreter to raise the
# timeout; after this much more, every thread's stack is printed and the
# run ends.
_HARD_STOP_EXTRA_S = 30


def _over_time(signum, frame):
    raise TimeoutError(f"test ran longer than {TEST_TIME_BOUND_S} s")


@pytest.fixture(autouse=True)
def _time_bound():
    """Fail a test that runs past TEST_TIME_BOUND_S, with its stack (POSIX)."""
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_BOUND_S)
    faulthandler.dump_traceback_later(TEST_TIME_BOUND_S + _HARD_STOP_EXTRA_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one PASS/FAIL line per acceptance criterion after the run."""
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
