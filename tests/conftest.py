"""Suite-wide fixtures."""

import faulthandler
import os
import sys

import pytest

# The slowest test takes a few seconds. One still running after this long
# is taken to hang (a search that loops, say): the run ends with every
# thread's traceback on stderr instead of waiting forever.
WATCHDOG_S = 120

# pytest captures stderr while a test runs, into a file that dies with the
# process, so the traceback goes to a copy of the real stderr taken while
# capture is off.
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def watchdog(request):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
