import signal

import pytest


@pytest.fixture
def deadline():
    """Fail a test that is still running after 60 seconds rather than let
    it block the suite: a lost worker process must raise, not hang."""
    def expire(signum, frame):
        raise TimeoutError("still blocked after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
