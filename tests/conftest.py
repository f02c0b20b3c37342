"""Session setup shared by the tier-1 suite."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _private_cache_dir(tmp_path_factory):
    """Point every on-disk store at a fresh directory for this session.

    Otherwise the suite reads and writes the user's ``~/.cache/repro``:
    a warm cache skips the training code under test, and after a change
    to that code it serves blobs the old code wrote under the same key.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR",
                  str(tmp_path_factory.mktemp("repro-cache")))
        yield
