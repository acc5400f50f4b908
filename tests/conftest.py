"""Shared fixtures: every test session gets its own empty Kostka disk cache."""

import pytest

from cherpoi._cache import ENV_VAR


@pytest.fixture(scope="session", autouse=True)
def isolated_kostka_cache(tmp_path_factory):
    # without this, Kostka tests would read whatever matrices an earlier run
    # left in ~/.cache/cherpoi instead of exercising the build
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_VAR, str(tmp_path_factory.mktemp("cherpoi-cache")))
        yield
