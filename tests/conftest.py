"""Every test starts from cold memos, whatever ran before it."""

import sys

import pytest


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty every ``cache_clear`` memo of the loaded ``tametransfer`` modules, as a fresh process
    would have them; perfbench's ``reset_caches`` clears by the same rule."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "tametransfer" or name.startswith("tametransfer.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
