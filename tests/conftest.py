import pytest

from dimwitness import sphere


@pytest.fixture(autouse=True)
def _no_kept_base_nets():
    """Each test starts with no kept base nets: a net kept under one test's
    monkeypatched build constants would otherwise be served to the next."""
    sphere._BASE_NETS.clear()
