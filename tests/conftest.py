import pytest

from dimwitness import sphere


@pytest.fixture(autouse=True)
def _no_kept_base_nets():
    """Each test starts with no kept base results, greedy nets and n = 3
    geodesic bases with their adversaries alike: a result kept under one
    test's monkeypatched constants would otherwise be served to the next."""
    sphere._BASE_NETS.clear()
