import pytest

from dimwitness import sphere, witness


@pytest.fixture(autouse=True)
def _no_kept_results():
    """Each test starts with no kept results: greedy base nets, n = 3
    geodesic bases, the n = 3 reports and the validation strategies.  A
    result kept under one test's monkeypatched constants would otherwise be
    served to the next."""
    sphere._BASE_NETS.clear()
    witness._EXACT_REPORTS.clear()
    witness._validation_strategy.cache_clear()
