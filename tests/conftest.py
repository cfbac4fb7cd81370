"""Every test starts with cold decode plans: a plan built by an earlier test
would otherwise change what a later one counts (solves, products,
inversions).  A test that decodes one responsive set twice sees its own
warm plan the second time."""

import pytest

from csacode import csa, ep, gcsa


@pytest.fixture(autouse=True)
def cold_plans():
    for module in (csa, ep, gcsa):
        module._plan.cache_clear()
