"""Every test starts with cold plans, decode and encode: a plan built by an
earlier test would otherwise change what a later one counts (solves,
products, inversions).  A test that decodes one responsive set twice sees
its own warm plan the second time."""

import pytest

from csacode import csa, harness  # noqa: F401  (imports every module with plans)


@pytest.fixture(autouse=True)
def cold_plans():
    for plan in csa._PLANS:
        plan.cache_clear()
