import time

import pytest
from oracles import h2_weight_survey, quotient_with_projection

from d2lie.algebra import build_chevalley_D, center
from d2lie.exterior import build_quotient_model


@pytest.fixture(scope="session")
def d3():
    return build_chevalley_D(3)


@pytest.fixture(scope="session")
def d4():
    return build_chevalley_D(4)


@pytest.fixture(scope="session")
def d5():
    return build_chevalley_D(5)


@pytest.fixture(scope="session")
def d6():
    return build_chevalley_D(6)


@pytest.fixture(scope="session")
def d7():
    return build_chevalley_D(7)


@pytest.fixture(scope="session")
def d8():
    return build_chevalley_D(8)


@pytest.fixture(scope="session")
def d5_quotient(d5):
    return quotient_with_projection(d5, center(d5))[0]


@pytest.fixture(scope="session")
def model3():
    return build_quotient_model(3)


@pytest.fixture(scope="session")
def model5():
    return build_quotient_model(5)


@pytest.fixture(scope="session")
def model7():
    return build_quotient_model(7)


@pytest.fixture(scope="session")
def model9():
    return build_quotient_model(9)


@pytest.fixture(scope="session")
def timed_survey():
    """Session cache of (survey, elapsed seconds) keyed on the algebra."""
    cache = {}

    def get(L):
        key = id(L)
        if key not in cache:
            t0 = time.time()
            cache[key] = (h2_weight_survey(L), time.time() - t0)
        return cache[key]

    return get
