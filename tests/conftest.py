import pytest

from rfree import build_sieve, factor_sieve


@pytest.fixture(scope="session")
def table_1e4():
    return build_sieve(10_000, {2, 3})


@pytest.fixture(scope="session")
def table_1e5():
    return build_sieve(100_000, {2, 3, 4})


@pytest.fixture(scope="session")
def factors_1e5():
    return factor_sieve(100_000)


@pytest.fixture(scope="session")
def table_1e6():
    return build_sieve(1_000_000, {2, 3})
