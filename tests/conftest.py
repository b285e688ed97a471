import pytest

from finslerlab import MetricSource, parse_metric
from finslerlab.registry import catalog


@pytest.fixture(scope="session")
def entries():
    return {e.id: e for e in catalog()}


@pytest.fixture(scope="session")
def progs(entries):
    # compiled once per session; a program holds no cache, so tests share
    # only the parsed tape
    return {mid: e.program() for mid, e in entries.items()}


@pytest.fixture(scope="session")
def warped():
    # non-Hermitian with a base-dependent cubic form, which no catalog metric
    # has: the one metric here on which every term of the connection's
    # derivative counts
    return parse_metric(MetricSource(
        2, "sqrt(abs2(v1)^2 + abs2(v2)^2 + abs2(z1)*abs2(v1)*abs2(v2))"))


@pytest.fixture(scope="session")
def twisted():
    # non-Hermitian with base dependence: exercises every structure function
    return parse_metric(MetricSource(
        2, "sqrt(abs2(v1)^2 + abs2(v2)^2) + abs2(z1)*abs2(v2)/2"))
