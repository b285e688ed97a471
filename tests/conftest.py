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


# strongly pseudoconvex, with Levi eigenvalues down to 1e-8: the metrics on
# which check's relative residuals are largest, and |Q| reaches 1e8 on nd3
NEAR_DEGENERATE = {
    "nd1": "abs2(v1) + 1e-6*abs2(v2) + abs2(z1)*abs2(v2)/2",
    "nd2": "abs2(v1) + 1e-8*abs2(v2)*(1 + abs2(z1))",
    "nd3": "sqrt(abs2(v1)^2 + 1e-8*abs2(v2)^2) + 1e-6*abs2(z1)*abs2(v2)",
}


@pytest.fixture(scope="session")
def near_degenerate(tmp_path_factory):
    """The NEAR_DEGENERATE metrics of dimension 2 as metric files: their
    paths, by name."""
    root = tmp_path_factory.mktemp("near_degenerate")
    paths = {}
    for name, f2 in NEAR_DEGENERATE.items():
        path = root / f"{name}.fmetric"
        path.write_text(f"dim = 2\nF2 = {f2}\n", encoding="utf-8")
        paths[name] = str(path)
    return paths
