"""The benchmark in perfbench/ wraps library functions by module and
attribute name.  Every name it looks up must resolve, so that renaming or
deleting one of them fails here rather than in a traced benchmark run."""

import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_target_resolves(tracing):
    for metric, (module, path) in tracing.TRACED.items():
        target = tracing.resolve(module, path)
        assert callable(target), metric
        assert tracing.lookup_sites(target), metric


def test_fit_capture_target_resolves(tracing):
    # the galois-fit workload wraps this function on every run
    target = tracing.resolve("cubicdescent.lines27", "minimal_cover_subgroup")
    assert callable(target)
    assert tracing.lookup_sites(target)


def test_point_count_prime_is_second_positional():
    # run.py reads p from the recorded arguments as `for _, p, *_ in args`
    from cubicdescent import frobenius

    for fn in (frobenius.count_points_cubic, frobenius.count_points_dp4):
        params = list(inspect.signature(fn).parameters.values())
        assert params[1].name == "p", fn.__name__
        assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
