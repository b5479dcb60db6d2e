"""The benchmark's own correctness gate against the library: one operation
of each perfbench workload, built at a fixed seed, run and checked by the
workload's independent checks, as a benchmark run checks every operation."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 5


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def _check(plan, keys) -> dict:
    """The problems op.check reports for each operation whose key is in
    keys (every operation when keys is None), with the plan installed."""
    plan.install()
    try:
        return {op.key: op.check(op.summarise(op.run()))
                for op in plan.ops if keys is None or op.key in keys}
    finally:
        plan.uninstall()


def test_paper_example_operation_passes_its_checks(workloads):
    plan = workloads.WORKLOADS["paper-example"](SEED)
    assert _check(plan, None) == {"paper": []}


def test_galois_fit_operations_pass_their_checks(workloads):
    plan = workloads.WORKLOADS["galois-fit"](SEED)
    keys = {op.key for op in plan.ops[:2]}
    assert _check(plan, keys) == {key: [] for key in keys}


def test_wide_search_operations_pass_their_checks(workloads):
    plan = workloads.WORKLOADS["wide-search"](SEED)
    keys = {"readme", "planted 0"}
    assert _check(plan, keys) == {key: [] for key in keys}
