"""Each benchmark workload sets up, runs and passes its own check on this package.

``bench/run.py`` reports a run whose operations fail, or whose outputs
fail the workload's ``check``, as failed.  This test runs the same
``setup``, ``op`` and ``check`` of every workload in ``bench/workloads.py``
(loaded by path, as ``tests/test_traced_names.py`` loads ``spans.py``), so
a change to what the workloads call fails tier-1 instead.  ``train`` runs
two operations, so that its rerun-identity check compares them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import detectbert
from detectbert import attention, baselines, cli, data, model, numerics, training  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    # workloads.py imports its sibling modules spans and stats by name, and
    # its dataclass needs the module registered
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name, ops", [("train", 2), ("infer-large", 1), ("score-corpus", 1)])
def test_workload_operations_pass_their_check(tmp_path, name, ops):
    workload = workloads.WORKLOADS[name](detectbert, seed=1, work=tmp_path / "ops")
    workload.setup(tmp_path / "inputs")
    for _ in range(ops):
        workload.op()
    workload.check()
    assert workload.ops == ops
    assert workload.failures == {}
