"""The benchmark's workloads still run on the package and pass their checks.

``bench/workloads.py`` builds each workload's items from ``mulam`` and checks
each item's output, partly without trusting the engine.  A change to the
package that breaks what the benchmark imports, or the answers it checks,
fails here and not only in ``bench/selfcheck.py``.
"""

import importlib.util
import os
import sys

import pytest

import mulam

PKG_DIR = os.path.dirname(os.path.abspath(mulam.__file__))
WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(PKG_DIR)), "bench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_items_pass_their_checks(workload, seed):
    items = workloads.build_quick(workload, seed)
    assert items
    for item in items:
        assert item.check(item.run()), item.name
