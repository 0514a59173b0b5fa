"""The per-tree summary of ``tools/proc_stats.py``."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "proc_stats.py"
_SPEC = importlib.util.spec_from_file_location("proc_stats", _PATH)
proc_stats = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(proc_stats)


def test_summary_gives_each_tree_its_median_and_quartiles():
    runs = []
    for i in range(5):
        # the trees alternate, as the runs do
        runs.append({"tree": "b", "vm_hwm_mib": 30.0 + i,
                     "minor_faults": 600 + 10 * i, "main_s": 0.125 * (i + 1)})
        runs.append({"tree": "a", "vm_hwm_mib": 40.0 - i,
                     "minor_faults": 2500, "main_s": 0.2})
    summary = proc_stats.summarize(runs)
    assert list(summary) == ["b", "a"]
    assert summary["b"]["vm_hwm_mib"] == (32.0, 31.0, 33.0)
    assert summary["b"]["minor_faults"] == (620, 610, 630)
    assert summary["b"]["main_s"] == (0.375, 0.25, 0.5)
    assert summary["a"]["vm_hwm_mib"] == (38.0, 37.0, 39.0)
    assert summary["a"]["minor_faults"] == (2500, 2500, 2500)
    assert set(summary["a"]) == set(proc_stats.METRICS)
