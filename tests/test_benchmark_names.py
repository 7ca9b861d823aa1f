"""The covlab names that the benchmark in ``perfbench/`` reaches.

The benchmark traces covlab by wrapping names in its modules, and checks
brackets through the package's exports.  A change that deletes or renames
one of them fails here, not only when the benchmark runs.
"""

import pathlib

import covlab

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    missing = []
    for hook in layers.HOOKS:
        try:
            spans.resolve(hook.target)
        except spans.HookMissing:
            missing.append(hook.target)
    assert missing == []


def test_package_exports_the_check_uses():
    # perfbench/check.py builds its independent bracket from these
    for name in ("ManifoldSpec", "uniform_sample", "build_grid", "REGION_ALL",
                 "Family"):
        assert hasattr(covlab, name), name
