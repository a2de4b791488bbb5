import importlib

import mubench

# Return types callers get back from the API, importable from their modules only.
RETURN_TYPES = {
    "AuditReport": "mubench.mia",
    "MetricsReport": "mubench.report",
    "Model": "mubench.engine",
    "RequestRow": "mubench.report",
    "ShadowModel": "mubench.mia",
    "ThresholdResult": "mubench.costs",
    "UnlearnOutcome": "mubench.engine",
}


def test_public_names():
    """``__all__`` is sorted, has 34 distinct names, each an attribute of the
    package, and leaves the return types to their own modules."""
    names = mubench.__all__
    assert names == sorted(set(names)) and len(names) == 34
    assert all(hasattr(mubench, name) for name in names)
    for name, module in RETURN_TYPES.items():
        assert name not in names and not hasattr(mubench, name)
        assert isinstance(getattr(importlib.import_module(module), name), type)
