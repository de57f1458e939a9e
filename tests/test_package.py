"""The package surface: every exported name resolves."""

import importlib
import pkgutil

import flatklein


def test_every_exported_name_resolves():
    # bench/tracer.py wraps each exported function by `getattr`, so a stale
    # export would break every traced benchmark run
    modules = [flatklein] + [importlib.import_module(f"flatklein.{info.name}")
                             for info in pkgutil.iter_modules(flatklein.__path__)]
    with_lists = 0
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        with_lists += 1
        assert len(set(names)) == len(names), module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # the package, cut_polytope, stratification, planner and cli
    assert with_lists == 5
