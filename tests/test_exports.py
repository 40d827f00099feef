"""The package's export list is exactly the union of its modules' export lists."""
import importlib

import ringbf

_MODULES = ["kernel", "filter", "analysis", "calibrate", "ctmodel", "io_cli", "errors"]


def test_package_exports_every_module_export():
    union = set()
    for name in _MODULES:
        union |= set(importlib.import_module(f"ringbf.{name}").__all__)
    union.discard("main")  # io_cli.main is the console-script entry, not library API
    exported = set(ringbf.__all__) - {"__version__"}
    assert exported == union
    assert len(ringbf.__all__) == len(set(ringbf.__all__))


def test_every_export_resolves():
    for name in ringbf.__all__:
        assert hasattr(ringbf, name), name
    for name in _MODULES:
        module = importlib.import_module(f"ringbf.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"ringbf.{name}.{attr}"
