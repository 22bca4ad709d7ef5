import importlib

import kacrice


def test_every_exported_name_imports():
    module = importlib.reload(kacrice)
    assert module.__all__
    for name in module.__all__:
        assert getattr(module, name) is not None, name
