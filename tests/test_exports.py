import rspsim


def test_every_exported_name_resolves():
    """Each name in ``rspsim.__all__`` is an attribute, and ``import *`` binds exactly them."""
    assert len(set(rspsim.__all__)) == len(rspsim.__all__)
    missing = [name for name in rspsim.__all__ if not hasattr(rspsim, name)]
    assert missing == []
    namespace = {}
    exec("from rspsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(rspsim.__all__)
    assert all(namespace[name] is getattr(rspsim, name) for name in rspsim.__all__)
