import onebitnet


def test_star_import_and_all_resolve():
    namespace = {}
    exec("from onebitnet import *", namespace)
    missing = [name for name in onebitnet.__all__ if name not in namespace]
    assert not missing
    for name in onebitnet.__all__:
        assert getattr(onebitnet, name) is namespace[name]

