import qbmotion


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from qbmotion import *", namespace)
    for name in qbmotion.__all__:
        assert namespace[name] is getattr(qbmotion, name)
