"""The package's export list: every name resolves, once, and a star import
binds exactly those names."""

import nearreg


def test_every_exported_name_resolves():
    missing = [name for name in nearreg.__all__
               if not hasattr(nearreg, name)]
    assert not missing, f"__all__ names what nearreg lacks: {missing}"


def test_export_list_has_no_duplicates():
    assert len(nearreg.__all__) == len(set(nearreg.__all__))


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from nearreg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(nearreg.__all__)
