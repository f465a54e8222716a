"""The package's public names."""

import mhdrecon


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mhdrecon import *", namespace)
    missing = [name for name in mhdrecon.__all__ if name not in namespace]
    assert not missing
