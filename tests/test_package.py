"""The public namespace: every exported name resolves."""

from __future__ import annotations

import femlab


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from femlab import *", namespace)
    assert set(femlab.__all__) <= set(namespace)
