"""The package root's public names are its modules' own `__all__` lists."""

import padicglue
from padicglue import algebra, dynamics, errors, field, geometry, gluing

MODULES = (field, algebra, geometry, gluing, dynamics, errors)


def test_root_all_concatenates_the_module_lists():
    assert padicglue.__all__ == [name for m in MODULES for name in m.__all__]


def test_root_all_has_no_duplicate():
    assert len(set(padicglue.__all__)) == len(padicglue.__all__)


def test_each_root_name_is_its_module_binding():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(padicglue, name) is getattr(m, name), (m.__name__, name)
