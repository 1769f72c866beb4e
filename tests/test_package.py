"""The package's public names are exactly what its modules declare."""

import types

import fixfunc
from fixfunc import fmo, function_space, iteration, operators, phantom


def test_package_exports_every_declared_name():
    declared = {name for mod in (function_space, operators, iteration, fmo, phantom) for name in mod.__all__}
    public = {
        name for name, value in vars(fixfunc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == declared
