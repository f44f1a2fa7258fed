"""The package exports exactly its public top-level names."""
import types

import graphon_lqr as gl


def test_all_is_the_public_namespace():
    public = {name for name, value in vars(gl).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(gl.__all__)) == len(gl.__all__)
    assert set(gl.__all__) - {"__version__"} == public
