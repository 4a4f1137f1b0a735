"""The lazy package facades resolve every public name as before.

``repro``, ``repro.core``, ``repro.array`` and ``repro.cachedb`` import
their public names on first access (PEP 562) from a ``name -> module``
table.  These tests pin that the laziness is invisible: each name is
the very object its defining module holds, ``dir()`` and star-imports
see all of them, unknown names fail like a plain module's, and a solve
through the top-level facade still reproduces the golden numbers.
"""

import importlib
import json
from pathlib import Path

import pytest

from repro.core.solvecache import metrics_to_dict

PACKAGES = ("repro", "repro.core", "repro.array", "repro.cachedb")

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "golden_triad.json")
    .read_text()
)


def public_names(package):
    return [name for name in package.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    assert set(package._EXPORTS) == set(public_names(package))
    for attr, module_name in package._EXPORTS.items():
        value = getattr(package, attr)
        assert value is getattr(importlib.import_module(module_name), attr)
        if isinstance(value, type) or callable(value):
            # The table names where the object is defined, not a
            # module that merely re-exports it.
            assert value.__module__ == module_name, attr


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_public_name(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no"):
        package.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_public_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for attr in package.__all__:
        assert namespace[attr] is getattr(package, attr)


def test_version_is_eager():
    import repro

    assert "__version__" in vars(repro)


def test_top_level_solve_matches_golden():
    import repro

    record = next(r for r in GOLDEN["solves"] if r["id"] == "sram-2m")
    assert record["target"] == "balanced"
    solution = repro.solve(repro.MemorySpec(**record["spec"]))
    for array in ("data", "tag"):
        # One JSON round trip: the normalization the golden file had.
        solved = metrics_to_dict(getattr(solution, array))
        assert json.loads(json.dumps(solved)) == record[array]
