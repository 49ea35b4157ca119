import os
from pathlib import Path

import pytest
from hypothesis import settings

import pins
from hecke_atlas.verify import standard_inventory

# ``--hypothesis-profile=ci``: the parameter-file and record-writer fuzz tests of tests/test_cli.py
# take max(150, max_examples) examples, so this runs them at five times their
# local count; the signed-permutation and mirrored-product property tests of
# tests/test_weyl.py, the drawn-inventory enumerator and pruned-walk tests
# of tests/test_corpora.py, the drawn-parameter Jordan data test of
# tests/test_centralizer.py and the monomial kernel test of tests/test_weil.py
# take the default 100 locally, so this runs them at 7.5 times that
settings.register_profile("ci", max_examples=750)


@pytest.fixture(scope="session")
def six_class_inventory():
    """The six classes of ``standard_inventory``, hitting every duality-type combination."""
    return standard_inventory()


@pytest.fixture(scope="session")
def extended_inventory():
    """The six classes plus a ramified quadratic character ``chi``."""
    return pins.extended_inventory()


@pytest.fixture(scope="session")
def src_env():
    """The environment of a subprocess that imports the package from this
    checkout, with ``overrides`` set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return lambda **overrides: dict(os.environ, PYTHONPATH=path, **overrides)
