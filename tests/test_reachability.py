"""The reachability listing of `tools/reachability.py`, on a small package.

The tool profiles the user paths and lists every function of a source
tree that the profile never saw.  Here one path imports a four-function
package and calls two of its functions; the listing must name exactly
the function nothing called.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reachability.py"

PACKAGE = "reachability_probe_pkg"

MODULE = '''\
import functools


def wrap(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)

    return wrapper


def at_import():
    return 1


VALUE = at_import()


def called():
    return 2


def uncalled():
    return 3


@wrap
def decorated():
    return 4
'''


@pytest.fixture
def reachability():
    spec = importlib.util.spec_from_file_location("reachability_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class builds.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture
def package(tmp_path):
    root = tmp_path / PACKAGE
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "probe.py").write_text(MODULE, encoding="utf-8")
    sys.path.insert(0, str(tmp_path))
    try:
        yield root
    finally:
        sys.path.remove(str(tmp_path))
        for name in [name for name in sys.modules if name.startswith(PACKAGE)]:
            del sys.modules[name]


@pytest.fixture
def listed(reachability, package):
    def path():
        module = importlib.import_module(f"{PACKAGE}.probe")
        module.called()
        module.decorated()

    called = reachability.called_locations([path])
    return {item.qualname for item in reachability.unreached(package, called)}


class TestListing:
    def test_uncalled_function_is_listed(self, listed):
        assert "uncalled" in listed

    def test_called_function_is_not_listed(self, listed):
        assert "called" not in listed

    def test_called_decorated_function_is_not_listed(self, listed):
        assert "decorated" not in listed

    def test_function_called_only_at_import_is_not_listed(self, listed):
        assert "at_import" not in listed

    def test_nothing_else_is_listed(self, listed):
        assert listed == {"uncalled"}

    def test_render_totals_the_lines(self, reachability, package):
        found = reachability.unreached(package, set())
        text = reachability.render(found, package)
        lines = sum(item.lines for item in found)
        assert text.splitlines()[-1].startswith(f"total: {lines} lines in {len(found)} functions")
