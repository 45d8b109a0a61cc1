"""The public package surface."""

import importlib

import pytest

import repro


SUBPACKAGES = [
    "repro.soc",
    "repro.kernel",
    "repro.governors",
    "repro.policies",
    "repro.core",
    "repro.workloads",
    "repro.metrics",
    "repro.analysis",
    "repro.experiments",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points(self):
        assert callable(repro.nexus5_spec)
        assert callable(repro.game_workload)
        platform = repro.Platform.from_spec(repro.nexus5_spec())
        assert repro.MobiCorePolicy.for_platform(platform).name == "mobicore"


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} needs a module docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_cli_importable(self):
        from repro.cli import build_parser, main

        parser = build_parser()
        assert parser.prog == "repro"
        assert callable(main)

    def test_cli_import_leaves_scipy_unloaded(self):
        """The CLI runs on a numpy-only install: scipy loads on demand."""
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(repro.__file__).resolve().parent.parent
        probe = "import sys, repro.cli; print('scipy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src)},
        )
        assert done.stdout.strip() == "False"


class TestDocumentation:
    def test_every_public_module_has_docstring(self):
        import pathlib

        root = pathlib.Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            if path.name == "__main__.py":
                continue
            text = path.read_text()
            assert text.lstrip().startswith(('"""', 'r"""')), (
                f"{path.relative_to(root)} is missing a module docstring"
            )
