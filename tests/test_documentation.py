"""Documentation and packaging quality gates.

The reproduction's contract includes doc comments on every public item;
these tests enforce it mechanically, so a new public function without a
docstring fails CI rather than slipping through review.
"""

import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def walk_public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


ALL_MODULES = walk_public_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_callables_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if not (method.__doc__ and method.__doc__.strip()):
                        undocumented.append(f"{name}.{method_name}")
        assert not undocumented, (
            f"{module.__name__} has undocumented public items: {undocumented}"
        )


class TestPackaging:
    def test_version_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "info", "example1"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "21 timing" in result.stdout

    def test_cli_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        for command in ("synthesize", "sweep", "paper", "validate",
                        "baseline", "stats", "dot", "info"):
            assert command in result.stdout

    def test_subpackage_all_exports_resolve(self):
        subpackages = [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        exporting = [module for module in subpackages if hasattr(module, "__all__")]
        assert {"repro.milp", "repro.obs", "repro.service"} <= {
            module.__name__ for module in exporting
        }
        for module in exporting:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


REPO_ROOT = Path(__file__).resolve().parent.parent
CITING_DOCS = [
    REPO_ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
] + sorted((REPO_ROOT / "docs").glob("*.md"))
#: A repo path cited in prose, e.g. ``tests/service/serve_smoke.py``.
CITED_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|tests|sosbench)/[\w./-]*)")
#: A bench cited by bare file name, e.g. ``bench_table_ii.py``.
CITED_BENCH = re.compile(r"(?<![\w/.-])(bench_\w+\.py)\b")
#: A module constant cited with its value, e.g. ``DENSE_KERNEL_MAX`` = 96.
CITED_CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]*)` = (-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)")


class TestCitedPaths:
    @pytest.mark.parametrize("doc", CITING_DOCS, ids=lambda p: p.name)
    def test_every_cited_file_exists(self, doc):
        text = doc.read_text()
        cited = [match.rstrip(".") for match in CITED_PATH.findall(text)]
        cited += [f"benchmarks/{name}" for name in CITED_BENCH.findall(text)]
        missing = sorted({path for path in cited if not (REPO_ROOT / path).exists()})
        assert not missing, f"{doc.name} cites missing files: {missing}"

    @pytest.mark.parametrize("doc", CITING_DOCS, ids=lambda p: p.name)
    def test_every_cited_constant_has_its_value(self, doc):
        """A knob the docs quote must exist in some module with that value,
        so deleting or retuning it cannot leave the docs stale."""
        defined = {}
        for module in ALL_MODULES:
            for name, value in vars(module).items():
                if name.isupper() and type(value) in (int, float):
                    defined.setdefault(name, set()).add(value)
        stale = sorted(
            f"{name} = {text}"
            for name, text in CITED_CONSTANT.findall(doc.read_text())
            if float(text) not in defined.get(name, set())
        )
        assert not stale, f"{doc.name} cites constants no module defines: {stale}"
