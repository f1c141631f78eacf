"""Smoke tests for the top-level public API and the example scripts."""

import importlib
import pathlib
import py_compile

import pytest

import repro

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_key_classes_exported(self):
        assert repro.RotatedSurfaceCode is not None
        assert repro.MemoryExperiment is not None
        assert repro.EraserPolicy is not None
        assert repro.SurfaceCodeDecoder is not None

    @pytest.mark.parametrize(
        "module",
        [
            "repro.codes",
            "repro.noise",
            "repro.sim",
            "repro.core",
            "repro.core.policies",
            "repro.decoder",
            "repro.experiments",
            "repro.analysis",
            "repro.densitymatrix",
            "repro.dqlr",
            "repro.hardware",
            "repro.cli",
        ],
    )
    def test_subpackages_import(self, module):
        assert importlib.import_module(module) is not None

    def test_sim_exports_one_vectorised_engine(self):
        import repro.sim

        for name in repro.sim.__all__:
            assert hasattr(repro.sim, name), f"repro.sim.{name} missing"
        engines = [name for name in repro.sim.__all__ if name.endswith("FrameSimulator")]
        assert engines == ["LeakageFrameSimulator", "PackedLeakageFrameSimulator"]

    def test_nothing_imports_the_retired_engine_module(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        retired = "batched" + "_frame_simulator"
        importers = [
            str(path.relative_to(root))
            for folder in ("src", "tests")
            for path in (root / folder).rglob("*.py")
            if retired in path.read_text(encoding="utf-8")
        ]
        assert importers == []

    def test_make_policy_accessible_from_top_level(self):
        policy = repro.make_policy("eraser")
        assert policy.name == "eraser"

    def test_public_docstrings_present(self):
        for name in ("RotatedSurfaceCode", "MemoryExperiment", "EraserPolicy"):
            assert getattr(repro, name).__doc__


class TestExamples:
    def _example_files(self):
        return sorted(EXAMPLES_DIR.glob("*.py"))

    def test_at_least_three_examples_exist(self):
        assert len(self._example_files()) >= 3

    def test_quickstart_exists(self):
        assert (EXAMPLES_DIR / "quickstart.py").exists()

    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "policy_comparison.py",
            "leakage_characterization.py",
            "lpr_dynamics.py",
            "controller_hardware.py",
            "dqlr_study.py",
        ],
    )
    def test_examples_compile(self, name):
        path = EXAMPLES_DIR / name
        assert path.exists()
        py_compile.compile(str(path), doraise=True)

    def test_examples_define_main(self):
        for path in self._example_files():
            source = path.read_text(encoding="utf-8")
            assert "def main()" in source
            assert '__name__ == "__main__"' in source
            assert source.lstrip().startswith(("#!/usr/bin/env python3", '"""'))
