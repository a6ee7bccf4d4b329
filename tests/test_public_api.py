"""Public-API surface checks: exports exist, are documented, and coherent."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = (
    "repro.model",
    "repro.program",
    "repro.cacheanalysis",
    "repro.crpd",
    "repro.persistence",
    "repro.businterference",
    "repro.analysis",
    "repro.generation",
    "repro.sim",
    "repro.data",
    "repro.experiments",
    "repro.serialization",
    "repro.errors",
)


class TestImportSurface:
    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_import(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_cancellation_or_ladder_surface(self):
        import importlib.util

        import repro.analysis
        from repro import errors
        from repro.analysis import wcrt

        for name in ("CancelToken", "Cancelled"):
            assert name not in repro.__all__, name
            assert not hasattr(errors, name), name
        for name in ("AnalysisLadder", "LadderTier", "LadderResult", "run_ladder"):
            assert name not in repro.analysis.__all__, name
        assert importlib.util.find_spec("repro.analysis.ladder") is None
        # The brownout's bound lives with the analysis it bounds.
        assert repro.analysis.coarse_bound is wcrt.coarse_bound

    @pytest.mark.parametrize("module_name", SUBPACKAGES[:-2])
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        if hasattr(module, "__all__"):
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"


class TestDocumentation:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        for name in exported:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"

    def test_error_hierarchy_rooted(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
                and obj.__module__ == "repro.errors"
            ):
                assert issubclass(obj, errors.ReproError), name


class TestConsistency:
    def test_paper_configs_are_frozen_defaults(self):
        from repro import BASELINE, PERSISTENCE_AWARE

        assert PERSISTENCE_AWARE.persistence is True
        assert BASELINE.persistence is False
        # The paper's approach selections.
        assert PERSISTENCE_AWARE.crpd_approach.value == "ecb-union"
        assert PERSISTENCE_AWARE.cpro_approach.value == "cpro-union"

    def test_enums_have_distinct_values(self):
        from repro.crpd.approaches import CrpdApproach
        from repro.model.platform import BusPolicy
        from repro.persistence.cpro import CproApproach

        for enum_type in (CrpdApproach, CproApproach, BusPolicy):
            values = [member.value for member in enum_type]
            assert len(set(values)) == len(values)
