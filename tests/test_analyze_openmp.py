"""Dynamic cross-check over the fork-join (OpenMP-model) applications."""

import pytest

from repro.analyze.openmp import (
    OMP_APPS,
    analyze_openmp,
    check_openmp,
    omp_app_names,
    run_openmp_dynamic,
    OpenMPDynamicResult,
)
from repro.errors import ReproError


class TestRegistry:
    def test_names(self):
        assert omp_app_names() == ["omp-dgemm", "omp-lk23", "omp-video"]
        assert set(OMP_APPS) == set(omp_app_names())

    def test_unknown_app_raises(self):
        with pytest.raises(ReproError, match="unknown OpenMP app"):
            run_openmp_dynamic("omp-nosuch")


class TestMonitoredRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_openmp_dynamic("omp-lk23", sanitize=True)

    def test_completes_and_records_core(self, result):
        assert result.completed
        assert result.error == ""
        assert result.core in ("batched", "object")

    def test_regions_fork_join_in_order(self, result):
        assert result.forked  # at least one parallel_for fired the hook
        assert result.forked == result.joined
        assert result.forked == sorted(result.forked)

    def test_binding_and_migrations(self, result):
        assert result.binding == "close"
        assert result.migrations == 0

    def test_sanitizer_rode_along(self, result):
        assert result.sanitizer_checks > 0
        assert result.sanitizer_violations == []


class TestCheckFindings:
    def test_clean_run_notes(self):
        result = run_openmp_dynamic("omp-dgemm")
        findings = check_openmp(result)
        codes = {f.code for f in findings}
        assert "omp-regions-balanced" in codes
        assert "migrations-zero-confirmed" in codes
        assert not [f for f in findings if f.severity == "error"]
        assert all(f.source == "dynamic" for f in findings)

    def test_unbalanced_regions_error(self):
        result = OpenMPDynamicResult(
            name="synthetic", completed=True, forked=[0, 1], joined=[0],
            n_threads=4,
        )
        codes = {f.code for f in check_openmp(result)}
        assert "omp-region-unbalanced" in codes

    def test_failed_run_error(self):
        result = OpenMPDynamicResult(name="synthetic", error="boom")
        codes = {f.code for f in check_openmp(result)}
        assert "omp-run-failed" in codes

    def test_sanitizer_violation_error(self):
        result = OpenMPDynamicResult(
            name="synthetic", completed=True,
            sanitizer_checks=3, sanitizer_violations=["bad clock"],
        )
        findings = check_openmp(result)
        codes = {f.code for f in findings}
        assert "sanitizer-violation" in codes
        assert "sanitizer-clean" not in codes


class TestAnalysisPackaging:
    def test_analyze_openmp_records_dynamic_core(self):
        a = analyze_openmp("omp-lk23")
        assert a.name == "omp-lk23"
        assert a.dynamic_core in ("batched", "object")
        assert a.static.findings == []
        assert a.exit_code() == 0
