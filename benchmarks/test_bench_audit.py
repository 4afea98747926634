"""Benchmark: full-repo audit, cold and serial.

Times one ``audit_paths`` run over ``src/`` and ``benchmarks/`` — the
audit CI runs — and records it into ``BENCH_audit.json`` (via the
conftest session hook).
"""

from repro.audit import audit_paths
from repro.audit.engine import collect_files

PATHS = ["src", "benchmarks"]


def test_bench_audit_cold(benchmark):
    findings = benchmark.pedantic(
        lambda: audit_paths(PATHS), rounds=1, iterations=1
    )
    benchmark.extra_info["audit_mode"] = "cold"
    benchmark.extra_info["files"] = len(collect_files(PATHS))
    benchmark.extra_info["findings"] = len(findings)
