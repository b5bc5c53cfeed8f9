"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` declares the same names (a test keeps the two equal).
End-to-end metrics are printed by ``--trace 0`` runs, per-layer metrics by
``--trace 1`` runs.  ``REPORT_ONLY`` metrics are printed in the report
line of every run but not declared: failures and wrong verdicts read 0
whenever the program is correct, and a declared metric must never be 0;
wall-clock throughput and latency of the service workloads swung by up to
2x between consecutive runs on a shared 2-vCPU host (the hypervisor's busy
spells slow every cross-process hop), beyond any bound a gate may use.
CPU time per verdict, to which stolen time is not charged, moved far less
on those workloads and stands in for them (perfbench/README.md has the
measured spreads).
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_verdict": "ms",
    "peak_rss_mb": "MB",
}

REPORT_ONLY = {
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "latency_p99_ms": "ms",
    "failed_frac": "ratio",
    "wrong_verdicts": "count",
}

ENGINES = ("forward", "backward", "replus", "replus-witnesses", "delrelab")

PER_LAYER = {
    "bench.sender_lag_p99_ms": "ms",
    "client.overhead_p50_ms": "ms",
    "server.elapsed_p50_ms": "ms",
    "pool.dispatch_p50_ms": "ms",
    "server.pin_p50_ms": "ms",
    "pool.retries": "count",
    "pool.respawns": "count",
    "session.compile_ms": "ms",
    "session.registry_evictions": "count",
    "table_cache.hit_frac": "ratio",
    "cache.side_files": "count",
    "cache.side_bytes": "bytes",
    **{f"router.choice_frac.{name}": "ratio" for name in ENGINES},
    "router.measured_over_predicted_p50": "ratio",
    **{f"engine.{name}_ms": "ms" for name in ENGINES},
    **{f"engine.{name}_share": "ratio" for name in ENGINES},
    "analysis_ms": "ms",
    "kernel.product_nodes": "count/verdict",
    "kernel.node_expansions": "count/verdict",
    "updates.incremental_frac": "ratio",
    "updates.cell_reuse_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "layers.coverage_frac": "ratio",
}
