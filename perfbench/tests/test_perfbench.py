"""The benchmark's own tests: ``python -m pytest perfbench/tests -q`` from
the repository root.  The smoke test runs every workload for one second
in both modes, so the module takes about a minute."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from perfbench import inputs, metrics, spans
from perfbench.server import BenchError, refuse_if_live

ROOT = Path(__file__).resolve().parents[2]
SMOKE_SEED = 424242


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def test_catalogue_matches_benchmark_json():
    end_to_end, per_layer, workloads = _declared()
    assert end_to_end == metrics.END_TO_END
    assert per_layer == metrics.PER_LAYER
    assert workloads == ["serve_small", "frontier_mix", "edit_chain"]


def _run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:] + done.stdout[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["serve_small", "frontier_mix", "edit_chain"])
def test_smoke_emits_every_declared_metric(workload, trace):
    end_to_end, per_layer, _ = _declared()
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = per_layer if trace else end_to_end
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        {"id": 1, "parent": None, "trace": 1, "name": "request", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "trace": 1, "name": "a", "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "trace": 1, "name": "b", "start": 2.0, "end": 5.0},
        {"id": 4, "parent": 1, "trace": 1, "name": "c", "start": 8.0, "end": 12.0},
    ]
    own = spans.self_times(recorded)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 4.0}
    assert spans.coverage(recorded, "request") == pytest.approx(0.6)


@pytest.mark.parametrize("workload", ["serve_small", "edit_chain"])
def test_traced_self_times_fit_inside_each_request(workload):
    _run(workload, 1)
    path = ROOT / ".perfbench" / f"spans-{workload}-{SMOKE_SEED}.jsonl"
    recorded = [json.loads(line) for line in path.read_text().splitlines()]
    own = spans.self_times(recorded)
    assert all(value >= -1e-9 for value in own.values())
    by_trace = {}
    for span in recorded:
        by_trace.setdefault(span["trace"], []).append(span)
    requests = [span for span in recorded if span["name"] == "request"]
    assert requests
    for request in requests:
        wall = request["end"] - request["start"]
        members = by_trace[request["trace"]]
        assert sum(own[span["id"]] for span in members) <= wall + 1e-6
        for span in members:
            assert request["start"] - 1e-9 <= span["start"] <= span["end"] <= request["end"] + 1e-9


def test_one_seed_gives_one_request_sequence():
    def serve(seed):
        pairs, pools = inputs.serve_pairs(seed)
        requests = list(islice(inputs.serve_requests(seed, pools), 400))
        return [p.din_text + p.dout_text for p in pairs], requests, inputs.poisson_schedule(
            seed, 90.0, 3.0
        )

    def frontier(seed):
        cells, _, _ = inputs.frontier_cells(seed)
        orders = list(islice(inputs.frontier_rounds(seed, cells), 3))
        return [(c.label, c.pair_key, str(sorted(c.transducer.rules.items()))) for c in cells], orders

    def edits(seed):
        chains = [(p.din_text, texts) for p, texts in islice(inputs.random_chains(seed), 2)]
        return list(islice(inputs.arm_steps(seed), 200)), chains

    for make in (serve, frontier, edits):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_edit_arm_texts_and_verdicts_follow_the_construction():
    import repro
    from repro.service.protocol import transducer_to_text
    from repro.transducers.transducer import TreeTransducer
    from repro.workloads.updates import edit_arm_transducer

    from perfbench.check import load_transducer

    din, dout = inputs.arm_pair()
    session = repro.compile(din, dout)
    seen = set()
    for extras, expected in islice(inputs.arm_steps(3), 12):
        assert extras not in seen
        seen.add(extras)
        base = edit_arm_transducer(inputs.ARMS)
        rules = dict(base.rules)
        for arm, extra in enumerate(extras):
            rules[(f"r{arm}", "c")] = inputs.arm_rule(arm, extra)
        text = transducer_to_text(TreeTransducer(base.states, base.alphabet, base.initial, rules))
        assert inputs.arm_text(extras) == text
        assert session.typecheck(load_transducer(text), method="forward").typechecks == expected


def test_a_live_server_group_blocks_the_next_run(tmp_path):
    (tmp_path / "server-1-0.pid").write_text(f"{os.getpgid(0)}\n")
    with pytest.raises(BenchError):
        refuse_if_live(tmp_path)
    stale = tmp_path / "server-1-0.pid"
    stale.write_text("999999999\n")
    refuse_if_live(tmp_path)
    assert not stale.exists()
