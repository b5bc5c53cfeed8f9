"""The gated bench harness (``benchmarks/bench_kernel.py``): its family
table, in-place merging of the BENCH_*.json files and its exit codes."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernel.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernel", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def no_kernel_gate(bench, monkeypatch):
    # The plumbing tests must not depend on this host's timings.
    monkeypatch.setattr(bench, "SMOKE_MIN_SPEEDUP", 0.0)


def _rows(path: Path):
    return json.loads(path.read_text())["benchmarks"]


def test_only_writes_the_selected_family(bench, tmp_path, no_kernel_gate):
    assert bench.main(["--smoke", "--only", "dfa", "--out-dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_kernel.json"]
    data = json.loads((tmp_path / "BENCH_kernel.json").read_text())
    assert data["mode"] == "smoke"
    assert set(data["host"]) == {"cpu_count", "cpu_model", "python", "platform"}
    assert {row["group"] for row in data["benchmarks"]} == {"dfa"}


def test_partial_runs_merge_in_place(bench, tmp_path, no_kernel_gate):
    out = ["--out-dir", str(tmp_path)]
    assert bench.main(["--smoke", "--only", "dfa", *out]) == 0
    dfa_rows = _rows(tmp_path / "BENCH_kernel.json")
    assert bench.main(["--smoke", "--only", "nta", *out]) == 0
    merged = _rows(tmp_path / "BENCH_kernel.json")
    assert [row for row in merged if row["group"] == "dfa"] == dfa_rows
    assert {row["group"] for row in merged} == {"dfa", "nta"}


def test_unknown_family_is_a_usage_error(bench, tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--smoke", "--only", "dfa,nope", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_failing_gate_exits_1(bench, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SMOKE_MIN_SPEEDUP", 1e9)
    assert bench.main(["--smoke", "--only", "nta", "--out-dir", str(tmp_path)]) == 1
    assert "SMOKE FAILURE" in capsys.readouterr().err
    assert (tmp_path / "BENCH_kernel.json").exists()


def test_every_output_and_row_group_is_declared(bench):
    assert {family.output for family in bench.FAMILIES.values()} == set(bench.SUMMARIES)
    for name, family in bench.FAMILIES.items():
        rows = []
        family.smoke(rows, repeat=1)
        assert rows, name
        assert {row["group"] for row in rows} <= set(bench.LINES), name
        # Every smoke gate runs on its family's smoke rows.
        assert isinstance(family.gate(rows), list), name
