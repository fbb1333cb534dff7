"""Self-test of the benchmark at tiny sizes (n_k = 65, short grids).

    python3 -m pytest -q perfbench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted, that a wrong
reference is reported as a failure, that tracing leaves the CSV bytes
unchanged, and that a child past the run's deadline counts as a timeout. Takes about a minute on 2 cores.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import check
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def scratch(request):
    """An empty directory under .bench_runs/, kept after the test for inspection."""
    path = run.RUNS / "selftest" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench_run(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_seed_zero_is_the_canonical_config():
    canonical = json.loads((ROOT / "configs" / "canonical.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS.values():
        cfg = workloads.make_config(workload, 0)
        for key in ("potential", "energy", "packet", "times", "snapshot_times", "n_k"):
            assert cfg[key] == canonical[key], (workload.name, key)


@pytest.mark.parametrize("seed", range(1, 40))
def test_seeds_change_only_physical_parameters(seed):
    for workload in workloads.WORKLOADS.values():
        base = workloads.make_config(workload, 0)
        cfg = workloads.make_config(workload, seed)
        assert cfg != base
        for key in ("energy", "times", "snapshot_times", "n_k", "workers"):
            assert cfg[key] == base[key]
        assert cfg["potential"]["a"] == base["potential"]["a"]
        assert cfg["potential"]["segments"][0][0] == base["potential"]["segments"][0][0]
        assert {k: v for k, v in cfg["packet"].items() if k != "k0"} == \
            {k: v for k, v in base["packet"].items() if k != "k0"}
        if "sweep" in cfg:
            assert cfg["sweep"]["num"] == base["sweep"]["num"]
        assert workloads.make_config(workload, seed) == cfg


def test_check_bounds_are_not_tighter_than_tolerances():
    sys.path.insert(0, str(ROOT / "src"))
    from tunnelsplit import tolerances

    for name in ("PACKET_IDENTITY", "QUADRATURE_ERROR", "ORACLE_L2", "CN_NORM_DRIFT", "UNITARITY"):
        assert getattr(check, name) >= getattr(tolerances, name), name


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = bench_run("--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[group]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_wrong_reference_is_reported_as_a_failure(scratch, monkeypatch):
    good = check.load_reference("clock-sweep", 0, tiny=True)
    assert good is not None, "record it with make_reference.py --tiny --seeds 0"
    wrong = json.loads(json.dumps(good))
    row = wrong["rows"]["0"]
    col = wrong["header"].index("tau_dwell_tr")
    row[col] *= 1.0 + 1e-6
    path = scratch / "clock-sweep" / "tiny-seed-0.json"
    path.parent.mkdir()
    path.write_text(json.dumps(wrong), encoding="utf-8")
    monkeypatch.setattr(check, "REFERENCE_DIR", scratch)

    record = run.run("clock-sweep", 0, seconds=0.0, trace=False, tiny=True)
    assert record["correct"] is False
    assert record["failed"] == record["attempted"] >= 1
    assert any("tau_dwell_tr" in p for p in record["problems"])


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_leaves_csv_bytes_unchanged(workload, scratch):
    spec = workloads.WORKLOADS[workload]
    config = run.write_config(scratch / "config.json",
                              workloads.make_config(spec, 0, tiny=True))
    deadline = time.monotonic() + 170.0
    plain = run.launch(scratch / "plain", config, spec.subcommand, deadline)
    traced = run.launch(scratch / "traced", config, spec.subcommand, deadline,
                        ["--trace", str(scratch / "spans.csv")])
    assert plain.failure() == [] and traced.failure() == []
    assert plain.csv_bytes() and plain.csv_bytes() == traced.csv_bytes()
    assert traced.result["summary"]["cli.run"]["calls"] == 1
    assert "summary" not in plain.result


def test_child_past_the_deadline_is_a_timeout(scratch):
    spec = workloads.WORKLOADS["clock-sweep"]
    config = run.write_config(scratch / "config.json",
                              workloads.make_config(spec, 0, tiny=True))
    c = run.launch(scratch / "late", config, spec.subcommand, time.monotonic())
    assert c.timed_out and c.code != 0
    assert "timed out" in c.failure()[0]


def test_children_get_one_blas_thread(scratch):
    spec = workloads.WORKLOADS["diagnostics"]
    config = run.write_config(scratch / "config.json",
                              workloads.make_config(spec, 0, tiny=True))
    probe = run.launch(scratch / "probe", config, spec.subcommand, time.monotonic() + 60.0,
                       ["--setup-only"])
    env = probe.result["environment"]
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"] in (1, None)


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text(encoding="utf-8"))
    mapped = [m for entry in layer_map["map"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for entry in layer_map["map"]:
        assert set(entry["moves"]) <= e2e
        assert set(entry["workloads"]) <= set(NAMES)
