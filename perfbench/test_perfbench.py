"""The benchmark's own tests, at tiny sizes.

Run with ``python -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.workloads import WORKLOADS as WORKLOAD_CLASSES

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = {"inproc-adaptive-1m": 3000, "served-1k": 16, "secure-10k": 200}


def run_bench(capsys, tmp_path, workload: str, trace: int) -> tuple[int, list[str], dict, str]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    code = bench.main(argv, sizes=TINY, results=tmp_path)
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), captured.err


def printed(lines: list[str], kind: str) -> dict[str, str]:
    """Metric name -> unit, from the human-readable ``metric``/``layer`` lines."""
    rows = (line.split() for line in lines if line.startswith(kind + " "))
    return {row[1]: row[3] for row in rows}


def flip_last_bit(value: float) -> float:
    (raw,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", raw ^ 1))[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload, capsys, tmp_path):
    code, lines, result, _err = run_bench(capsys, tmp_path, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert printed(lines, "metric") == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric(capsys, tmp_path):
    code, lines, result, _err = run_bench(capsys, tmp_path, "served-1k", trace=1)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    layer_lines = [line.split() for line in lines if line.startswith("layer ")]
    assert {row[1]: row[3] for row in layer_lines} == expected
    assert all(row[-1].startswith("n=") for row in layer_lines)
    directory = tmp_path / "trace-served-1k-seed3"
    spans = [json.loads(line) for line in (directory / "spans.jsonl").read_text().splitlines()]
    layers = {"bench.round", "federated.round", "shard.session", "serve.collect", "fleet.encode"}
    assert layers <= {span["name"] for span in spans}
    assert json.loads((directory / "chrome_trace.json").read_text())["traceEvents"]
    assert set(json.loads((directory / "layers.json").read_text())["per_layer"]) == set(expected)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_flipped_bit_fails_the_check(workload, capsys, tmp_path, monkeypatch):
    cls = WORKLOAD_CLASSES[workload]
    honest = cls.run_round

    def flipped(self, seed, **kwargs):
        rnd = honest(self, seed, **kwargs)
        rnd.estimate = dataclasses.replace(rnd.estimate, value=flip_last_bit(rnd.estimate.value))
        return rnd

    monkeypatch.setattr(cls, "run_round", flipped)
    code, _lines, result, err = run_bench(capsys, tmp_path, workload, trace=0)
    assert code == 1 and not result["correct"]
    assert "twin" in err
    if workload == "inproc-adaptive-1m":
        # Only the once-per-run chunked twin can see one ulp; the standard
        # error check passes the other rounds.
        assert result["failed"] >= 1
        assert result["metrics"]["checked_frac"]["value"] < 1.0
    else:
        assert result["failed"] == result["attempted"] >= 1
        assert result["metrics"]["checked_frac"]["value"] == 0.0


def test_tail_leaves_ten_rounds_beyond_it():
    from perfbench.stats import tail

    latencies = [float(i) for i in range(1, 41)]
    assert tail(latencies) == (30.0, 75.0)
    assert tail(latencies[:15]) == (8.0, 50.0)
