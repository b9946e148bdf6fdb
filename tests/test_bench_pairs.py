"""tools/bench_pairs.py summary: medians, quartiles, wins, the gain and regression rules, raw figures."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DIRECTIONS = {"chain_mbit_s": ("Mbit/s", "higher", 0.2), "burst_ms_p50": ("ms", "lower", 0.25)}


def pairs(parent, change, name):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_quartiles_of_ten():
    q = bench_pairs.quartiles([float(v) for v in range(1, 11)])
    assert q == {"median": 5.5, "q1": 3.25, "q3": 7.75}


@pytest.mark.parametrize("name, parent, change", [
    ("chain_mbit_s", [10.0, 10.2, 10.4, 10.6] * 2 + [10.1, 10.3], [11.0] * 9 + [10.0]),
    ("burst_ms_p50", [12.0, 12.2, 12.4, 12.6] * 2 + [12.1, 12.3], [11.0] * 9 + [13.0]),
])
def test_gain_shown_on_nine_wins_and_a_gap_past_the_spread(name, parent, change):
    m = bench_pairs.summarise(pairs(parent, change, name), DIRECTIONS)[name]
    assert (m["wins"], m["losses"], m["pairs"]) == (9, 1, 10)
    assert m["median_gap"] > m["parent_iqr"] > 0
    assert m["gain_shown"]


def test_no_gain_on_eight_wins_or_a_small_gap():
    parent = [10.0, 10.2, 10.4, 10.6] * 2 + [10.1, 10.3]
    eight = bench_pairs.summarise(pairs(parent, [11.0] * 8 + [10.0] * 2, "chain_mbit_s"), DIRECTIONS)
    assert eight["chain_mbit_s"]["wins"] == 8 and not eight["chain_mbit_s"]["gain_shown"]
    small = bench_pairs.summarise(pairs(parent, [p + 0.01 for p in parent], "chain_mbit_s"), DIRECTIONS)
    assert small["chain_mbit_s"]["wins"] == 10 and not small["chain_mbit_s"]["gain_shown"]


@pytest.mark.parametrize("name, parent, worse, within", [
    # medians 10 and 12 with a 0.2 / 0.25 bound: the edges sit at 8 and 15
    ("chain_mbit_s", [9.9, 10.0, 10.1] * 3 + [10.0], 7.9, 8.1),
    ("burst_ms_p50", [11.9, 12.0, 12.1] * 3 + [12.0], 15.1, 14.9),
])
def test_regressed_past_the_bound(name, parent, worse, within):
    flagged = bench_pairs.summarise(pairs(parent, [worse] * 10, name), DIRECTIONS)[name]
    kept = bench_pairs.summarise(pairs(parent, [within] * 10, name), DIRECTIONS)[name]
    assert flagged["regressed"] and not kept["regressed"]
    assert not flagged["unresolved"] and not kept["unresolved"]
    assert flagged["bound"] == DIRECTIONS[name][2]


def test_unresolved_when_the_parent_spreads_past_the_bound():
    # a parent IQR of 3.0 around a median of 10 is wider than 0.2 * 10
    parent = [8.0, 8.5, 10.0, 11.5, 12.0] * 2
    overlap = bench_pairs.summarise(pairs(parent, [10.5] * 10, "chain_mbit_s"), DIRECTIONS)
    m = overlap["chain_mbit_s"]
    assert m["parent_iqr"] == 3.0 and m["unresolved"] and not m["regressed"]
    # unless every change run beats every parent run
    apart = bench_pairs.summarise(pairs(parent, [12.5] * 10, "chain_mbit_s"), DIRECTIONS)
    assert not apart["chain_mbit_s"]["unresolved"]
    # the rule reads the parent's spread alone
    tight = bench_pairs.summarise(pairs([10.0] * 10, parent, "chain_mbit_s"), DIRECTIONS)
    assert not tight["chain_mbit_s"]["unresolved"]


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarise(pairs([1.0] * 10, [1.0] * 10, "burst_ms_p50"), DIRECTIONS)
    m = summary["burst_ms_p50"]
    assert (m["wins"], m["losses"], m["gain_shown"]) == (0, 0, False)
    assert "chain_mbit_s" not in summary


@pytest.mark.parametrize("status, failed, passes", [(0, 0, True), (1, 0, False), (0, 2, False)])
def test_a_run_with_a_failed_check_or_burst_stops_the_tool(tmp_path, status, failed, passes):
    # a stand-in perfbench/run.py that prints a report and a result line
    report = {"report": {"decisions": {"digest": "d"}}}
    result = {"correct": status == 0, "attempted": 5, "failed": failed, "metrics": {}}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\nprint({json.dumps(report)!r})\nprint({json.dumps(result)!r})\nsys.exit({status})\n")
    if passes:
        assert bench_pairs.run_once(tmp_path, "w", 3, 1.0) == (report["report"], result)
    else:
        with pytest.raises(RuntimeError):
            bench_pairs.run_once(tmp_path, "w", 3, 1.0)


def test_source_digest_follows_the_source_alone(tmp_path):
    src = tmp_path / "src" / "burstrx"
    (src / "__pycache__").mkdir(parents=True)
    (src / "channel.py").write_bytes(b"A = 1\n")
    (src / "__init__.py").write_bytes(b"")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_bytes(b"pass\n")
    before = bench_pairs.source_digest(tmp_path)
    # a file outside src/, or a bytecode cache, leaves it
    (tmp_path / "perfbench" / "run.py").write_bytes(b"pass  \n")
    (src / "__pycache__" / "channel.cpython-311.pyc").write_bytes(b"\0")
    assert bench_pairs.source_digest(tmp_path) == before
    # one byte of the source moves it
    (src / "channel.py").write_bytes(b"A = 2\n")
    assert bench_pairs.source_digest(tmp_path) != before


def standin_checkout(path, rx, raw_rx, scale):
    """A checkout whose stand-in perfbench/run.py reports these figures on every run."""
    decisions = {"digest": "d", "bit_errors": 0, "bits_total": 96, "status_counts": {"ok": 1}}
    report = {"report": {"decisions": decisions, "meta": {"seed": 3}, "raw": {"rx_mbit_s": raw_rx},
                         "host_speed": {"kernel_ms": 0.4, "scale": scale}}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"rx_mbit_s": {"value": rx, "unit": "Mbit/s"}}}
    (path / "perfbench").mkdir(parents=True)
    (path / "src" / "burstrx").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        f"print({json.dumps(report)!r})\nprint({json.dumps(result)!r})\n")
    return path


def test_raw_figures_and_gauge_scale_kept_beside_the_scaled(tmp_path, monkeypatch, capsys):
    # the scaled rate moves while the raw one holds: the file and the
    # printed summary show both, and the gauge scale that parts them
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "rx_mbit_s", "unit": "Mbit/s", "better": "higher",
                            "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    parent = standin_checkout(tmp_path / "parent", 17.2, 23.1, 1.3)
    change = standin_checkout(tmp_path / "change", 15.7, 23.5, 1.5)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["w"]
    for run in w["runs"]:
        assert run["raw"] == {"parent": {"rx_mbit_s": 23.1}, "change": {"rx_mbit_s": 23.5}}
        assert run["gauge_scale"] == {"parent": 1.3, "change": 1.5}
    assert w["metrics"]["rx_mbit_s"]["losses"] == 2
    assert w["raw_metrics"]["rx_mbit_s"]["wins"] == 2
    assert w["raw_metrics"]["rx_mbit_s"]["change"]["median"] == 23.5
    printed = capsys.readouterr().out
    assert "raw 23.1 -> 23.5" in printed
    assert "gauge scale    parent 1.3  change 1.5" in printed
    # 17.2 -> 15.7 is 8.7% worse, inside the 20% bound
    assert "regressed False  unresolved False" in printed


def test_regression_flag_written_and_printed(tmp_path, monkeypatch, capsys):
    # stand-in runs 25% slower than the parent's, past a 20% bound
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "rx_mbit_s", "unit": "Mbit/s", "better": "higher",
                            "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    parent = standin_checkout(tmp_path / "parent", 20.0, 20.0, 1.0)
    change = standin_checkout(tmp_path / "change", 15.0, 15.0, 1.0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    m = json.loads(out.read_text())["workloads"]["w"]["metrics"]["rx_mbit_s"]
    assert (m["bound"], m["regressed"], m["unresolved"]) == (0.2, True, False)
    assert "regressed True  unresolved False" in capsys.readouterr().out
