#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs, summarised into a BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_35.json --seed 3

PARENT and CHANGE are two source checkouts.  For every workload of
``BENCHMARK.json``, each of 10 pairs runs ``perfbench/run.py --trace 0`` for
the file's ``run_seconds`` once in each checkout, one process at a time; even
pairs run the parent first, odd pairs the change, so a drift in host speed
falls on both sides alike.  Only the last two lines of a run's output are
read: the report (decision digest, bit errors, burst statuses, run metadata)
and the result (end-to-end metrics).  A run that fails a check or has a burst
whose receive raised stops the tool, and so do two runs of one checkout whose
decisions differ: every pair summarised had the same decisions on its side,
and each run entry records them.  Each run entry also records each side's
``raw`` figures, its times before the host-speed scaling, and the
``gauge_scale`` that scaled them (the report's ``host_speed.scale``).
``checkouts`` records each side's run metadata and the sha256 of its
``src/burstrx`` tree (:func:`source_digest`).

For every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles over the pairs and the change's wins (ties count
for neither side).  ``gain_shown`` is true when the change wins at least nine
tenths of the pairs and its median is better than the parent's by more than
the parent's interquartile range.  Two flags apply the benchmark's
no-regression rule with the metric's ``bound`` from ``BENCHMARK.json``:
``regressed`` is true when the change's median is worse than the parent's
by more than ``bound`` times the parent's median, and ``unresolved`` when
the parent's interquartile range is wider than ``bound`` times its median,
so the runs spread too widely to tell, unless every change run beats every
parent run.  ``raw_metrics`` summarises the raw
figures the same way, and the printed summary gives each raw median and the
median gauge scale next to the scaled medians, so a change in the scale
shows apart from a change in the program's time.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
WIN_SHARE = 0.9


def source_digest(checkout: Path) -> str:
    """sha256 of ``src/burstrx`` in ``checkout``: each file's relative path and bytes, sorted.

    Bytecode caches are left out, so running the checkout does not move it.
    It names the source each side ran where the checkout has no git metadata.
    """
    root = checkout / "src" / "burstrx"
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        h.update(len(rel).to_bytes(8, "little") + rel + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its report and its result.

    Raises unless the run passed its checks and no burst's receive raised.
    """
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or json.loads(lines[-1])["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{lines[-1] if lines else ''} {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list, directions: dict) -> dict:
    """Median, quartiles, wins and flags of each end-to-end metric over the pairs.

    ``directions`` maps each metric's name to its unit, the direction that
    is better and its bound, as ``BENCHMARK.json`` declares them.
    """
    out = {}
    for name, (unit, better, bound) in directions.items():
        if any(name not in run[side] for run in runs for side in SIDES):
            continue
        values = {side: [run[side][name] for run in runs] for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        gaps = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        median_gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
        limit = bound * abs(stats["parent"]["median"])
        apart = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
        wins = sum(g > 0 for g in gaps)
        out[name] = {
            "unit": unit,
            "better": better,
            **stats,
            "wins": wins,
            "losses": sum(g < 0 for g in gaps),
            "pairs": len(runs),
            "median_gap": median_gap,
            "parent_iqr": parent_iqr,
            "gain_shown": wins >= WIN_SHARE * len(runs) and median_gap > parent_iqr,
            "bound": bound,
            "regressed": -median_gap > limit,
            "unresolved": parent_iqr > limit and not apart,
        }
    return out


def decisions(report: dict) -> dict:
    d = report["decisions"]
    return {"digest": d["digest"], "bit_errors": d["bit_errors"], "bits_total": d["bits_total"],
            "status_counts": d["status_counts"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digests = {side: source_digest(path) for side, path in checkouts.items()}

    bench = {"command": f"perfbench/run.py --seed {args.seed} --seconds {seconds} --trace 0",
             "pairs": PAIRS, "seed": args.seed, "seconds": seconds,
             "checkouts": {}, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, seen = [], {}
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"pair": pair, "first": order[0], "decisions": {}, "raw": {}, "gauge_scale": {}}
            for side in order:
                report, result = run_once(checkouts[side], workload, args.seed, seconds)
                run[side] = {k: v["value"] for k, v in result["metrics"].items()}
                run["raw"][side] = report["raw"]
                run["gauge_scale"][side] = report["host_speed"]["scale"]
                run["decisions"][side] = decisions(report)
                if seen.setdefault(side, run["decisions"][side]) != run["decisions"][side]:
                    raise RuntimeError(f"{workload} pair {pair}: {side} decisions differ from "
                                       f"its first run: {run['decisions'][side]} != {seen[side]}")
                if side not in bench["checkouts"]:
                    bench["checkouts"][side] = {"src_sha256": digests[side], **report["meta"]}
            runs.append(run)
            print(f"{workload} pair {pair + 1}/{PAIRS}: " + ", ".join(
                f"{side} {run[side].get('chain_mbit_s', float('nan')):.3f}" for side in SIDES),
                file=sys.stderr, flush=True)
        metrics = summarise(runs, directions)
        raw = summarise([run["raw"] for run in runs], directions)
        bench["workloads"][workload] = {"decisions": seen, "metrics": metrics,
                                        "raw_metrics": raw, "runs": runs}
        print(f"== {workload}: {PAIRS} pairs, seed {args.seed}, {seconds:g} s per run")
        for name, m in metrics.items():
            p, c = m["parent"], m["change"]
            print(f"  {name:14s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']}"
                  f"  wins {m['wins']}/{m['pairs']}  gain_shown {m['gain_shown']}"
                  f"  regressed {m['regressed']}  unresolved {m['unresolved']}"
                  + (f"  raw {raw[name]['parent']['median']:.4g} -> "
                     f"{raw[name]['change']['median']:.4g}" if name in raw else ""))
        scales = {side: statistics.median(run["gauge_scale"][side] for run in runs)
                  for side in SIDES}
        print(f"  gauge scale    parent {scales['parent']:.4g}  change {scales['change']:.4g}")
        same = seen["parent"] == seen["change"]
        print(f"  decisions {'equal' if same else 'DIFFER'}: digest {seen['change']['digest'][:8]}, "
              f"{seen['change']['bit_errors']} bit errors, statuses {seen['change']['status_counts']}")
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
