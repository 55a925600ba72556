"""Run the benchmark over a set of seeds and write a BENCH_*.json summary.

    python3 perfbench/collect.py --out perfbench/BENCH_baseline.json \
        [--seeds 1-10] [--workloads session-mix,wide-board,bus-tcp] [--traced-seed 1] \
        [--compare perfbench/BENCH_other.json]

For each workload: one untraced run per seed (end-to-end medians, quartiles
and the spread, IQR over median, that BENCHMARK.json bounds), then two traced
runs on one seed, whose simulated counts must agree exactly.  The summary
records the machine, the workload metadata and every run's result.  With
--compare it also records, per workload, how much worse each end-to-end
median is than in the other summary, against its bound, and which traced
counts differ between the two.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_UNITS = ("s", "ms", "ratio", "1/s", "MB")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    detail["took_s"] = time.perf_counter() - start
    return result, detail


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default="session-mix,wide-board,bus-tcp")
    parser.add_argument("--traced-seed", type=int, default=1)
    parser.add_argument("--compare", help="an earlier summary of the same code to compare with")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"benchmark": spec["command"], "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, values = [], {}
        for seed in args.seeds:
            result, detail = run(workload, seed, spec["run_seconds"], 0)
            summary["machine"] = detail["machine"]
            runs.append({"seed": seed, **result, "extra": detail["extra"], "took_s": detail["took_s"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, f"{detail['took_s']:.1f}s", result["correct"], result["attempted"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        e2e = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "bound": bounds[name]}
            print(f"  {name:14s} median {med:12.5g} spread {(q3 - q1) / med:.4f} bound {bounds[name]}")
        traced = [run(workload, args.traced_seed, spec["run_seconds"], 1) for _ in range(2)]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        counts = [{k: v["value"] for k, v in r["metrics"].items() if units[k] not in TIME_UNITS}
                  for r, _ in traced]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        print(f"  traced counts identical across two runs: {not differing} {differing}")
        entry = {"meta": traced[0][1]["meta"], "end_to_end": e2e, "runs": runs,
                 "traced": {k: v["value"] for k, v in traced[0][0]["metrics"].items()},
                 "traced_correct": [r["correct"] for r, _ in traced],
                 "traced_took_s": [d["took_s"] for _, d in traced],
                 "traced_internal": traced[0][1]["internal"],
                 "traced_counts_identical": not differing, "traced_counts_differing": differing}
        if workload == "bus-tcp":
            tcp = traced[0][1]["internal"]["_tcp_cycle_p50_ms"]
            transport = entry["traced"]["bus.transport_ms"]
            entry["transport_share"] = {
                "tcp_cycle_p50_ms": tcp, "transport_ms": transport, "share": transport / tcp,
                "note": "share of a WAVEFORM/ARM/TRIG/READ cycle over TCP not spent in the"
                        " in-process loopback of the same bytes; a finding only"}
            print(f"  transport share {transport / tcp:.3f} of a {tcp:.1f} ms cycle")
        summary["workloads"][workload] = entry
    if args.compare:
        summary["compared_with"] = compare(json.loads(Path(args.compare).read_text()), summary, spec)
        summary["compared_with"]["file"] = Path(args.compare).name
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


def compare(first, second, spec):
    """How much worse each end-to-end median of ``second`` is than in
    ``first`` (a share of the first), and the traced counts that differ."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out = {"workloads": {}}
    for workload, entry in second["workloads"].items():
        old = first["workloads"].get(workload)
        if old is None:
            continue
        rows = {}
        for name, e in entry["end_to_end"].items():
            a, b = old["end_to_end"][name]["median"], e["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            rows[name] = {"first": a, "second": b, "worse_by": worse, "bound": e["bound"],
                          "within_bound": worse <= e["bound"]}
            print(f"{workload:12s} {name:14s} {a:12.5g} -> {b:12.5g} worse by {worse:+.4f}"
                  f" (bound {e['bound']})")
        differing = sorted(k for k, v in entry["traced"].items()
                           if units[k] not in TIME_UNITS and old["traced"][k] != v)
        print(f"{workload:12s} traced counts differing between the sets: {differing}")
        out["workloads"][workload] = {"end_to_end": rows, "traced_counts_differing": differing}
    return out


if __name__ == "__main__":
    main()
