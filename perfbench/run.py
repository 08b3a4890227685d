"""specfactor benchmark: four workloads timed end to end, or per module when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repeat N [--workload A,B] [--seed N] [--seconds S] [--trace 0|1]

A run repeats one pass over inputs made from --seed until about --seconds of
passes are timed (at least three passes), checks every pass's outputs after
timing it, and prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are graphs_per_s (from the sum of
each step's median time over the passes), setup_s (median of several fresh processes, from launch until the
first timed operation could start) and peak_rss_mb.  With --trace 1 traced
and untraced passes alternate, and the metrics are the per-module figures of
the median traced pass.  --repeat runs each workload N times in fresh
processes, with seeds N, N+1, ..., and prints the median and quartiles of
every metric.  See README.md.
"""

import os

# one BLAS thread: starting OpenBLAS's thread pool is about 40% of the
# package's import time, and it varies with load on a small shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_PROBES = 9


def import_program() -> None:
    """Put the checkout's src/ first on the path and insist the package comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import specfactor
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import specfactor from {SRC}: {exc}")
    if SRC not in Path(specfactor.__file__).resolve().parents:
        sys.exit(f"perfbench: specfactor imported from {specfactor.__file__}, not {SRC}")


def host_loop_s() -> float:
    """A fixed pure-Python loop that calls no package code: a slowed host
    shows here, a slowed program does not."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from launching a fresh process until it has imported the
    package and built the inputs."""
    cmd = [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: setup probe failed (exit {code})")
    return elapsed


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(args, wl) -> dict:
    import tracing

    inputs = wl.build(args.seed)
    host: list[float] = []
    setup: list[float] = []
    plain: list[float] = []
    steps: dict[bool, list[list[float]]] = {False: [], True: []}
    traced: list = []
    rss: list[float] = []
    attempted = failed = 0
    timed = 0.0
    while True:
        # probes spread over the run, so one burst of load moves few of them
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed))
            host.append(host_loop_s())
        trace_this = bool(args.trace) and len(plain) > len(traced)
        res = wl.run_pass(inputs, trace_this)
        steps[trace_this].append(res.step_seconds)
        if trace_this:
            traced.append(res)
        else:
            plain.append(res.seconds)
        if res.rss_mb is not None:
            rss.append(res.rss_mb)
        timed += res.seconds
        attempted += wl.ops(inputs)
        failed += wl.check(inputs, res.outputs)
        passes = len(plain) + len(traced)
        typical = statistics.median(plain + [t.seconds for t in traced])
        done = traced if args.trace else passes >= MIN_PASSES
        if done and timed + typical > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed))
        host.append(host_loop_s())
    if not rss:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    graphs = wl.graphs(inputs)
    # each step's median over the passes, summed: a burst of load from
    # elsewhere then moves one step of one pass, not the figure
    step_medians = [statistics.median(col) for col in zip(*steps[False])]
    median_pass = sum(step_medians)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "graphs_per_pass": graphs,
        "pass_s_quartiles": _quartiles(plain),
        "step_medians_s": step_medians,
        "host_loop_s": statistics.median(host),
    }
    if not args.trace:
        metrics = {
            "graphs_per_s": (graphs / median_pass, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MiB"),
        }
    else:
        traced.sort(key=lambda t: t.seconds)
        mid = traced[len(traced) // 2]
        layers = dict(mid.layers)
        traced_pass = sum(statistics.median(col) for col in zip(*steps[True]))
        overhead = traced_pass / median_pass - 1.0
        layers["bench.trace_overhead"] = overhead
        metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}
        self_sum = sum(layers[name] for name in tracing.SELF_TIME_METRICS)
        info.update(
            traced_graphs_per_s=graphs / traced_pass,
            untraced_graphs_per_s=graphs / median_pass,
            trace_overhead=overhead,
            self_time_sum_s=self_sum,
            traced_pass_s=layers["bench.traced_pass_s"],
        )
        OUT.mkdir(exist_ok=True)
        base = min(s[1] for s in mid.spans)
        trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "info": info,
            "layers": layers,
            "spans": [[layer, s - base, e - base, parent] for layer, s, e, parent in mid.spans],
        }))
        info["trace_file"] = str(trace_file.relative_to(HERE.parent))
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def repeat(args) -> None:
    import workloads

    names = args.workload.split(",") if args.workload else list(workloads.WORKLOADS)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    summary = {}
    for name in names:
        runs = []
        for i in range(args.repeat):
            seed = args.seed + i
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"perfbench: {name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            info = json.loads(lines[-2].removeprefix("info "))
            result = json.loads(lines[-1])
            runs.append({"info": info, "result": result, "wall_s": wall})
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                if not args.trace) + f" host_loop_s={info['host_loop_s']:.4f}"
                f" failed={result['failed']}/{result['attempted']} wall_s={wall:.1f}", file=sys.stderr)
        series = {m: [r["result"]["metrics"][m]["value"] for r in runs]
                  for m in runs[0]["result"]["metrics"]}
        series["host_loop_s"] = [r["info"]["host_loop_s"] for r in runs]
        stats = {}
        for metric, values in series.items():
            q1, med, q3 = _quartiles(values)
            stats[metric] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        fails = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        summary[name] = {"stats": stats, "failed_attempted": sorted(fails), "runs": runs}
        print(f"\n{name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for metric, s in stats.items():
            print(f"  {metric:28s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{100 * s['spread']:7.2f}%")
        print(f"  failed/attempted per run: {sorted(fails)}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"repeat_{stamp}.json"
    path.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace, "workloads": summary}))
    print(f"\nraw runs: {path.relative_to(HERE.parent)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, help="runs per workload, each in a fresh process")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cold-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    import_program()
    import workloads

    if args.repeat:
        repeat(args)
        return

    if args.cold_pass:
        print(json.dumps(workloads.ColdEnumeration.child_pass(bool(args.trace))))
        return
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    if args.probe:
        wl.build(args.seed)
        print("ready", flush=True)
        return
    out = measure(args, wl)
    print("info " + json.dumps(out["info"]))
    print(json.dumps(out["result"]))


if __name__ == "__main__":
    main()
