"""irstd benchmark: one seeded, single-process, closed-loop workload per run.

    python3 perfbench/run.py --workload detect_256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --out bench_out

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
wraps every layer's public callables, runs each operation twice in a row,
once traced and once not, within the same seconds, and reports the per-layer
metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give the
workload's own named metrics and the machine. ``--workload all`` runs every
workload in its own process, traced and untraced, and writes the results
under ``--out``. Metric and workload names live in BENCHMARK.json at the root.
"""

import os

BLAS_THREADS = 1
# pinned before numpy loads; at one thread the timings were steadier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
RUN_TIMEOUT_S = 900
# share of the traced wall time the layer spans must account for
MIN_COVERAGE = 0.90


def import_library():
    """Import irstd from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import irstd
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import irstd from {src}: {err}")
    if not Path(irstd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: irstd resolved outside {src}: {irstd.__file__}")


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        # tracked beside the timings, never gated
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def _attempt(ph, i: int, rec: dict, errors: list[str], quiet) -> float:
    """Run and check one operation; returns its seconds."""
    t0 = perf_counter()
    try:
        out = ph.op(i)
    except Exception:  # one failed operation must not end the run
        dt = perf_counter() - t0
        rec["failed"] += 1
        errors.append(f"{ph.name} op {i} raised:\n{traceback.format_exc()}")
        return dt
    dt = perf_counter() - t0
    rec["latencies"].append(dt)
    with quiet():
        msgs = ph.check(i, out)
    if msgs:
        rec["failed"] += 1
        errors += [f"{ph.name} op {i}: {m}" for m in msgs]
    return dt


def run_phases(wl, seconds: float, tracer=None) -> tuple[dict, list[str]]:
    """Run the workload's phases, each for its share of ``seconds`` of busy
    time. With a tracer every operation runs twice in a row, once traced and
    once not, in alternating order, so both sides see the same inputs and
    the same warm-up. Returns per-phase records and the check failures."""
    records, errors = {}, []
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    for ph in wl.phases():
        rec = {"ops": 0, "failed": 0, "begin_s": 0.0, "traced_s": 0.0, "untraced_s": 0.0,
               "unit": ph.unit, "units": ph.units, "latencies": []}
        if ph.begin is not None:
            t0 = perf_counter()
            ph.begin()
            rec["begin_s"] = perf_counter() - t0
        busy = rec["begin_s"]
        while busy < seconds * ph.share or rec["ops"] < MIN_OPS:
            i = rec["ops"]
            if tracer is None:
                busy += _attempt(ph, i, rec, errors, quiet)
            else:
                for on in ((False, True) if i % 2 == 0 else (True, False)):
                    tracer.active = on
                    dt = _attempt(ph, i, rec, errors, quiet)
                    rec["traced_s" if on else "untraced_s"] += dt
                    busy += dt
                tracer.active = True
            rec["ops"] += 1
        if not rec["latencies"]:
            raise RuntimeError(f"phase {ph.name}: no operation completed")
        records[ph.name] = rec
    return records, errors


def timed_setup(wl) -> float:
    t0 = perf_counter()
    wl.setup()
    return perf_counter() - t0


def untraced(wl, seconds: float) -> dict:
    # half the set-ups run before the phases and half after, so their median
    # spans the run rather than its first seconds: on a shared host the CPU
    # speed can shift by up to 1.6x for seconds to minutes at a time
    setup_s = [timed_setup(wl) for _ in range(wl.setup_reps // 2)]
    run_errors = wl.setup_checks()
    records, op_errors = run_phases(wl, seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s += [timed_setup(wl) for _ in range(wl.setup_reps - wl.setup_reps // 2)]
    run_errors += wl.setup_checks() + wl.final_checks()

    info, rates = {}, {}
    for name, r in records.items():
        rates[name] = r["units"] / statistics.median(r["latencies"])
        info[f"{name}_{r['unit']}_per_s"] = (rates[name], f"{r['unit']}/s")
    lat = records[wl.latency_phase]["latencies"]
    pct, tail_s = tail(lat)
    info[f"{wl.latency_phase}_latency_p50_ms"] = (1e3 * statistics.median(lat), "ms")
    info[f"{wl.latency_phase}_latency_tail_ms"] = (1e3 * tail_s, "ms")
    info["tail_percentile"] = (pct, "%")
    info["tail_samples"] = (len(lat), "count")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": peak_rss_mib,
        # one unit pushed through every phase in turn
        "throughput_per_s": 1.0 / sum(1.0 / v for v in rates.values()),
        "latency_p50_ms": info[f"{wl.latency_phase}_latency_p50_ms"][0],
        "latency_tail_ms": info[f"{wl.latency_phase}_latency_tail_ms"][0],
    }
    return {"records": records, "op_errors": op_errors, "run_errors": run_errors,
            "metrics": metrics, "info": info, "setup_reps_s": setup_s}


def traced(wl, seconds: float, published: set[str], spans_path=None) -> dict:
    from tracer import Tracer, install, layer_metrics

    tracer = Tracer()
    install(tracer)
    try:
        wall = timed_setup(wl)
        with tracer.paused():
            run_errors = wl.setup_checks()
        records, op_errors = run_phases(wl, seconds, tracer)
    finally:
        tracer.restore()
    wall += sum(r["begin_s"] + r["traced_s"] for r in records.values())
    overhead = (sum(r["traced_s"] for r in records.values())
                / sum(r["untraced_s"] for r in records.values()))

    metrics, unpublished = layer_metrics(tracer, wall, overhead, published)
    metrics.update(wl.trace_metrics(tracer, records))
    if metrics["trace.coverage"] < MIN_COVERAGE:
        run_errors.append(f"trace coverage {metrics['trace.coverage']:.3f} < {MIN_COVERAGE}")
    run_errors += wl.final_checks()
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return {"records": records, "op_errors": op_errors, "run_errors": run_errors,
            "metrics": metrics, "info": {n: (s, "s") for n, s in unpublished.items()}}


def run_one(args, bench: dict) -> dict:
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans = Path(args.out) / f"{args.workload}.spans.jsonl" if args.out else None
            res = traced(wl, args.seconds, {m["name"] for m in bench["per_layer"]}, spans)
        else:
            res = untraced(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    attempted = sum(r["ops"] for r in res["records"].values())
    # a failed whole-run check (set-up, end of phase) counts as a failed operation
    failed = sum(r["failed"] for r in res["records"].values()) + len(res["run_errors"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(res["metrics"].get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in res["info"].items()},
        "ops": {k: {"attempted": r["ops"], "failed": r["failed"],
                    "latencies_s": r["latencies"]} for k, r in res["records"].items()},
        "errors": res["op_errors"] + res["run_errors"],
        "setup_reps_s": res.get("setup_reps_s", []),
    }


def report(workload: str, result: dict, env: dict) -> None:
    for e in result["errors"]:
        print(f"FAILED {workload}: {e}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, ops in result["ops"].items():
        print(f"{workload:<11} {name + '.ops':<34} {ops['attempted']:>6} attempted "
              f"{ops['failed']} failed")
    for name, m in {**result["named"], **result["metrics"]}.items():
        print(f"{workload:<11} {name:<34} {m['value']:>14.6g} {m['unit']}")


def run_all(args, bench: dict) -> int:
    out = Path(args.out or ROOT / "bench_out")
    out.mkdir(parents=True, exist_ok=True)
    summary, ok = {}, True
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{w['name']} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            summary[f"{w['name']}.trace{trace}"] = json.loads(lines[-1])
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    results = list(summary.values())
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{k}.{m}": v for k, r in summary.items() for m, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for full results and trace spans")
    args = parser.parse_args(argv)
    import_library()
    if args.workload == "all":
        return run_all(args, bench)

    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    result = run_one(args, bench)
    report(args.workload, result, env)
    if args.out:
        path = Path(args.out) / f"{args.workload}.trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
