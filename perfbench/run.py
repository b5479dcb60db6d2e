"""Benchmark of the cubicdescent pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-example --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One process, one client, closed loop: each operation starts when the
previous one returns, and the program's functions are called directly
(no worker pool).  A run repeats whole rounds of its workload's operations
until `--seconds` have passed, checks every output, prints every metric
with its unit, and ends with one JSON line.  `--trace 1` alternates
untraced and traced rounds and reports per-layer metrics from the traced
ones, with the tracing overhead.  Results and spans are written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5

#: per-layer metrics: name -> (traced function, what is reported per op)
LAYER_METRICS = {
    "pointsearch.search_s": ("pointsearch.search", "self"),
    "pointsearch.search_calls": ("pointsearch.search", "calls"),
    "descent.run_strategy_s": ("descent.run_strategy", "self"),
    "geometry.dp4_to_cubic_s": ("geometry.dp4_to_cubic", "self"),
    "geometry.greedy_reduce_s": ("geometry.greedy_reduce", "self"),
    "geometry.tritangent_analysis_s": ("geometry.tritangent_analysis", "self"),
    "ideals.smooth_cubic_s": ("ideals.smooth_cubic", "self"),
    "ideals.smooth_dp4_s": ("ideals.smooth_dp4", "self"),
    "ideals.buchberger_s": ("ideals.buchberger", "self"),
    "ideals.buchberger_calls": ("ideals.buchberger", "calls"),
    "lines27.minimal_cover_subgroup_s": ("lines27.minimal_cover_subgroup",
                                         "self"),
    "lines27.subgroup_closure_s": ("lines27.subgroup_closure", "self"),
    "lines27.subgroup_closure_calls": ("lines27.subgroup_closure", "calls"),
    "lines27.subgroup_closure_capped": ("lines27.subgroup_closure", "none"),
    "lines27.full_group_s": ("lines27.full_group", "self"),
    "lines27.full_group_calls": ("lines27.full_group", "calls"),
    "lines27.anchored_class_members_s": ("lines27.anchored_class_members",
                                         "self"),
    "frobenius.sample_frobenius_s": ("frobenius.sample_frobenius", "self"),
    "frobenius.frobenius_class_s": ("frobenius.frobenius_class", "self"),
    "frobenius.frobenius_class_anchored_s": (
        "frobenius.frobenius_class_anchored", "self"),
    "frobenius.good_prime_calls": ("frobenius.good_prime", "calls"),
    "polyfactor.factor_unipoly_s": ("polyfactor.factor_unipoly", "self"),
    "polyfactor.factor_unipoly_calls": ("polyfactor.factor_unipoly", "calls"),
    "unipoly.discriminant_s": ("unipoly.discriminant", "self"),
    "unipoly.discriminant_calls": ("unipoly.discriminant", "calls"),
    "gfpoly.gp_factor_squarefree_s": ("gfpoly.gp_factor_squarefree", "self"),
    "frobenius.count_points_cubic_s": ("frobenius.count_points_cubic", "self"),
    "frobenius.count_points_dp4_s": ("frobenius.count_points_dp4", "self"),
    "frobenius.census_lines_s": ("frobenius.census_lines", "self"),
}
#: traced functions whose arguments feed a computed count
KEEP_ARGS = ("frobenius.count_points_cubic", "frobenius.count_points_dp4")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def locate_program() -> None:
    if not (SRC / "cubicdescent" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'cubicdescent'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))


SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
start = time.perf_counter()
import cubicdescent, workloads
workloads.WORKLOADS[{name!r}]({seed!r})
print(time.perf_counter() - start)
"""


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input construction."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name,
                              seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import workloads
    from tracing import Tracer

    plan = workloads.WORKLOADS[name](seed)
    setup_s = measure_setup(name, seed)
    tracer = Tracer() if trace else None

    plan.install()
    untraced, traced, failures = [], [], []
    first, problems = {}, []
    attempted = 0
    rounds = 0
    start = last = time.perf_counter()
    round_s = 0.0
    try:
        # whole rounds only; stop when half of another round would pass the
        # end, so that a run lasts about `seconds` on every workload
        while rounds < (2 if trace else 1) \
                or time.perf_counter() - start + round_s / 2 < seconds:
            tracing = trace and rounds % 2 == 1
            if tracing:
                tracer.install(keep_args=KEEP_ARGS)
            for index, op in enumerate(plan.ops):
                attempted += 1
                call = op.run if not tracing else (
                    lambda op=op, i=index: tracer.run_op((rounds, i), op.run))
                t0 = time.perf_counter()
                try:
                    result = call()
                except Exception as exc:          # counted, and the run goes on
                    failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                (traced if tracing else untraced).append(elapsed)
                summary = op.summarise(result)
                if op.key not in first:
                    first[op.key] = (op, summary)
                elif first[op.key][1] != summary:
                    problems.append(f"{op.key}: repeat gave another result")
            if tracing:
                tracer.uninstall()
            rounds += 1
            round_s, last = time.perf_counter() - last, time.perf_counter()
    finally:
        plan.uninstall()
    measured = time.perf_counter() - start

    for key, (op, summary) in first.items():
        try:
            problems += [f"{key}: {p}" for p in op.check(summary)]
        except Exception as exc:
            problems.append(f"{key}: check raised {type(exc).__name__}: {exc}")

    # an operation that raised is wrong output too, and one that never
    # returned has had none of its checks run
    problems += [f"{op.key}: never returned" for op in plan.ops
                 if op.key not in first]
    times = untraced + traced
    if not untraced or (trace and not traced):
        fail(f"no operation of {name} succeeded: {failures[:1]}")
    out = {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
    }
    if trace:
        out["metrics"] = layer_metrics(tracer, len(traced),
                                       statistics.median(traced)
                                       - statistics.median(untraced))
    else:
        out["metrics"] = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    detail = {"workload": name, "seed": seed, "trace": int(trace),
              "rounds": rounds, "measured_s": measured,
              "ops_per_round": len(plan.ops), "op_times_s": times,
              "problems": problems, "failures": failures, **out}
    if trace:
        detail["self_time_s"] = dict(tracer.self_time)
        detail["spans"] = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail))
    return out, detail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracer, ops: int, overhead: float) -> dict:
    metrics = {}
    for metric, (fn, kind) in LAYER_METRICS.items():
        if kind == "self":
            value = tracer.self_time[fn] / ops
        elif kind == "calls":
            value = tracer.calls[fn] / ops
        else:
            value = tracer.returned_none[fn] / ops
        metrics[metric] = {"value": value,
                           "unit": "s" if kind == "self" else "count"}
    points = sum(p ** 3 + p ** 2 + p + 1
                 for _, p, *_ in tracer.args["frobenius.count_points_cubic"])
    points += sum(p ** 4 + p ** 3 + p ** 2 + p + 1
                  for _, p, *_ in tracer.args["frobenius.count_points_dp4"])
    metrics["frobenius.points_enumerated"] = {"value": points / ops,
                                              "unit": "count"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def report(name: str, out: dict, detail: dict) -> None:
    print(f"workload {name}: seed {detail['seed']}, {detail['rounds']} rounds "
          f"of {detail['ops_per_round']} operations in "
          f"{detail['measured_s']:.1f} s")
    print(f"  attempted {out['attempted']}, failed {out['failed']}, "
          f"outputs {'correct' if out['correct'] else 'WRONG'}")
    for line in detail["failures"][:10] + detail["problems"][:10]:
        print(f"  ! {line}")
    for metric, m in out["metrics"].items():
        print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    locate_program()

    if args.workload == "all":
        # one fresh process per workload, so peak memory is its own
        status = 0
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT)
            status = status or done.returncode
        return status

    out, detail = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    report(args.workload, out, detail)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
