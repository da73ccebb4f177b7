"""Benchmark of traitgru: four workloads, output checks, optional tracing.

    python3 perfbench/run.py --workload cv-tiny --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --seed 1                  # every workload in turn

Run from anywhere; the program is imported from the src/ directory next
to this one.  One run sets up (imports, input generation, preprocessing,
vocabulary, checkpoint), runs one untimed warm-up round, repeats whole
rounds of the workload's operations for --seconds, checks the outputs,
and prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, their times scaled to the reference host speed (see
hostspeed.py); with --trace 1 the per-layer ones, measured with spans
around the program's public functions.  The exit code is 0 when the
outputs are correct.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the figures stay steady on a shared two-core machine,
# and parallelism the program adds itself (processes, folds) still shows.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (numpy reads the thread settings when first imported)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900
# Largest share of a traced round's time that no program span covers.
ROUND_UNCOVERED_MAX = 0.01


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# Children waited for before this process started (a launcher script that
# then exec'd the interpreter) show in RUSAGE_CHILDREN too; they are not
# the workload's.
_LAUNCHER_CHILDREN_KB = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children == _LAUNCHER_CHILDREN_KB:
        children = 0
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children) / 1024.0


def _import_program():
    src = ROOT / "src"
    if not (src / "traitgru" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}/traitgru")
    sys.path.insert(0, str(src))
    import workloads

    import traitgru

    if Path(traitgru.__file__).resolve().parent != (src / "traitgru").resolve():
        raise SystemExit(f"error: traitgru imported from {traitgru.__file__}, not {src}")
    return workloads


def _rounds(w, seconds: float, ops, tracer=None):
    """Whole rounds until their summed time reaches seconds; (time, passes)
    each, and the reference chunk times before, between and after them."""
    done, spent, chunks = [], 0.0, [hostspeed.chunk()]
    while spent < seconds:
        started = time.perf_counter()
        if tracer is None:
            passes = w.round(ops)
        else:
            with tracer.span("bench.round"):
                passes = w.round(ops)
        elapsed = time.perf_counter() - started
        w.after_round()
        chunks.append(hostspeed.chunk())
        done.append((elapsed, passes))
        spent += elapsed
    print(f"{len(done)} rounds: " + ", ".join(f"{t:.3f} s/{p} passes" for t, p in done),
          file=sys.stderr)
    return done, chunks


def _host_adjusted_rate(done: list, chunks: list) -> float:
    """All passes over all round seconds at the reference host speed."""
    return sum(p for _, p in done) / sum(hostspeed.scaled([t for t, _ in done], chunks))


def _warm_up(w, ops) -> None:
    """One untimed round: a workload's first round runs about a quarter
    slower (first touch of its arrays and the allocator's arenas)."""
    w.round(ops)
    w.after_round()


def _import_s() -> float:
    """Median time for a fresh interpreter to start and import the program
    and the workloads (the first part of every run's set-up), at the
    reference host speed."""
    argv = [sys.executable, "-c",
            f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import workloads"]
    return statistics.median(hostspeed.timed(lambda: subprocess.run(argv, check=True),
                                             SETUP_REPEATS))


def _untraced(w, seed: int, seconds: float, work: Path, ops):
    setups = hostspeed.timed(lambda: w.setup(seed, work), SETUP_REPEATS)
    _warm_up(w, ops)
    done, chunks = _rounds(w, seconds, ops)
    peak = _peak_rss_mb()  # before the import probes, which are children too
    failures = w.check()
    print(f"{w.name}  wall-clock tweets_per_s = "
          f"{sum(p for _, p in done) / sum(t for t, _ in done):.6g} tweets/s, reference chunk "
          f"median {statistics.median(chunks):.6g} s (nominal {hostspeed.REF_CHUNK_S} s)")
    return failures, {
        "setup_s": _import_s() + statistics.median(setups),
        "tweets_per_s": _host_adjusted_rate(done, chunks),
        "peak_rss_mb": peak,
    }


def _traced(w, seed: int, seconds: float, work: Path, ops, names: list, trace_file: Path):
    from spans import SETUP, TIMED, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = SETUP
        started = time.perf_counter()
        with tracer.span("bench.setup"):
            w.setup(seed, work)
        setup_wall = time.perf_counter() - started
        tracer.uninstall()
        _warm_up(w, ops)
        tracer.install()
        tracer.phase = TIMED
        done, _ = _rounds(w, seconds, ops, tracer)
    finally:
        tracer.uninstall()
    failures = w.check()

    table = tracer.table(len(done))
    span_cost = tracer.span_cost()
    spans, counters = table["spans"], table["counters"]
    # The self times of all spans add up to the time of the bench.* roots
    # by construction; what can fail is that the program's spans cover a
    # round, leaving little self time to bench.round itself.
    uncovered = spans["bench.round"]["self_s"] / spans["bench.round"]["s"]
    if uncovered > ROUND_UNCOVERED_MAX:
        failures.append(f"{uncovered:.1%} of a traced round is outside the program's spans")
    gru_s = sum(spans.get(n, {}).get("s", 0.0) for n in ("gru.gru_forward", "gru.rnn_backward"))
    gflop = counters.get("gru.gflop", 0.0) / 1e9
    special = {
        "gru.gflop": gflop,
        "gru.gflop_per_s": gflop / gru_s if gru_s > 0 else 0.0,
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0.0),
        # Tracing adds a fixed cost per span; the machine's run-to-run
        # spread is larger than a traced-minus-untraced round difference.
        "trace.overhead_s": table["timed_spans_per_round"] * span_cost,
        "evaluate.heldout_rmse": w.extra.get("heldout_rmse", 0.0),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        else:
            span, field = name.rsplit(".", 1)
            metrics[name] = spans.get(span, {}).get(field, 0.0)
    tracer.save(trace_file.with_suffix(".npz"))
    with open(trace_file.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"rounds": len(done), "setup_wall_s": setup_wall, "span_cost_s": span_cost,
                   "traced_round_s": [t for t, _ in done], "round_uncovered_share": uncovered,
                   **table}, fh, indent=1, sort_keys=True)
    return failures, metrics


def run_one(args) -> int:
    workloads = _import_program()
    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    w = workloads.WORKLOADS[args.workload]()
    ops = workloads.Ops()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-s{args.seed}"
            failures, values = _traced(w, args.seed, args.seconds, work, ops,
                                       list(units), trace_file)
        else:
            failures, values = _untraced(w, args.seed, args.seconds, work, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in failures:
        print(f"CHECK FAILED [{args.workload}]: {msg}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    for name, value in w.extra.items():
        print(f"{args.workload}  {name} = {value:.6g} score")
    print(f"{args.workload}  operations attempted {ops.attempted}, failed {ops.failed}")
    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "extra": w.extra}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory are its own."""
    names = [w["name"] for w in _spec()["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"] for w in _spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
