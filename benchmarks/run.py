"""shapenas benchmark: one workload, end-to-end metrics or a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Set-up runs three times and the median counts. Then whole rounds
of the workload's commands run, single-process at ``--jobs 1``, until
``--seconds`` of command time has passed. The first round's outputs are
checked by the benchmark's own code; every later round must write the same
bytes. ``--trace 1`` adds one round with spans around the program's layers
and reports the per-layer metrics instead. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

End-to-end times are given at reference speed: each timed stretch runs
between two runs of a fixed probe, and its seconds are scaled by
``PROBE_REF_S`` over the probe's mean time, so that the host slowing every
process for a while does not read as the program slowing down.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
UNTIMED = {"timings.json"}  # the program's wall-clock side file
PROBE_REF_S = 0.030  # the probe's usual time on a 2-vCPU Xeon host


def probe() -> float:
    """Seconds taken by a fixed sample of the kinds of work the program
    does: dict updates, sorts and prefix sums over a few hundred values, a
    tree walk by fancy indexing, and a small dense layer."""
    import numpy as np
    rng = np.random.default_rng(0)
    vec = rng.random(300)
    feature = rng.integers(0, 20, 31)
    feature[15:] = -1  # nodes 15..30 are leaves
    threshold = rng.random(31)
    left = np.minimum(2 * np.arange(31) + 1, 30)
    right = np.minimum(2 * np.arange(31) + 2, 30)
    weights, bias = rng.random((40, 32)), rng.random(32)
    t = time.perf_counter()
    table = {}
    for i in range(40000):
        table[i % 997] = table.get(i % 991, 0) + i
    for _ in range(500):
        csum = np.cumsum(vec[np.argsort(vec, kind="stable")])
        np.nonzero(csum[:-1] < csum[1:])
    for _ in range(300):
        node = np.zeros(1, dtype=int)
        while (feature[node] >= 0).any():
            go_left = vec[feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        np.tanh(vec[:40] @ weights + bias)
    return time.perf_counter() - t


def scaled(fn):
    """Run fn between two probes. Returns (result, seconds, scale), where
    seconds times scale is fn's time at reference speed."""
    before = probe()
    t = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t
    return result, seconds, 2 * PROBE_REF_S / (before + probe())


def git_sha() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def artifact_hashes(out_dir) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        if name not in UNTIMED:
            with open(os.path.join(out_dir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def command_rate(rounds, command) -> float:
    """Median work items per second of one command, in raw seconds."""
    rates = [items / secs for r in rounds
             for name, (secs, items) in r.commands.items() if name == command]
    return statistics.median(rates) if rates else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy
        import checks
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    import_ref_s = import_s * PROBE_REF_S / probe()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count()}}))

    run_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=run_dir)
    tempfile.tempdir = work  # gen_synth_stats writes a temporary CSV
    workload = workloads.WORKLOADS[args.workload]()
    try:
        setup_raw, setup_ref = [], []
        for k in range(SETUP_REPEATS):
            where = os.path.join(work, f"setup{k}")
            os.makedirs(where)
            _, secs, scale = scaled(lambda: workload.setup(where, args.seed))
            setup_raw.append(secs)
            setup_ref.append(secs * scale)

        problems = []
        rounds, failed_per_round, first_hashes = [], 0, None
        tracer = tracing.Tracer() if args.trace else None

        def one_round(traced=False):
            shutil.rmtree(workload.out, ignore_errors=True)
            if traced:
                tracer.install()
            try:
                r, _, scale = scaled(workload.run_round)
            finally:
                if traced:
                    tracer.remove()
            r.ref = r.wall * scale
            return r, artifact_hashes(workload.out)

        while not rounds or sum(r.wall for r in rounds) < args.seconds:
            r, hashes = one_round()
            rounds.append(r)
            if first_hashes is None:
                first_hashes = hashes
                try:
                    failed_per_round, facts = workload.check()
                    print(json.dumps({"checks": facts}))
                    for label, demo in workload.demos():
                        try:
                            demo()
                        except checks.CheckError:
                            continue
                        problems.append(f"checker accepted a {label}")
                except checks.CheckError as exc:
                    problems.append(str(exc))
            elif hashes != first_hashes:
                problems.append(f"round {len(rounds)} wrote different bytes")
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ref_wall = statistics.median(r.ref for r in rounds)
        print(json.dumps({"raw": {
            "import_s": import_s, "setup_s": statistics.median(setup_raw),
            "rounds": len(rounds),
            "wall_s_median": statistics.median(r.wall for r in rounds),
            "wall_s_min": min(r.wall for r in rounds)}}))
        if args.trace:
            traced, hashes = one_round(traced=True)
            if hashes != first_hashes:
                problems.append("the traced round wrote different bytes")
            values = tracing.layer_metrics(tracer, traced.wall)
            values["trace.overhead_pct"] = 100.0 * (traced.ref / ref_wall - 1)
            values["gen_synth_rows_per_s"] = command_rate(rounds, "gen-synth")
            values["fit_rows_per_s"] = command_rate(rounds, "train-predictor")
            values["steps_per_s"] = (command_rate(rounds, "search")
                                     or command_rate(rounds, "compare"))
            tracer.write(os.path.join(
                run_dir, f"spans-{args.workload}-{args.seed}.csv"))
            summary = tracer.summary()
            top = max((v["self_s"], k) for k, v in summary.items()
                      if k != "_top_s")
            print(json.dumps({"largest_self_time": {"span": top[1],
                                                    "s": top[0]}}))
            rounds.append(traced)
        else:
            values = {
                "setup_s": import_ref_s + statistics.median(setup_ref),
                "wall_s": ref_wall,
                "peak_rss_mb": peak_rss_mb,
                "items_per_s": statistics.median(r.items / r.ref
                                                 for r in rounds),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": failed_per_round * len(rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
