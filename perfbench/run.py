"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload {audit,train,predict} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout; matformer is imported from ``src/`` next
to this directory, never from an installed copy.  BLAS and OpenMP are
pinned to one thread before NumPy loads.  The run sets up its inputs three
times (``setup_s`` is the import time plus the median set-up), then repeats
rounds of identical work for ``--seconds``, checks the outputs, and prints
every metric by name with its unit.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every second round runs traced, and the metrics are the per-layer ones
plus the tracing overhead (traced against untraced rounds).  Spans and a
result summary are written under ``.perfbench_work/``.  The exit code is 0
only if every check passed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
E2E_UNITS = {"crystals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import matformer from this checkout's sources, or exit with code 2."""
    if not (SRC / "matformer" / "__init__.py").is_file():
        print(f"error: matformer sources not found in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import matformer

    if Path(matformer.__file__).resolve().parent != (SRC / "matformer").resolve():
        print(f"error: imported matformer from {matformer.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def timed_rounds(workload, state, seconds: float, tracer=None) -> list:
    """Repeat rounds while another typical round still fits in ``seconds``.

    With a tracer, every second round is traced, so traced and untraced
    rounds see the same drift in machine speed; there are at least two.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(rounds) % 2 == 1:
            tracer.round = len(rounds)
            with tracer:
                rounds.append(workload.run_round(state))
        else:
            rounds.append(workload.run_round(state))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.seconds for r in rounds)
        if elapsed + typical > seconds and len(rounds) >= (1 if tracer is None else 2):
            return rounds


def throughput(rounds) -> float:
    return statistics.median(r.crystals / r.seconds for r in rounds)


def run(args) -> int:
    import tracing
    from workloads import WORKLOADS, Check

    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    import_s = time.perf_counter() - _T0
    env = environment()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            start = time.perf_counter()
            state = workload.setup(args.seed, str(workdir))
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        tracer = tracing.Tracer() if args.trace else None
        rounds = timed_rounds(workload, state, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = workload.check(state, rounds)
        info = workload.describe(state)
        if tracer is not None:
            missed = tracer.missed_probes(args.workload)
            checks.append(Check("trace.probes_entered", not missed,
                                f"never entered: {', '.join(missed)}" if missed else "every expected probe entered"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    checks.append(Check("rounds.no_failed_operations", failed == 0,
                        f"{failed} of {attempted} operation(s) failed"))
    correct = all(c.ok for c in checks)

    if tracer is None:
        metrics = {"crystals_per_s": throughput(rounds), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = E2E_UNITS
    else:
        untraced, traced = rounds[0::2], rounds[1::2]
        metrics = tracing.per_layer_metrics(tracer, len(traced))
        metrics["trace.untraced_crystals_per_s"] = throughput(untraced)
        metrics["trace.crystals_per_s"] = throughput(traced)
        metrics["trace.overhead_pct"] = 100.0 * (throughput(untraced) / throughput(traced) - 1.0)
        units = tracing.PER_LAYER_UNITS
        tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")

    print(f"env: {json.dumps(env)}")
    print(f"input: {json.dumps(info)}")
    print(f"setup: imports {import_s:.3f} s, set-up " + " ".join(f"{s:.3f}" for s in setups) + " s")
    for i, r in enumerate(rounds):
        tag = " traced" if args.trace and i % 2 == 1 else ""
        print(f"round {i}{tag}: {r.crystals} crystals in {r.seconds:.3f} s, "
              f"{r.failed}/{r.attempted} failed, digest {r.digest[:16]}")
    print(f"digest: {rounds[0].digest}")
    for c in checks:
        print(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.message}")
    print(f"fail_fraction = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    summary = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env, input=info,
                   setup_repeats_s=setups, import_s=import_s,
                   rounds=[{"crystals": r.crystals, "seconds": r.seconds, "digest": r.digest} for r in rounds],
                   checks=[vars(c) for c in checks])
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit", "train", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs and a compact model, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_threads()
    import_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
