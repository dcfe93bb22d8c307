"""mwgraph benchmark: run one workload (or all four) and print its metrics.

    python3 bench/run.py --workload search-frame --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client in this process starts each
operation when the previous one returns.  After set-up, rounds of the
workload's operations repeat while one more round, at the median round
time so far, still fits in ``--seconds`` (at least one round).  Times are
reported at nominal host speed, corrected by ``SpeedSensor``.  Outputs are
then checked by the oracles in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one plain
round and one traced round and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
# host-speed sensor (SpeedSensor): every SENSOR_INTERVAL_S a signal handler
# times a warm reference_work() call.  REF_NOMINAL_S is about its median
# time during the workloads on a shared Intel Xeon (family 6 model 143)
# vCPU; it only sets the scale of the reported times.
SENSOR_INTERVAL_S = 0.025
REF_NOMINAL_S = 6.0e-4
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH_DIR))

END_TO_END_UNITS = {"run_s": "s", "throughput": "items/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
# per-layer units by the last part of the name; otherwise "_s" means s, else count
LAYER_UNITS = {"bytes": "bytes", "stdout_bytes": "bytes", "eig_flops_est": "flop",
               "validations_per_item": "ratio", "classes_per_code_call": "ratio",
               "scans_per_op": "ratio", "assemble_per_graph": "ratio"}


def import_mwgraph() -> None:
    """Import mwgraph from this checkout's src/, or exit 2 if it is not there."""
    try:
        import mwgraph
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import mwgraph from {ROOT / 'src'}: {exc}\n")
        sys.exit(2)
    if Path(mwgraph.__file__).resolve().parent.parent != ROOT / "src":
        sys.stderr.write(f"error: mwgraph imported from {mwgraph.__file__}, not this checkout\n")
        sys.exit(2)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed: int, loadavg) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_start": [round(x, 2) for x in loadavg],
    }


def set_up(workload) -> None:
    workload.prepare()
    workload.warm_up()


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and nominal-speed times of fresh processes that set up the
    workload and exit at once; each reports the sensor's readings."""
    walls, nominal = [], []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only", str(WORK_DIR / f"{name}-setup-{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        ref_median, ref_total = map(float, proc.stdout.split())
        walls.append(elapsed - ref_total)
        nominal.append(walls[-1] * REF_NOMINAL_S / ref_median)
    return walls, nominal


class SpeedSensor:
    """Samples how fast the host runs this process while it works.

    The host's speed drifts by tens of percent within a minute (other
    guests share its cores), and wall times drift with it.  An interval
    timer interrupts the work every SENSOR_INTERVAL_S; the handler runs
    reference_work() once to warm it and times a second run, so that the
    reading follows the host rather than what the work left in the caches.
    A wall time, less the handler's own time, scaled by REF_NOMINAL_S /
    (median reference time meanwhile) is the time at nominal host speed.
    """

    def __init__(self):
        import numpy as np

        self.samples: list[float] = []
        self.costs: list[float] = []
        self._matrix = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5 - np.eye(8)
        self._eigvalsh = np.linalg.eigvalsh

    def reference_work(self) -> None:
        """Interpreter work on small objects, then small symmetric eigenproblems:
        the two kinds of work mwgraph's operations are made of."""
        table = {}
        for i in range(500):
            table[(i, i * 7 % 13)] = [i, str(i)]
        sorted(table, key=lambda key: -key[1])
        for _ in range(20):
            self._eigvalsh(self._matrix)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.reference_work()
        t1 = time.perf_counter()
        self.reference_work()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.costs.append(t2 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SENSOR_INTERVAL_S, SENSOR_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reading(self, since: int = 0) -> tuple[float, float]:
        """(median reference time, total handler time) from sample ``since`` on."""
        if len(self.samples) == since:  # too short to be sampled: sample once now
            self._sample()
            return self.samples[-1], 0.0
        return statistics.median(self.samples[since:]), sum(self.costs[since:])

    def timed(self, fn):
        """(wall s less sensor time, nominal-speed s, fn's result) of one call."""
        k = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        ref_median, ref_total = self.reading(k)
        wall = elapsed - ref_total
        return wall, wall * REF_NOMINAL_S / ref_median, result


def run_round(workload, tracer=None) -> list:
    """One pass over the workload's operations; an exception stands in for an outcome."""
    outcomes = []
    for i, (_, op) in enumerate(workload.operations()):
        if tracer is not None:
            tracer.op_id = i
        try:
            outcomes.append(op())
        except Exception as exc:  # an operation that raises counts as failed
            outcomes.append(exc)
    return outcomes


def check_rounds(workload, rounds: list[list]) -> list[str]:
    """Oracle failures, one entry per failed operation.

    The first round is checked by the oracles; every later round must
    repeat its exit code and stdout byte for byte.
    """
    failures = []
    labels = [label for label, _ in workload.operations()]
    for r, outcomes in enumerate(rounds):
        for label, outcome, first in zip(labels, outcomes, rounds[0]):
            if isinstance(outcome, Exception):
                problem = f"raised {type(outcome).__name__}: {outcome}"
            elif r == 0:
                try:
                    problem = workload.check(label, outcome)
                except Exception as exc:  # malformed output fails the oracle
                    problem = f"oracle could not read the output: {type(exc).__name__}: {exc}"
            elif isinstance(first, Exception) or (outcome.code, outcome.stdout) != (
                    first.code, first.stdout):
                problem = "output differs from the first round"
            else:
                continue
            if problem:
                failures.append(f"round {r} {label}: {problem}")
    return failures


def timed_run(workload, seconds: float) -> dict:
    setup_walls, setups = setup_seconds(workload.name, workload.seed)
    rounds, walls, times = [], [], []
    t_window = time.perf_counter()
    with SpeedSensor() as sensor:
        while True:
            wall, nominal, outcomes = sensor.timed(lambda: run_round(workload))
            rounds.append(outcomes)
            walls.append(wall)
            times.append(nominal)
            if time.perf_counter() - t_window + statistics.median(walls) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_rounds(workload, rounds)
    attempted = sum(len(r) for r in rounds)
    run_s = statistics.median(times)
    metrics = {
        "run_s": run_s,
        "throughput": workload.items_per_round / run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"# {workload.name}: {len(rounds)} rounds of {len(rounds[0])} ops, "
          f"{workload.items_per_round} items ({workload.item}) per round, "
          f"round wall s {[round(t, 4) for t in walls]}, "
          f"at nominal speed {[round(t, 4) for t in times]}, "
          f"set-up wall s {[round(t, 4) for t in setup_walls]}, "
          f"at nominal speed {[round(t, 4) for t in setups]}")
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "error_rate": len(failures) / attempted}


def traced_run(workload) -> dict:
    import mwgraph
    from tracer import Tracer

    t0 = time.perf_counter()
    plain = run_round(workload)
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(mwgraph)
    try:
        t0 = time.perf_counter()
        traced = run_round(workload, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failures = check_rounds(workload, [plain, traced])
    metrics = tracer.layer_metrics(workload.items_per_round, len(traced))
    metrics["cli.stdout_bytes"] = sum(len(o.stdout.encode()) for o in traced
                                      if not isinstance(o, Exception))
    metrics["trace.overhead_s"] = traced_s - plain_s
    for span, within, expected in workload.cross_checks:
        got = tracer.calls_within(span, within) if within else metrics[f"{span}.calls"]
        where = f" inside {within}" if within else ""
        print(f"# cross-check: {span} calls{where} = {got} (seed commit: {expected})")
    spans_path = WORK_DIR / f"spans-{workload.name}.npz"
    tracer.save(spans_path)
    print(f"# {workload.name}: plain round {plain_s:.4f} s, traced round {traced_s:.4f} s, "
          f"{metrics['trace.spans']} spans written to {spans_path.relative_to(ROOT)}")
    return {"attempted": len(plain) + len(traced), "failures": failures, "metrics": metrics,
            "error_rate": len(failures) / (len(plain) + len(traced))}


def set_up_only(args) -> None:
    """Set up one workload under the sensor, print its reading and exit."""
    with SpeedSensor() as sensor:
        import_mwgraph()
        from workloads import WORKLOADS

        set_up(WORKLOADS[args.workload](args.seed, args.setup_only))
    print(*sensor.reading())
    sys.stdout.flush()
    os._exit(0)  # ready to time: skip interpreter teardown


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only is not None:
        set_up_only(args)
    import_mwgraph()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    WORK_DIR.mkdir(exist_ok=True)
    env = environment(args.seed, loadavg)
    print(f"# env {json.dumps(env)}")
    attempted, failures, metrics = 0, [], {}
    for name in names:
        workload = WORKLOADS[name](args.seed, WORK_DIR / f"{name}-seed{args.seed}")
        set_up(workload)
        result = traced_run(workload) if args.trace else timed_run(workload, args.seconds)
        attempted += result["attempted"]
        failures += result["failures"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in result["metrics"].items():
            metrics[prefix + key] = value
        print(f"# {name}: error_rate {result['error_rate']:.4g} ratio")
        for note in workload.notes:
            print(f"# NOTE {note}")
        for key, value in result["metrics"].items():
            print(f"#   {name} {key} = {value:.6g} {metric_unit(key, args.trace)}")
    for failure in failures:
        print(f"# FAILED {failure}")
    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": metric_unit(key, args.trace)}
                    for key, value in metrics.items()},
    }
    (WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **report}, indent=1))
    print(json.dumps(report))
    return 0 if not failures else 1


def metric_unit(key: str, trace: int) -> str:
    last = key.rsplit(".", 1)[-1]
    if not trace:
        return END_TO_END_UNITS[last]
    return LAYER_UNITS.get(last, "s" if last.endswith("_s") else "count")


if __name__ == "__main__":
    sys.exit(main())
