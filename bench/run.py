"""One-command SMM round benchmark.

    python3 bench/run.py [--seed N] [--seconds S] [--out DIR] [--repeat K]
    python3 bench/run.py --sets 2
    python3 bench/run.py --workload NAME --trace 0|1 [--seed N] [--seconds S]

Without ``--trace`` it runs every workload (or the one named) untraced
for the end-to-end metrics and then the traced pass for the per-layer
metrics, each in a process of its own, prints every metric by name with
its unit and writes one JSON report.  With ``--trace`` it is a single
run — what the other form starts as child processes — whose last line
of output is the result as one JSON object, and which returns only when
every process the run started has ended.  The exit code is non-zero if
any round or check came out wrong.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
DEFAULT_SEED = 20220601
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Warm-up rounds draw their seeds far from the timed rounds'.
SETUP_SEED_OFFSET = 1_000_000
INFO_PREFIX = "# info "
#: Seconds a process the run left behind gets to end by itself.
ORPHAN_GRACE = 5.0
PR_SET_CHILD_SUBREAPER = 36


def import_system() -> float:
    """Import the system under test from ``src/``; returns the seconds."""
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import layers  # noqa: F401  (pulls in numpy and every repro layer)

    return time.perf_counter() - started


def peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024


def tail_latency(round_ms: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    for percent in (99, 95, 90, 75):
        if len(round_ms) * (100 - percent) / 100 >= 10:
            ordered = sorted(round_ms)
            return {
                "round_ms_tail": ordered[len(ordered) * percent // 100],
                "round_ms_tail_percentile": percent,
            }
    return {"round_ms_tail": None, "round_ms_tail_percentile": None}


def run_untraced(name, scale, seed, seconds, out, import_s) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name](workloads.SIZES[scale][name], out)
    setups, samples, steps = [], [], 0
    try:
        for repeat in range(SETUP_REPEATS if scale == "full" else 1):
            started = time.perf_counter()
            workload.setup(seed + SETUP_SEED_OFFSET + repeat)
            setups.append(time.perf_counter() - started)
        cpu = -workload.cpu_seconds()
        window = time.perf_counter()
        while steps < 2 or time.perf_counter() - window < seconds:
            samples += workload.step(seed + steps)
            steps += 1
        cpu += workload.cpu_seconds()
    finally:
        found_late = workload.close()
    failed = sum(not sample.ok for sample in samples) + found_late

    attempted = len(samples)
    failed = min(failed, attempted)
    busy = sum(sample.seconds for sample in samples)
    round_ms = [1e3 * sample.seconds for sample in samples]
    wire_bytes, client_rounds = workload.traffic(samples)
    metrics = {
        "rounds_per_s": (attempted - failed) / busy,
        "round_ms_p50": statistics.median(round_ms),
        "cpu_s_per_round": cpu / attempted,
        "bytes_per_client_round": wire_bytes / client_rounds,
        "peak_rss_mib": peak_rss_mib(),
        "verified_share": (attempted - failed) / attempted,
        "setup_s": import_s + statistics.median(setups),
    }
    info = {
        "rounds": attempted,
        "failed_share": failed / attempted,
        "bytes_per_round": wire_bytes / client_rounds
        * sum(sample.clients for sample in samples) / attempted,
        **tail_latency(round_ms),
        **workload.info,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def run_traced(name, scale, seed, seconds, out) -> dict:
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        metrics, made, failed = layers.run(tracer, scale, seed, seconds, out)
    finally:
        tracer.write(out / f"trace-{name}.jsonl")
    return {
        "attempted": made,
        "failed": failed,
        "metrics": metrics,
        "info": {"spans": len(tracer.spans), "self_seconds": tracer.self_times()},
    }


def single_run(args) -> int:
    """One workload, traced or not: the form the driver calls."""
    import_s = import_system()
    scale = "quick" if args.quick else "full"
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = run_traced(args.workload, scale, args.seed, args.seconds, args.out)
        declared = SPEC["per_layer"]
    else:
        result = run_untraced(
            args.workload, scale, args.seed, args.seconds, args.out, import_s
        )
        declared = SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(result["metrics"]):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}"
        )
    for key, value in result["metrics"].items():
        print(f"{args.workload:18s} {key:44s} {value:16.6f} {units[key]}")
    print(INFO_PREFIX + json.dumps(result["info"]))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


def children() -> list[int]:
    """The live children of this process, from ``/proc``."""
    own, found = str(os.getpid()), []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == own and fields[0] != "Z":
            found.append(int(stat.parent.name))
    return found


def contained_run(argv: list[str]) -> int:
    """Run ``run.py`` with ``argv`` as a child and return its exit code
    only when every process it started has ended and been waited for.

    The run starts processes of its own (the socket server, the process
    shard pool) and ones it never sees: ``multiprocessing`` starts a
    resource tracker for the shard pool's shared memory that ends only
    after its parent has.  This process adopts whatever the run orphans,
    gives it ``ORPHAN_GRACE`` seconds to end, kills what is left, and
    reaps all of it, on every path out.
    """
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = subprocess.Popen([sys.executable, str(BENCH / "run.py"), *argv])
    try:
        return run.wait()
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        deadline = time.monotonic() + ORPHAN_GRACE
        while True:
            try:
                reaped, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if reaped == 0:
                if time.monotonic() > deadline:
                    for pid in children():
                        os.kill(pid, signal.SIGKILL)
                time.sleep(0.005)


def environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from repro.secagg import DEFAULT_MASK_PRG
    from repro.secagg.keys import TOY_GROUP, kex_name

    try:
        import cryptography  # noqa: F401

        has_cryptography = True
    except ImportError:
        has_cryptography = False
    cpu = "unknown"
    for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
        if line.lower().startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "cryptography": has_cryptography,
        "mask_prg": DEFAULT_MASK_PRG.name,
        "key_agreement": kex_name(TOY_GROUP),
    }


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def child_run(args, workload, trace, seed) -> dict:
    """Start one single run as a child and parse what it printed."""
    command = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--trace", str(trace),
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--out", str(args.out),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{' '.join(command)} printed no result:\n{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["info"] = next(
        json.loads(line[len(INFO_PREFIX):])
        for line in lines
        if line.startswith(INFO_PREFIX)
    )
    return result


def run_set(args, label: str) -> tuple[dict, bool]:
    """Every workload untraced ``--repeat`` times, then the traced pass."""
    import compare

    names = [args.workload] if args.workload else WORKLOADS
    report = {
        "git_sha": git_sha(),
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "quick" if args.quick else "full",
        "workloads": {},
    }
    correct = True
    for name in names:
        runs = [
            child_run(args, name, 0, args.seed + repeat)
            for repeat in range(args.repeat)
        ]
        report["workloads"][name] = runs
        correct &= all(run["correct"] for run in runs)
        print(f"\n{name}: {len(runs)} run(s), "
              f"{[run['info']['rounds'] for run in runs]} rounds")
        for metric in SPEC["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            print(
                f"  {metric['name']:24s} {statistics.median(values):14.4f} "
                f"{metric['unit']:6s}"
                + (f" spread {compare.spread(values):6.1%}" if len(runs) > 1 else "")
            )
        for key, value in runs[0]["info"].items():
            print(f"  {key:24s} {value}")
    # Written now and again below, so a traced pass that dies does not
    # take the end-to-end runs with it.
    path = args.out / f"bench-{label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    traced = child_run(args, names[0], 1, args.seed)
    report["per_layer"] = traced
    correct &= traced["correct"]
    print("\nper layer (traced pass)")
    for key, entry in traced["metrics"].items():
        print(f"  {key:44s} {entry['value']:16.6f} {entry['unit']}")
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nreport written to {path}")
    return report, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=pathlib.Path, default=BENCH / "out")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload, each on its own seed")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the whole set this many times and compare")
    parser.add_argument("--quick", action="store_true",
                        help="tiny shapes, for bench/test_bench.py only")
    parser.add_argument("--contained", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.out = args.out.resolve()
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.contained:
            return single_run(args)
        return contained_run(sys.argv[1:] + ["--contained"])

    args.out.mkdir(parents=True, exist_ok=True)
    correct = True
    paths = []
    for index in range(args.sets):
        label = chr(ord("A") + index) if args.sets > 1 else "run"
        _, ok = run_set(args, label)
        correct &= ok
        paths.append(args.out / f"bench-{label}.json")
    if args.sets > 1:
        import compare

        correct &= compare.report(paths[0], paths[1])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
