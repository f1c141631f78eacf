"""End-to-end benchmark of the ERASER reproduction: one workload per invocation.

Run from the root of the repository::

    python3 perfbench/run.py --workload decode-d7 --seed 1234 --seconds 35 --trace 0

Every run of the workload is a fresh interpreter (``perfbench/child.py``)
with the BLAS thread pools pinned to one thread.  One untimed warm-up run
comes first, then a few set-up-only runs, then as many timed runs as fit in
``--seconds`` (at least one).  Each timed run's output is checked; a run whose
check fails counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the runs).  With ``--trace 1`` one
traced run follows the timed ones; the last line then carries the per-layer
metrics, a table of self time per layer is printed above it, and the spans
are written to ``.perfbench/trace-<workload>-<seed>.json``.  An environment
header (commit, versions, CPU count, time, seed) heads every output.

The exit code is non-zero, with no result line, when the program cannot be
set up or no timed run completes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Where runs keep their temporary directories and the trace file.
WORK_DIR = ROOT / ".perfbench"

#: Set-up-only runs per invocation; with the timed runs they give the
#: samples whose median is ``setup_s``.
SETUP_RUNS = 4

#: Every invocation ends within this many seconds.
DEADLINE_S = 170.0

DEFAULT_SEED = 1234


class RunFailed(RuntimeError):
    """A child run exited non-zero, timed out or printed no result."""


def environment_header(workload: str, seed: int) -> Dict[str, object]:
    """Commit, source digest, versions, CPU count, time and seed of this run."""
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout that is not a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())

    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seed": seed,
    }


def thread_env() -> Dict[str, str]:
    """This process's environment with the BLAS thread pools at one thread."""
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float) -> Dict[str, object]:
    """One run in a fresh interpreter, in a temporary directory deleted after."""
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=WORK_DIR))
    try:
        proc = subprocess.run(
            [
                sys.executable, str(ROOT / "perfbench" / "child.py"),
                "--workload", workload, "--seed", str(seed),
                "--mode", mode, "--tmp", str(tmp),
            ],
            cwd=ROOT, env=thread_env(), stdin=subprocess.DEVNULL,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunFailed(f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(lines[-1])
        if mode == "traced":
            out.update(json.loads((tmp / "spans.json").read_text(encoding="utf-8")))
        return out
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} run passed the deadline") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end_metrics(runs: List[Dict], setup_samples: List[float]) -> Dict[str, Dict]:
    """Medians over the completed timed runs (``setup_s`` over all set-ups)."""
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in runs), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "shots_per_s": {
            "value": statistics.median(r["shots"] / r["wall_s"] for r in runs),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in runs), "unit": "MB"},
    }


def count_failures(runs: List[Optional[Dict]]) -> int:
    """Runs that crashed (``None``) or whose output check found problems."""
    return sum(1 for r in runs if r is None or r["problems"])


def result_line(runs: List[Optional[Dict]], metrics: Dict[str, Dict]) -> str:
    failed = count_failures(runs)
    return json.dumps(
        {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    )


def describe(index: int, run: Optional[Dict]) -> str:
    if run is None:
        return f"run {index}: crashed"
    return (
        f"run {index} ({run['mode']}): wall_s={run['wall_s']:.3f} cpu_s={run['cpu_s']:.3f} "
        f"setup_s={run['setup_s']:.3f} "
        f"shots={run['shots']} rss_mb={run['rss_mb']:.1f} problems={run['problems']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    header = environment_header(args.workload, args.seed)
    print("env " + json.dumps(header), flush=True)

    runs: List[Optional[Dict]] = []
    try:
        run_child(args.workload, args.seed, "warmup", deadline)
        setup_samples = [
            run_child(args.workload, args.seed, "setup", deadline)["setup_s"]
            for _ in range(SETUP_RUNS)
        ]
    except RunFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    # Timed runs fill --seconds: another starts only if a run of the mean
    # length so far still ends in time.
    started, elapsed = time.monotonic(), 0.0
    while not runs or elapsed * (len(runs) + 1) / len(runs) <= args.seconds:
        try:
            run = run_child(args.workload, args.seed, "timed", deadline)
        except RunFailed as exc:
            print(f"timed run failed: {exc}", file=sys.stderr)
            run = None
        runs.append(run)
        print(describe(len(runs), run), flush=True)
        elapsed = time.monotonic() - started
    completed = [r for r in runs if r is not None]
    if not completed:
        print("no timed run completed", file=sys.stderr)
        return 1
    setup_samples.extend(r["setup_s"] for r in completed)
    metrics = end_to_end_metrics(completed, setup_samples)
    if not args.trace:
        print(result_line(runs, metrics))
        return 0

    try:
        traced = run_child(args.workload, args.seed, "traced", deadline)
    except RunFailed as exc:
        print(f"traced run failed: {exc}", file=sys.stderr)
        return 1
    runs.append(traced)
    print(describe(len(runs), traced), flush=True)
    layers = tracing.layer_metrics(
        traced["spans"],
        traced["counters"],
        traced_wall_s=traced["wall_s"],
        untraced_wall_s=metrics["wall_s"]["value"],
        import_s=statistics.median(r["import_s"] for r in completed),
        construct_s=statistics.median(r["construct_s"] for r in completed),
        sweep_stats=traced.get("sweep_stats"),
    )
    print(tracing.layer_table(traced["spans"], traced["wall_s"]))
    trace_path = WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "env": header,
                "end_to_end": metrics,
                "per_layer": {k: v for k, (v, _) in layers.items()},
                "counters": traced["counters"],
                "spans": traced["spans"],
            }
        ),
        encoding="utf-8",
    )
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(result_line(runs, {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
