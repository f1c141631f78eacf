"""One run of one workload in a fresh interpreter; prints one JSON line.

Started by ``perfbench/run.py``, once per run::

    python3 perfbench/child.py --workload decode-d7 --seed 1234 --mode timed --tmp DIR

Modes:

* ``warmup`` -- set up, then import every module of ``repro`` (warms the
  ``.pyc`` files and the page cache); no call.
* ``setup`` -- set up only, to sample the set-up time.
* ``timed`` -- set up, make the workload's call, check its output.
* ``traced`` -- the same with spans around every layer; writes the spans and
  counters to ``DIR/spans.json``.

Set-up time runs from the first statement of this file, before ``repro`` is
imported, until the call is ready to be made.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# Before numpy is imported anywhere: one BLAS thread, as in the parent's env.
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _import_everything() -> None:
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        __import__(module.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("warmup", "setup", "timed", "traced"))
    parser.add_argument("--tmp", required=True, type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    names = workload.imports()
    t_imported = time.perf_counter()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    tracer = counters = None
    if args.mode == "traced":
        tracer, counters = tracing.Tracer(), tracing.Counters()
        tracing.install_layer_spans(tracer, counters)
    t_construct = time.perf_counter()
    call = workload.construct(names, args.seed, args.tmp)
    t_ready = time.perf_counter()
    out = {
        "mode": args.mode,
        "import_s": t_imported - T0,
        "construct_s": t_ready - t_construct,
        "setup_s": (t_imported - T0) + (t_ready - t_construct),
    }
    if args.mode == "warmup":
        _import_everything()
    elif args.mode in ("timed", "traced"):
        start, cpu_start = time.perf_counter(), time.process_time()
        result = call()
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu_start
        if tracer is not None:
            tracer.uninstall()
        summary = workload.summarize(result, args.tmp)
        out["shots"] = summary["shots"]
        out["problems"] = workload.check(summary)
        if args.mode == "traced":
            out["sweep_stats"] = summary.get("stats")
            with open(args.tmp / "spans.json", "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.spans, "counters": counters.as_dict()}, handle)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
