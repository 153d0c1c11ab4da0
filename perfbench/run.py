"""Paper-scale nightly maintenance benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload update_10k --seed 1 --seconds 36 \
        --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print the resolved configuration, every
metric by name with its unit, the dashboard read figures of an untraced
run, and the failure ratio.  The exit code is 0
only when every cycle, read and correctness check passed.

Every run uses the paper's scale: 500k ``pos`` rows and 10k changes per
cycle.  The self-tests (``python3 -m pytest perfbench``) run it smaller.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from nightly import WORKLOADS, RunConfig, run

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "maintain_s": "s",
    "visible_lag_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Dashboard read figures (untraced run), printed but not declared.
READ_FIGURES = {
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_tail_ms": "ms",
    "reads_per_s": "1/s",
}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    metric = name.split(".")[1]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio") or metric in ("coverage", "overhead"):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def add_source_path() -> bool:
    """Make the checkout's ``src`` importable; ``False`` when it is absent."""
    source = Path(__file__).resolve().parent.parent / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return False
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    return True


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not add_source_path():
        print("perfbench: no src/repro beside perfbench/; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    result = run(RunConfig(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    ))
    print("config " + json.dumps(result.config, sort_keys=True))
    metrics = {}
    for name, value in result.metrics.items():
        unit = layer_unit(name) if args.trace else END_TO_END[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    for name, value in result.read_figures.items():
        print(f"{name} {value:.6g} {READ_FIGURES[name]} "
              f"(of {result.read_samples} reads; not a declared metric)")
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"failed_ratio {ratio:.6g} ratio "
          f"({result.failed}/{result.attempted} operations failed; "
          f"{result.read_samples} read samples)")
    for failure in result.failures:
        print(f"failure: {failure}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
