#!/usr/bin/env python3
"""The repository benchmark: one workload, measured end to end or by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (the traced run).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics by their issue-level
names, with the commit, the machine fingerprint and the digest of the
simulated outputs.  See ``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fuzz", "grid_resume", "analyze", "service")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.setup_probe:
        workload = WORKLOADS[args.workload](
            args.seed, ROOT / ".perfbench_work" / "probe", args.tiny
        )
        workload.setup()
        state = workload.prepare()
        elapsed = time.perf_counter() - STARTED
        workload.cleanup(state)
        from harness import reference_s

        reference = sorted(reference_s() for _ in range(3))[1]
        print(json.dumps({"setup_s": elapsed, "reference_s": reference}))
        return 0

    from harness import measure

    result, detail = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
        tiny=args.tiny,
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={detail['passes']} digest={detail['digest']}")
    print("stamp " + json.dumps(detail["stamp"], sort_keys=True))
    print("passes " + json.dumps({"primary": detail["pass_primary"],
                                  "secondary": detail["pass_secondary"]}))
    print(f"  reference computation {detail['reference_s'] * 1e3:.2f} ms "
          "(median over passes); figures as measured, then scaled")
    for name, (value, scaled) in detail.get("named", {}).items():
        print(f"  {name:<36} {value:14.4f} {scaled:14.4f}")
    print(f"  {'failed_ratio':<36} {detail['failed_ratio']:14.4f}")
    print(f"  latency samples per pass {detail['latency_samples_per_pass']}, "
          f"set-up samples {len(detail['setup_samples'])}")
    for line in detail["problems"]:
        print(f"  FAILED: {line}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
