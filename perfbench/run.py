"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off; with ``--trace 1`` they are its per-layer
metrics, from a run with span wrappers installed.  The process exits
non-zero, without a result line, when the program is missing, an input
digest differs or a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import env

WORKLOADS = ("discover-large", "discover-wide", "serve-mixed")


def _definitions(trace: bool):
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        env.prepare()
        if args.workload == "serve-mixed":
            import serve_workload as workload
        else:
            import discover_workload as workload
        attempted, failed, values = workload.run(
            args.workload, args.seed, args.seconds, trace)
        metrics = {}
        for definition in _definitions(trace):
            name = definition["name"]
            value = values.get(name)
            if value is None and trace and name.startswith("serve.") \
                    and args.workload != "serve-mixed":
                value = 0.0  # a serve layer does not run in this workload
            if value is None:
                raise env.BenchError(f"workload did not measure {name}")
            metrics[name] = {"value": value, "unit": definition["unit"]}
    except env.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report any crash, then fail the run
        traceback.print_exc()
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
