"""Run ``repro serve`` in this process, optionally traced.

Usage: ``python3 perfbench/launcher.py [--trace-out PATH] -- <serve args>``.
With ``--trace-out`` the span wrappers are installed before the server
starts and the recorded spans are written to PATH once it has shut down
(SIGTERM drains it).
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1:]
    trace_out = options[options.index("--trace-out") + 1] \
        if "--trace-out" in options else None
    recorder = tracing.install(tracing.Recorder(), serve=True) \
        if trace_out else None
    import repro.cli

    code = repro.cli.main(["serve", *serve_args])
    if recorder is not None:
        recorder.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
