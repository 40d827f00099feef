"""Run one ringbf CLI invocation in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/launcher.py <subcommand> [options]

Exits with the code ``ringbf.io_cli.cli_dispatch`` returns.  When the
environment variable PERFBENCH_TRACE names a file, the same invocation runs
with the layer functions wrapped (see tracing.py) and its spans are written
to that file at exit; the argv is identical either way.
"""
import os
import sys


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if trace_path:
        import tracing

        return tracing.run_traced(sys.argv[1:], trace_path)
    from ringbf.io_cli import cli_dispatch

    return cli_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
