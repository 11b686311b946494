"""Traced stand-in for ``python -m qwave.cli``, used by cold-cli's traced run.

Usage: ``python perfbench/cli_hook.py SPANS_FILE <qwave cli arguments>``.
Times ``import qwave.cli`` as an ``import.qwave`` span, installs the tracer,
runs the same click entry point as ``python -m qwave.cli`` and writes the
spans to SPANS_FILE on exit, keeping the CLI's exit code.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import qwave.cli  # noqa: E402

imported = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> None:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add_span("import.qwave", start, imported)
    tracer.install()
    try:
        qwave.cli.main(args=args, prog_name="qwave")
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
