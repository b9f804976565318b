"""Traced stand-in for ``python -m hardycheck.cli ARGV``.

Usage: cli_child.py SPAN_FILE ARGV...

Times ``import numpy`` and ``import hardycheck``, the argument parse and
``main(argv)``, with the module spans of ``tracer`` around the calls main
makes, and writes them to SPAN_FILE. Stdout, stderr and the exit code are
those of the real CLI, so the worker checks the process the same way.
"""

import time

t_start = time.perf_counter_ns()
import numpy  # noqa: E402

t_numpy = time.perf_counter_ns()
import hardycheck  # noqa: E402
import hardycheck.cli  # noqa: E402

t_import = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def run(span_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    timings = {"import_numpy_ns": t_numpy - t_start, "import_ns": t_import - t_start}
    t0 = time.perf_counter_ns()
    try:
        hardycheck.cli.build_parser().parse_args(argv)
    except hardycheck.UsageError:
        pass
    timings["parse_ns"] = time.perf_counter_ns() - t0
    tracer.install()
    tracer.begin_op()
    t0 = time.perf_counter_ns()
    try:
        return hardycheck.cli.main(argv)
    finally:
        timings["main_ns"] = time.perf_counter_ns() - t0
        tracer.end_op()
        tracer.uninstall()
        with open(span_file, "w") as fh:
            json.dump({"timings": timings, **tracer.dump()}, fh)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2:]))
