"""One benchmark repetition, run in a fresh interpreter.

Usage: ``python3 child.py RESULT_JSON SRC_DIR TRACE -- CLI_ARGS...``

Imports ``spreadmi.cli`` from ``SRC_DIR``, optionally installs the layer
tracer (``TRACE`` = 1), runs ``cli.main(CLI_ARGS)`` in the current
directory and writes its timings as JSON to ``RESULT_JSON``.  Times are
``time.monotonic()`` readings, which the parent process shares, so it
can measure from the moment it started this interpreter.
"""

import time
import sys


def main() -> int:
    result_path, src_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[5:]

    import spreadmi.cli as cli
    import_done = time.monotonic()

    import json
    import os
    import resource

    module_dir = os.path.realpath(os.path.dirname(cli.__file__))
    if not module_dir.startswith(os.path.realpath(src_dir) + os.sep):
        print(f"spreadmi imported from {module_dir}, not from {src_dir}",
              file=sys.stderr)
        return 3

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)
    else:
        run = cli.main

    main_start = time.monotonic()
    code = run(argv)
    main_done = time.monotonic()

    result = {
        "exit_code": code,
        "import_done": import_done,
        "main_start": main_start,
        "main_done": main_done,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from spreadmi import optimality
        info = optimality._mi_solution.cache_info()
        result["spans"] = tracer.spans
        result["solve_cache"] = {"hits": info.hits, "misses": info.misses}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
