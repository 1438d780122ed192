"""One CLI invocation in a fresh interpreter, timed from the inside.

Usage: child.py RESULT_JSON [--import-only] [--trace SPANS_JSON] -- CLI_ARGS...

Times ``import polysl2.cli`` (the cold start every shell invocation pays),
then ``cli.main(CLI_ARGS)``, and writes import_s, wall_s, the exit code and
the process's peak RSS to RESULT_JSON.  Only ``sys`` and ``time`` are
imported before the import timer starts.  With --trace, spans are recorded
around the library's layer boundaries and written to SPANS_JSON after main
returns.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import polysl2.cli as cli

    import_s = time.perf_counter() - t0

    import json
    import resource
    import traceback

    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1 :]
    result_path = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    out = {"import_s": import_s, "module_file": cli.__file__}
    if "--import-only" not in opts:
        tracer = None
        if trace_path is not None:
            from tracer import Tracer

            tracer = Tracer(invocation=result_path)
            tracer.install()
        error = None
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(cli_args)
        except Exception:
            code, error = None, traceback.format_exc()
        out["wall_s"] = time.perf_counter() - t1
        out["cpu_s"] = time.process_time() - c1
        out["exit"] = code
        out["error"] = error
        if tracer is not None:
            tracer.dump(trace_path)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
