"""Run one tomobell CLI command (an op) in this fresh process and report it.

Usage: python child.py SPEC.json

SPEC.json holds ``{"argv": [...], "trace": bool, "op": int, "result": path}``.
The process imports ``tomobell.cli``, notes the CLOCK_MONOTONIC time at which
the import finished (the parent noted the spawn time on the same clock),
optionally installs span tracing, then calls the click group exactly as the
``tomobell`` entry point does.  The result file records the exit code, the
command time (group call to return, import excluded), the peak RSS and CPU
time of this process, and the spans when traced.
"""

import json
import resource
import sys
import time


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import tomobell.cli as cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install(spec["op"])

    start = time.perf_counter()
    try:
        cli.main.main(args=spec["argv"], prog_name="tomobell")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    wall = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": code,
        "ready": ready,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "module": cli.__file__,
        "spans": tracer.spans if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
