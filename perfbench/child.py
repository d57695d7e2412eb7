"""Worker run in a fresh interpreter for each timed ``fw`` command.

Usage: python3 child.py RESULT_JSON SPANS_JSON [FW_ARGS...]

Times ``import fwsolver.cli`` (the set-up every ``fw`` command pays), then
``fwsolver.cli.main(FW_ARGS)`` including all output it writes, and writes
a JSON record to RESULT_JSON.  SPANS_JSON is ``-`` for an untraced run;
otherwise the tracer is installed after the import and its spans are
written there.  With no FW_ARGS only the import is timed.  The exit code
is the command's.
"""

import sys
import time


def main() -> int:
    result_path, spans_path, fw_argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    # nothing else is imported before this, so the import starts cold
    t0 = time.perf_counter()
    import fwsolver.cli
    record = {"import_s": time.perf_counter() - t0,
              "fwsolver_file": fwsolver.cli.__file__}
    code = 0
    if fw_argv:
        tracer = None
        if spans_path != "-":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0 = time.process_time()
        t1 = time.perf_counter()
        try:
            code = fwsolver.cli.main(fw_argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        record["run_s"] = time.perf_counter() - t1
        record["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            tracer.write(spans_path)
    import json
    import resource
    record["exit_code"] = code
    record["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
