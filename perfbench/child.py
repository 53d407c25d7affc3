"""One benchmark iteration in a fresh process.

Usage: python3 child.py JOB_JSON REPORT_JSON

Widens its CPU mask to the job's CPUs (it starts on one of them), so the
process and any worker it starts may use every CPU.  Imports ewagg and
ewagg.cli, writes the job's generated input files into the
working directory, records the ready time (the end of set-up), then calls
ewagg.cli.main(argv) once per command, capturing stdout and stderr.  With
"trace" set in the job, the layer functions are wrapped for the commands and
unwrapped afterwards.  The report holds per-command exit codes, output text
and durations, the peak RSS, and, when traced, the per-layer summary.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    job_path, report_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    os.sched_setaffinity(0, job["cpus"])

    import numpy
    import ewagg
    import ewagg.cli

    src = os.path.realpath(job["src"])
    if not os.path.realpath(ewagg.__file__).startswith(src + os.sep):
        print(f"ewagg was imported from {ewagg.__file__}, not from {src}", file=sys.stderr)
        return 2
    for name, text in job["inputs"].items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    commands = []
    try:
        for argv in job["commands"]:
            out, err = io.StringIO(), io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = ewagg.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code, error = exc.code, f"SystemExit({exc.code!r})"
            except Exception:
                code, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            commands.append(
                {"code": code, "error": error, "stdout": out.getvalue(),
                 "stderr": err.getvalue(), "seconds": elapsed}
            )
    finally:
        if tracer is not None:
            tracer.uninstall()

    report = {
        "ready": ready,
        "commands": commands,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        wall = sum(command["seconds"] for command in commands)
        report["layers"] = spans.summarise(tracer.spans, wall)
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump({"names": spans.LAYER_NAMES, "spans": tracer.spans}, fh)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
