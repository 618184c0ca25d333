"""One benchmark pass, run in its own process by run.py.

Usage: python3 pass_main.py JOB.json RESULT.json

The job lists ``dimred run`` argument vectors. Each is executed through
``dimred.cli.main`` in this process, timed, and its exit code and error
text recorded; a failing operation does not stop the pass. With
``"trace": true`` the package's public functions are wrapped first and the
spans are written to the result file at the end.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    import dimred.cli as cli

    recorder = None
    if job["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    ops = []
    for argv in job["ops"]:
        out, err = io.StringIO(), io.StringIO()
        span = recorder.open("cli.main") if recorder else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is recorded, the pass goes on
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if span:
            recorder.close(span)
        ops.append({"wall_s": wall, "exit_code": code, "error": err.getvalue()[-2000:]})

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "spans": recorder.spans if recorder else None}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
