"""One benchmark pass: run CLI commands in this fresh interpreter.

    python3 passrun.py SPEC.json RESULT.json

SPEC is {"src": dir holding the `normcharts` package, "trace": span file or
null, "commands": [{"name", "argv", "log"}]}.  Each command goes through
`normcharts.cli.main(argv)` in turn, with its stdout and stderr written to
its log file.  RESULT gets the import time of `normcharts.cli`, each
command's exit code and seconds, the pass's own seconds (import plus
commands), and the monotonic times at which the import began and ended and
the pass ended, to match against the CPU speed samples.
"""

import contextlib
import json
import sys
import time
import traceback


def _run(cli, argv) -> int:
    try:
        return int(cli.main(argv))
    except SystemExit as e:  # argparse rejects bad arguments this way
        return e.code if isinstance(e.code, int) else 1
    except Exception:  # the CLI would end with a traceback: exit 1, as python does
        traceback.print_exc()
        return 1


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    window = [time.monotonic()]
    t0 = time.perf_counter()
    import normcharts.cli as cli

    import_s = time.perf_counter() - t0
    window.append(time.monotonic())
    recorder = None
    if spec.get("trace"):
        import tracer

        recorder = tracer.install()
    results = []
    t1 = time.perf_counter()
    for cmd in spec["commands"]:
        with open(cmd["log"], "w", encoding="utf-8") as log:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                t = time.perf_counter()
                rc = _run(cli, cmd["argv"])
                seconds = time.perf_counter() - t
        results.append({"name": cmd["name"], "log": cmd["log"], "rc": rc, "seconds": seconds})
    pass_s = import_s + time.perf_counter() - t1
    window.append(time.monotonic())
    if recorder is not None:
        recorder.dump(spec["trace"])
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(
            {"import_s": import_s, "pass_s": pass_s, "window": window, "commands": results}, f
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
