"""Run one `qeuler` command with spans around its body and its file output.

    python3 bench/cli_traced.py SPANS_JSON LAUNCHED COMMAND [ARGS...]

LAUNCHED is the caller's time.time() just before it started this process.
The spans file records, besides the spans, the time.time() at which the
command body began, so the caller can tell interpreter start and import
apart from the command's own work. Exits with the command's exit code.
"""

import sys
import time

from tracing import Tracer


def main(argv):
    spans_path, launched, command = argv[0], float(argv[1]), argv[2]
    import qeuler.cli
    import qeuler.jsonio

    tracer = Tracer()
    tracer.wrap(qeuler.jsonio, "save_json", "jsonio.save_json")
    tracer.wrap(qeuler.jsonio, "write_trace_csv", "jsonio.write_trace_csv")
    cmd = qeuler.cli.main.commands[command]
    body = cmd.callback
    began = []

    def timed_body(*args, **kwargs):
        began.append(time.time())
        return body(*args, **kwargs)

    cmd.callback = timed_body
    tracer.wrap(cmd, "callback", f"cli.{command}")
    try:
        qeuler.cli.main(argv[2:], prog_name="qeuler")
    finally:
        tracer.write(
            spans_path, {"launched": launched, "body_began": began[0] if began else None}
        )


if __name__ == "__main__":
    main(sys.argv[1:])
