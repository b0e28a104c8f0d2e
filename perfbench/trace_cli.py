"""Run one `unitary-powers` command with the benchmark's tracer installed.

    python3 perfbench/trace_cli.py REPORT.json SPANS.json COMMAND ARGS...

The command's output and exit code are those of the CLI; the tracer's
summary goes to REPORT.json and its spans to SPANS.json.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    report_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.case = " ".join(argv)
    from unitary_powers import cli

    try:
        return cli.main(argv)
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
        tracer.write_spans(spans_path)


if __name__ == "__main__":
    sys.exit(main())
