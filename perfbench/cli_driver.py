"""Run one fiblti command in this fresh interpreter with the tracer on.

    python perfbench/cli_driver.py SUMMARY.json SPANS.jsonl ARG...

Times `import fiblti.cli` and `fiblti.cli.main(ARGS)` separately, records
spans and QuadRational counters during `main`, and writes both to the given
files.  The command's own output goes to stdout as usual.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import fiblti.cli  # noqa: E402

t1 = perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    t2 = perf_counter()
    try:
        code = fiblti.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    t3 = perf_counter()
    tracer.uninstall()
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2, "code": code, "summary": tracer.summary()}, fh)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
