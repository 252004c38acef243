"""The ``arckit`` command, as the installed console script runs it.

    python3 benchmarks/arckit_cli.py resolve -m 2 -n 1 --lambda 'vv^'

Without ``ARCKIT_BENCH_TRACE`` this is exactly ``arckit.cli:main``.  With
``ARCKIT_BENCH_TRACE=FILE`` it times the ``arckit.cli`` import, wraps the
boundary functions (see ``tracer.py``) and, when the command returns,
writes the layer summary to FILE and the spans to FILE.spans.tsv; stdout
and the exit code are unchanged.
"""

import os
import sys

if __name__ == "__main__":
    trace_file = os.environ.get("ARCKIT_BENCH_TRACE")
    if not trace_file:
        from arckit.cli import main

        sys.exit(main())

    import json
    import time

    start = time.perf_counter()
    import arckit.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = arckit.cli.main()
    finally:
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write_spans(trace_file + ".spans.tsv")
    sys.exit(code)
