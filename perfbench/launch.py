"""Run the vveis CLI with the benchmark's tracer installed.

    python3 perfbench/launch.py <vveis arguments...>

Traced cli-pipeline passes start each child through this file.  It times
the import of vveis.cli, installs the wrappers, runs the CLI and writes the
spans as ``<pid>.json`` into the directory named by PERFBENCH_SPANS_DIR.
"""

import json
import os
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import vveis.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = vveis.cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        doc = tracing.dump(tracer)
        doc["import_s"] = import_s
        out = Path(os.environ["PERFBENCH_SPANS_DIR"]) / f"{os.getpid()}.json"
        out.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
