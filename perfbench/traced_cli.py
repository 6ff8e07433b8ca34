"""Run `jetcalc` under the layer tracer.

    python3 perfbench/traced_cli.py TRACE_DIR verify --claim all ...

The main process and each forked worker append their tracer state to
TRACE_DIR/worker-<pid>.jsonl; run.py merges the files.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main():
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    import jetcalc.cli
    tracer = Tracer(worker_dir=trace_dir).install()
    try:
        code = jetcalc.cli.main(argv)
    finally:
        tracer.on = False
        tracer.flush_worker()
    return code


if __name__ == "__main__":
    sys.exit(main())
