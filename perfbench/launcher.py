"""Start ``python -m repro.service``, optionally with layer tracing.

    python3 perfbench/launcher.py [--trace-dir DIR] -- <daemon arguments>

With ``--trace-dir`` the wrappers of :mod:`tracing` are installed before
``repro.service.__main__.main`` runs, so the dispatcher and every forked
shard worker record spans.  Each process writes its spans to ``DIR``
when it ends: ``worker-<pid>.json`` when a worker's loop returns,
``daemon.json`` after the daemon's graceful shutdown (SIGINT).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("daemon_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    daemon_args = args.daemon_args
    if daemon_args[:1] == ["--"]:
        daemon_args = daemon_args[1:]
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    tracer = None
    if args.trace_dir:
        from tracing import Tracer

        trace_dir = Path(args.trace_dir)
        tracer = Tracer()
        tracer.install()
        import repro.service.dispatcher as dispatcher

        original = dispatcher.worker_main

        @functools.wraps(original)
        def traced_worker_main(*worker_args, **worker_kwargs):
            tracer.reset()
            try:
                return original(*worker_args, **worker_kwargs)
            finally:
                tracer.dump(trace_dir / f"worker-{os.getpid()}.json")

        dispatcher.worker_main = traced_worker_main
    from repro.service.__main__ import main as daemon_main

    try:
        return daemon_main(daemon_args)
    finally:
        if tracer is not None:
            tracer.dump(trace_dir / "daemon.json")


if __name__ == "__main__":
    sys.exit(main())
