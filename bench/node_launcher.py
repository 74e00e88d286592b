"""Run one live chainacl node through the command line's ``node start``.

    python3 bench/node_launcher.py '<job json>'

The job names the node config, a ``--run-seconds`` cap, the output file
and whether to trace. The node stops at the cap or on SIGINT; this process
then writes the node's tip, state digest, block times, CPU seconds and,
when tracing, its span summary to the output file.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

import harness


def main(job: dict) -> int:
    harness.import_program()
    import chainacl.cli
    from chainacl.network import live

    nodes = []
    start = live.LiveNode.start

    def start_and_keep(self):
        nodes.append(self)
        return start(self)

    live.LiveNode.start = start_and_keep
    # a parent started in the background may hand down SIGINT ignored; the
    # node stops (and this process reports) on SIGINT, so reinstate it
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rc = chainacl.cli.main(["node", "start", "--config", job["config"], "--run-seconds", str(job["run_seconds"])])
    out = {"rc": rc, "stopped_at": time.time()}
    state = nodes[0].ledger_state() if nodes else None
    if state is not None:
        from chainacl.ledger import state_digest

        out.update(
            tip=state.tip_hash.hex(),
            digest=state_digest(state).hex(),
            height=state.height,
            block_times=[b.time for b in state.chain[1:]],
        )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        from tracing import write_spans

        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["spans_file"] = write_spans(tracer, "live_tcp", job["seed"], Path(job["config"]).stem)
    Path(job["out"]).write_text(json.dumps(out))
    return rc


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
