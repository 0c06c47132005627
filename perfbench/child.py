"""One workload in a fresh interpreter (started by run.py; not run directly).

Protocol: the child sets its workload up, prints ``READY`` on stdout and
waits for one line on stdin.  ``go`` runs the timed part and writes the
result JSON to ``--out``; anything else tears down and exits, which is how
run.py times repeated set-ups.  Everything else the child or the program
prints goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
import traceback
from pathlib import Path

from common import Context, environment_stamp, vmhwm_kb
from spans import Recorder

WORKLOADS = {
    "battery-cold": "battery_cold",
    "serve-mixed": "serve_mixed",
    "suite-slice": "suite_slice",
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    control = sys.stdout
    sys.stdout = sys.stderr
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=args.root,
        recorder=Recorder(enabled=bool(args.trace)),
        rng=random.Random(f"{args.workload}:{args.seed}"),
    )
    module = importlib.import_module(WORKLOADS[args.workload])
    state = module.setup(ctx)
    control.write("READY\n")
    control.flush()
    if sys.stdin.readline().strip() != "go":
        module.teardown(ctx, state)
        return 0
    metrics = {}
    try:
        metrics = module.run(ctx, state)
    except Exception:
        ctx.problems.append("workload raised:\n" + traceback.format_exc())
    finally:
        module.teardown(ctx, state)
    ctx.rss_kb.append(vmhwm_kb())
    ctx.stamp.update(environment_stamp(Path.cwd()), seed=args.seed)
    result = {
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
        "problems": ctx.problems,
        "rss_kb": ctx.rss_kb,
        "stamp": ctx.stamp,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
