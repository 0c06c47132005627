"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload battery-cold --seed 1 --seconds 15 --trace 0

Each set-up and the timed run happen in a fresh interpreter (child.py)
with a hermetic environment and a fresh temporary root inside the
checkout.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see layers.json).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness gate, a leaked ``/dev/shm`` segment or spool staging
directory, or a missing source tree exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Set-ups per run; set-up time is their median.
SETUP_REPS = 3
#: Every run, set-ups included, must end well inside three minutes.
RUN_BUDGET_S = 170.0
#: Settings that would override the ``auto`` defaults being measured.
SCRUBBED_ENV = (
    "REPRO_BACKEND", "REPRO_ENGINE", "REPRO_TRANSPORT", "REPRO_TRANSPORT_DIR",
    "REPRO_MP_START", "REPRO_SCALE_FULL",
)


def _hermetic_env(checkout: Path, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in SCRUBBED_ENV and not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(checkout / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONUNBUFFERED="1",
        TMPDIR=str(tmp),
    )
    return env


def _group_pids(pgid: int) -> list:
    """Live processes in one process group (a workload's whole tree)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


class TreeRss:
    """Polls VmHWM of every process in a group; keeps the maximum."""

    def __init__(self, pgid: int, interval: float = 0.25):
        self.pgid = pgid
        self.interval = interval
        self.peak_kb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        while not self._stop.is_set():
            for pid in _group_pids(self.pgid):
                try:
                    with open(f"/proc/{pid}/status") as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                self.peak_kb = max(self.peak_kb, float(line.split()[1]))
                                break
                except OSError:
                    pass
            self._stop.wait(self.interval)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_kb


def _shm_entries() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro")}
    except OSError:
        return set()


def _end_group(proc: subprocess.Popen, grace: float) -> list:
    """Wait for the child and every process it started; kill stragglers.

    Returns the pids that had to be killed."""
    deadline = time.monotonic() + grace
    try:
        proc.wait(timeout=max(0.1, grace))
    except subprocess.TimeoutExpired:
        pass
    stragglers = []
    while True:
        alive = _group_pids(proc.pid)
        if not alive:
            break
        if time.monotonic() > deadline:
            stragglers = alive
            os.killpg(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
        time.sleep(0.05)
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    return stragglers


class Child:
    """One child interpreter running one workload."""

    def __init__(self, args, checkout: Path, root: Path):
        tmp = root / "tmp"
        tmp.mkdir(parents=True)
        self.out = root / "result.json"
        self.log = open(root / "child.log", "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--root", str(root), "--out", str(self.out)],
            cwd=checkout, env=_hermetic_env(checkout, tmp),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            text=True, start_new_session=True,
        )

    def wait_ready(self, deadline: float) -> float:
        """Seconds from spawn to READY (raises when the child fails)."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if sel.select(timeout=0.5):
                    line = self.proc.stdout.readline()
                    if line.strip() == "READY":
                        return time.perf_counter() - self.started
                    if not line:
                        break
        raise RuntimeError("workload set-up failed or timed out")

    def finish(self, command: str, deadline: float) -> list:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.close()
        except OSError:
            pass
        stragglers = _end_group(self.proc, deadline - time.monotonic())
        self.log.close()
        return stragglers


def _tail(path: Path, lines: int = 40) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def _measure(args, checkout: Path, runs_dir: Path) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    shm_before = _shm_entries()
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs_dir))
    problems = []
    setups = []
    result = None
    try:
        for rep in range(SETUP_REPS):
            child = Child(args, checkout, root / f"rep{rep}")
            last = rep == SETUP_REPS - 1
            rss = TreeRss(child.proc.pid) if last else None
            try:
                setups.append(child.wait_ready(deadline))
            except RuntimeError as exc:
                problems.append(f"{exc}:\n{_tail(root / f'rep{rep}' / 'child.log')}")
                child.finish("quit", deadline)
                if rss:
                    rss.stop()
                break
            stragglers = child.finish("go" if last else "quit", deadline)
            if stragglers:
                problems.append(f"processes left running after the workload: {stragglers}")
            if last:
                peak_kb = rss.stop()
                try:
                    result = json.loads(child.out.read_text())
                except (OSError, ValueError):
                    problems.append("workload wrote no result:\n"
                                    + _tail(root / f"rep{rep}" / "child.log"))
        if time.monotonic() > deadline:
            problems.append(f"run exceeded {RUN_BUDGET_S:.0f} s")
        leaked = sorted(_shm_entries() - shm_before)
        if leaked:
            problems.append(f"leaked /dev/shm entries: {leaked}")
        staging = sorted(str(p.relative_to(root)) for p in root.rglob("*.tmp") if p.is_dir())
        if staging:
            problems.append(f"leaked spool staging directories: {staging}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "problems": problems, "stamp": {}}
    result["problems"] = problems + result["problems"]
    result["correct"] = result["correct"] and not problems
    if not args.trace:
        result["metrics"]["setup_s"] = sorted(setups)[len(setups) // 2]
        result["metrics"]["peak_rss_mb"] = max([peak_kb] + result["rss_kb"]) / 1024.0
    return result


def main() -> int:
    layers = json.loads((HERE / "layers.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(layers["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {checkout / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    runs_dir = checkout / ".perfbench-runs"
    runs_dir.mkdir(exist_ok=True)

    result = _measure(args, checkout, runs_dir)
    catalogue = layers["per_layer"] if args.trace else layers["end_to_end"]
    metrics = {}
    if result["correct"]:
        produced = result["metrics"]
        if args.trace:
            produced["bench.failed_share"] = result["failed"] / max(1, result["attempted"])
        for name, spec in catalogue.items():
            if name in produced:
                metrics[name] = {"value": produced[name], "unit": spec["unit"]}
            elif args.trace and args.workload not in spec["workloads"]:
                # A layer this workload never calls: nothing was recorded.
                metrics[name] = {"value": 0, "unit": spec["unit"]}
            else:
                result["problems"].append(f"metric {name} was not measured")
        unknown = sorted(set(produced) - set(catalogue))
        if unknown:
            result["problems"].append(f"metrics missing from layers.json: {unknown}")
        if not args.trace:
            zero = [n for n, m in metrics.items() if not m["value"] > 0]
            if zero:
                result["problems"].append(f"end-to-end metrics not positive: {zero}")
    correct = result["correct"] and not result["problems"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(result["stamp"], sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
