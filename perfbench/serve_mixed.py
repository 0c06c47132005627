"""serve-mixed: the read path of ``repro serve run --jobs 2``.

Set-up starts the service in a subprocess and primes 4 models x 6 seeds at
n=600.  The timed part has three phases:

* warm — a closed loop of Zipf-weighted hits on the primed keys over 2
  connections, then over 1 connection;
* open — hits sent on a fixed 250 req/s schedule from 2 sender threads,
  each timed from when it was due (so a stall also counts against the
  requests queued behind it);
* cold — a fixed batch of fresh keys rotating over the four models on 2
  connections, each driving the pool through generate, publish, attach
  and measure.  Its wall and rate are the end-to-end numbers.

The warm and open numbers are per-layer metrics: on a shared 2-vCPU host
they swung by up to a third between identical runs (the open-loop p99
several-fold), wider than any bound the end-to-end metrics may have.

Untimed checks follow: barrier-paired sends of fresh keys must coalesce
(one generation, one coalesce hit per pair) and sampled served values must
equal ``summarize()`` run in-process.
"""

from __future__ import annotations

import gc
import re
import signal
import subprocess
import sys
import threading
import time
from array import array

from common import median, min_samples_for, percentile, same_values, trace_overhead

N = 600
MODELS = ("albert-barabasi", "waxman", "glp", "inet")
PRIME_SEEDS = 6
CONNECTIONS = 2
OPEN_RATE = 250.0
P99_SAMPLES = min_samples_for(99)
#: The open phase must give p99 ten samples beyond it at OPEN_RATE.
OPEN_MIN_S = P99_SAMPLES / OPEN_RATE
COALESCE_PAIRS = 3
COUNTERS = {
    "serve.generations": "serve.generations.computed",
    "serve.cells_computed": "serve.cells.computed",
    "serve.cells_cached": "serve.cells.cached",
    "serve.coalesce_hits": "serve.coalesce.hits",
    "serve.rejected": "serve.rejected",
}


class Calls:
    """Client calls of one phase: latencies and response kinds."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latency = []  # seconds, as the phase defines it
        self.service = {"hit": [], "miss": []}  # send-to-response seconds
        self.late = []
        self.generated = 0
        self.failed = 0
        self.responses = {}


def _call(ctx, state, calls: Calls, key, phase: str, due: float = None) -> None:
    model, seed = key
    sent = time.perf_counter()
    try:
        with ctx.recorder.span("ServeClient.summarize", phase=phase):
            response = state["client"].summarize(model, N, seed=seed)
    except Exception as exc:  # refused, timed out or non-200: a failed call
        response = None
        error = exc
    done = time.perf_counter()
    with calls.lock:
        if response is None:
            calls.failed += 1
            ctx.problems.append(f"{phase} request {key} failed: {error}")
            return
        kind = "miss" if response["computed_groups"] else "hit"
        calls.service[kind].append(done - sent)
        calls.latency.append(done - (sent if due is None else due))
        if due is not None:
            calls.late.append(sent - due)
        calls.generated += response["generated"]
        calls.responses[key] = response


def _closed_loop(ctx, state, keys, phase, seconds=None, connections=CONNECTIONS):
    """*connections* clients, each sending its next key after a reply.

    Runs through *keys* once, or — when *seconds* is given — for at least
    *seconds* and until p99 has TAIL_SAMPLES beyond it.  Stops at the
    first failed call: the gate has failed by then."""
    calls = Calls()
    cursor = iter(keys)
    lock = threading.Lock()
    started = time.perf_counter()

    def client():
        while not calls.failed and (
            seconds is None or time.perf_counter() - started < seconds
            or len(calls.latency) < P99_SAMPLES
        ):
            with lock:
                key = next(cursor, None)
            if key is None:
                return
            _call(ctx, state, calls, key, phase)

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    ctx.count(len(calls.latency) + calls.failed, calls.failed)
    return calls, wall


def _open_loop(ctx, state, keys, seconds):
    """Sends key i at start + i / OPEN_RATE from CONNECTIONS sender threads."""
    calls = Calls()
    total = int(OPEN_RATE * seconds)
    lock = threading.Lock()
    index = [0]
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                i = index[0]
                index[0] += 1
            if i >= total:
                return
            due = start + i / OPEN_RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            _call(ctx, state, calls, keys[i % len(keys)], "open", due=due)

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ctx.count(total, calls.failed)
    return calls


class _ZipfKeys:
    """*count* draws over *keys*, key of rank r weighted 1/(r+1) (ranks
    shuffled by the seed); stored as indexes to keep the client light."""

    def __init__(self, ctx, keys, count):
        self.ranked = list(keys)
        ctx.rng.shuffle(self.ranked)
        weights = [1.0 / (rank + 1) for rank in range(len(self.ranked))]
        self.picks = array("H", ctx.rng.choices(range(len(self.ranked)), weights=weights, k=count))

    def __len__(self):
        return len(self.picks)

    def __getitem__(self, i):
        return self.ranked[self.picks[i]]


def setup(ctx):
    from repro.serve import ServeClient

    root = ctx.root / "serve"
    log = open(ctx.root / "server.log", "w")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "run", "--jobs", "2",
         "--port", "0", "--root", str(root)],
        stdout=subprocess.PIPE, stderr=log, text=True,
    )
    state = {"server": server, "log": log, "root": root}
    match = re.search(r"serving on (http://\S+)", server.stdout.readline())
    if match is None:
        teardown(ctx, state)
        raise RuntimeError("the service did not start (see server.log)")
    client = ServeClient(match.group(1), timeout=60.0)
    client.health()
    cold = max(8, round(1.6 * ctx.seconds))
    seeds = ctx.rng.sample(range(1, 10**6), PRIME_SEEDS + cold + COALESCE_PAIRS)
    fresh = [(MODELS[i % len(MODELS)], s) for i, s in enumerate(seeds[PRIME_SEEDS:])]
    state.update(
        client=client,
        primed=[(m, s) for s in seeds[:PRIME_SEEDS] for m in MODELS],
        cold=fresh[:cold],
        pairs=fresh[cold:],
    )
    calls, _ = _closed_loop(ctx, state, state["primed"], "prime")
    state["prime"] = calls
    return state


def teardown(ctx, state):
    server = state["server"]
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    server.stdout.close()
    state["log"].close()


def _counters(state):
    return state["client"].stats()["counters"]


def _delta(after, before):
    return {name: after.get(c, 0) - before.get(c, 0) for name, c in COUNTERS.items()}


def _expected(model, seed):
    from repro.core.metrics import summarize
    from repro.core.registry import make_generator

    return summarize(make_generator(model).generate(N, seed=seed), seed=seed).as_dict()


def run(ctx, state):
    gate = ctx.check
    primed = state["primed"]
    prime = state["prime"]
    gate(not prime.failed and prime.generated == len(primed),
         f"priming generated {prime.generated} of {len(primed)} keys")
    cold_keys = state["cold"]

    # Keep the client's collections short: what set-up allocated never
    # needs scanning again.
    gc.collect()
    gc.freeze()
    counters = [_counters(state)]
    warm, warm_wall = _closed_loop(ctx, state, _ZipfKeys(ctx, primed, 10**5), "warm",
                                   0.4 * ctx.seconds)
    single, single_wall = _closed_loop(ctx, state, _ZipfKeys(ctx, primed, 10**5),
                                       "warm", 0.3 * ctx.seconds, connections=1)
    counters.append(_counters(state))
    opened = _open_loop(ctx, state, _ZipfKeys(ctx, primed, 10**4),
                        max(0.3 * ctx.seconds, OPEN_MIN_S))
    counters.append(_counters(state))
    cold, cold_wall = _closed_loop(ctx, state, cold_keys, "cold")
    counters.append(_counters(state))
    deltas = [_delta(b, a) for a, b in zip(counters, counters[1:])]

    gate(deltas[0]["serve.generations"] == 0 and not warm.generated and not single.generated,
         "the warm phase generated topologies")
    gate(deltas[1]["serve.generations"] == 0 and not opened.generated,
         "the open phase generated topologies")
    gate(deltas[2]["serve.generations"] == len(cold_keys)
         and cold.generated == len(cold_keys),
         f"the cold phase made {deltas[2]['serve.generations']} generations "
         f"for {len(cold_keys)} fresh keys")
    gate(all(d["serve.rejected"] == 0 for d in deltas), "the service rejected requests")
    _check_coalescing(ctx, state)
    for key in ctx.rng.sample(primed, 2) + cold_keys[:1]:
        response = prime.responses.get(key) or cold.responses.get(key) or {}
        gate(same_values(response.get("values", {}), _expected(*key)),
             f"served values for {key} differ from summarize()")

    if not ctx.trace:
        return {"wall_s": cold_wall, "cold_rps": len(cold_keys) / cold_wall}
    out = {name: sum(d[name] for d in deltas) for name in COUNTERS}
    phases = (warm, single, opened, cold)
    out.update({
        "serve.warm_rps": len(single.latency) / single_wall,
        "serve.warm_p50_ms": 1e3 * percentile(single.latency, 50),
        "serve.warm_p99_ms": 1e3 * percentile(single.latency, 99),
        "loadgen.warm_2conn_rps": len(warm.latency) / warm_wall,
        "loadgen.open_p50_ms": 1e3 * percentile(opened.latency, 50),
        "loadgen.open_p99_ms": 1e3 * percentile(opened.latency, 99),
        "serve.hit_ms": 1e3 * median([x for c in phases for x in c.service["hit"]]),
        "serve.miss_ms": 1e3 * median([x for c in phases for x in c.service["miss"]]),
        "loadgen.late_ms": 1e3 * sum(opened.late) / len(opened.late),
    })
    overhead_calls = Calls()
    out["bench.trace_overhead_share"] = trace_overhead(
        ctx, "request", lambda key: _call(ctx, state, overhead_calls, key, "overhead"),
        _ZipfKeys(ctx, primed, 10**4), 0.2 * ctx.seconds,
    )
    ctx.count(len(overhead_calls.latency) + overhead_calls.failed, overhead_calls.failed)
    out.update(_time_cache(ctx, state))
    return out


def _check_coalescing(ctx, state):
    """Each fresh key sent from both connections at once: one generation."""
    for key in state["pairs"]:
        calls = Calls()
        barrier = threading.Barrier(CONNECTIONS)

        def send():
            barrier.wait()
            _call(ctx, state, calls, key, "pair")

        before = _counters(state)
        threads = [threading.Thread(target=send) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        delta = _delta(_counters(state), before)
        ctx.count(CONNECTIONS, calls.failed)
        ctx.check(
            delta["serve.generations"] == 1 and delta["serve.coalesce_hits"] == 1,
            f"paired sends of {key}: {delta['serve.generations']} generations, "
            f"{delta['serve.coalesce_hits']} coalesce hits (want 1 and 1)",
        )


def _time_cache(ctx, state):
    """Time ResultCache gets of the served cells on the service's root, and
    puts of the same values into a scratch cache."""
    from repro.core.cache import ResultCache

    rec = ctx.recorder
    served = ResultCache(state["root"] / "cells")
    scratch = ResultCache(ctx.root / "put-cells")
    cells = sorted(served.root.rglob("*.json"))
    hits = 0
    for path in cells:
        with rec.span("ResultCache.get"):
            value = served.get(path.stem)
        hits += value is not None
        with rec.span("ResultCache.put"):
            scratch.put(path.stem, value)
    return {
        "cache.get_ms": rec.mean_ms("ResultCache.get"),
        "cache.put_ms": rec.mean_ms("ResultCache.put"),
        "cache.bytes_written": sum(p.stat().st_size for p in cells),
        "cache.hit_share": hits / len(cells),
    }
