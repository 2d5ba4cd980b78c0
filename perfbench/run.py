#!/usr/bin/env python3
"""Layer-resolved verification benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the verifier from source with dune, runs one workload, checks
every verdict, and prints as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured with
tracing off; with --trace 1 they are the per-layer ones, measured by a
separate run that replays the fixpoints layer by layer (see README.md).
Everything it writes goes under .bench_run/ in the repository root.
"""

import argparse
import json
import os
import platform
import random
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = "_build/default/perfbench/perfbench.exe"
ICVD = "_build/default/bin/icvd.exe"
RUN_ROOT = ".bench_run"
DEADLINE_S = 170.0  # a run must end within 180 s
T0 = time.monotonic()


def job(jid, expect, method="xici", batch=False, **model):
    j = {"id": jid, "model": model, "method": method, "expect": expect}
    if batch:
        j["batch"] = True
    return j


# One-shot workloads: the paper's Table 1-3 rows, each job run through
# the real driver in a process of its own.
ONESHOT = {
    # The paper's own contribution dominates: policy evaluation plus the
    # exact termination test take most of the solve, back-image little.
    # The bug variant adds counterexample extraction.
    "xici-policy": [
        job("cpu-2R2B", "proved", family="cpu", regs=2, width=2, assisted=False, bug=False),
        job("cpu-2R2B-bug", "violated", family="cpu", regs=2, width=2, assisted=False, bug=True),
        job("cpu-4R1B", "proved", family="cpu", regs=4, width=1, assisted=False, bug=False),
    ],
    # Same engine, but back_image takes almost all of the solve: image
    # changes show here, policy or termination changes should not.
    "xici-image": [
        job("abp-8", "proved", family="abp", width=8, bug=False),
        job("filter-16", "proved", family="filter", depth=16, width=8, assisted=False, bug=False),
    ],
    # The monolithic Table-1 baselines: forward relational product and
    # back-image of one large BDD; the ici layer does not run.
    "mono-image": [
        job("fifo-9-fwd", "proved", "fwd", family="fifo", depth=9, width=8, bound=128, bug=False),
        job("network-6-bkwd", "proved", "bkwd", family="network", procs=6, bug=False),
    ],
}

# icvd-closed: a seeded stream of small jobs, in blocks of eight with a
# fixed mix so any whole number of blocks has the same work whatever
# the seed.  One fifo job per block carries a bound not used before, so
# about one job in eight misses the daemon's frozen-model cache.
FIFO = dict(family="fifo", depth=5, width=8, bug=False)
NET3 = dict(family="network", procs=3, bug=False)
FILTER4 = dict(family="filter", depth=4, width=8, assisted=False, bug=False)
BLOCK = [
    ("fifo", "proved", "xici", False, dict(FIFO, bound=128)),
    ("fifo-fresh", "proved", "xici", False, None),
    ("fifo-bug", "violated", "xici", False, dict(FIFO, bound=128, bug=True)),
    ("network", "proved", "xici", False, NET3),
    ("network", "proved", "xici", False, NET3),
    ("filter", "proved", "xici", False, FILTER4),
    ("network-bkwd", "proved", "bkwd", False, NET3),
    ("fifo-batch", "proved", "xici", True, dict(FIFO, bound=128)),
]
CONNECTIONS = 2
OUTSTANDING = 2  # per connection: a closed loop
WARMUP_JOBS = 40  # the daemon's cold start, left out of every figure
COUNTED_JOBS = 160  # steady-state stream window the work figures cover
SPAWNS = 7  # daemon start-ups timed for setup_s


class Stream:
    def __init__(self, seed):
        self.seed = seed
        bounds = [b for b in range(1, 255) if b != 128]
        random.Random(f"{seed}:bounds").shuffle(bounds)
        self.fresh = bounds

    def __call__(self, k):
        b, pos = divmod(k, len(BLOCK))
        order = list(range(len(BLOCK)))
        random.Random(f"{self.seed}:{b}").shuffle(order)
        name, expect, method, batch, model = BLOCK[order[pos]]
        if model is None:
            model = dict(FIFO, bound=self.fresh[b % len(self.fresh)])
        return job(f"j{k}-{name}", expect, method, batch, **model)


def kind(j):
    """The block slot name a stream job was made from."""
    return j["id"].split("-", 1)[1]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining():
    return DEADLINE_S - (time.monotonic() - T0)


def quantile(xs, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i + 1 >= len(xs):
        return xs[i]
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def spec_key(j):
    return json.dumps([j["model"], j["method"], j.get("batch", False)], sort_keys=True)


def wire(j):
    return {k: v for k, v in j.items() if k != "expect"}


def perfbench(mode, jobs, rundir, *extra):
    path = os.path.join(rundir, f"{mode}-jobs.json")
    with open(path, "w") as f:
        json.dump(jobs, f)
    out = subprocess.run(
        [PERFBENCH, mode, "--jobs", path, *extra],
        stdout=subprocess.PIPE,
        check=True,
        timeout=max(1.0, remaining()),
    )
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


# --- icvd ----------------------------------------------------------------


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())

    def events(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise RuntimeError("icvd closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def request(self, obj, want):
        self.send(obj)
        while True:
            for ev in self.events():
                if want(ev):
                    return ev

    def close(self):
        self.sock.close()


class Daemon:
    """The shipped icvd as scripts/daemon_smoke runs it: 2 workers,
    checkpoint dir on.  Spawned and measured until it answers a ping."""

    def __init__(self, rundir, n):
        self.sock = os.path.join(rundir, f"icvd-{n}.sock")
        self.log = open(os.path.join(rundir, f"icvd-{n}.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [ICVD, "--socket", self.sock, "--workers", "2",
             "--checkpoint-dir", os.path.join(rundir, f"ckpt-{n}"), "--deadline", "120"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.log,
        )
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"icvd exited early with {self.proc.returncode}")
                try:
                    conn = Conn(self.sock)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    if time.perf_counter() - t0 > 30:
                        raise RuntimeError("icvd never became ready")
                    time.sleep(0.001)
            conn.request({"type": "ping"}, lambda ev: ev.get("type") == "pong")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready_s = time.perf_counter() - t0
        conn.close()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for icvd")

    def stop(self):
        try:
            Conn(self.sock).send({"type": "shutdown"})
            self.proc.wait(timeout=20)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def closed_loop(daemon, stream, seconds):
    """CONNECTIONS clients, each keeping OUTSTANDING jobs in flight and
    submitting the next job when a result arrives, until the run time
    is up and the counted window of the stream has been submitted; then
    drain.  Latency is taken on this clock only: submit write to result
    read."""
    conns = [Conn(daemon.sock) for _ in range(CONNECTIONS)]
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    inflight = {}  # id -> (stream index, job, submit time)
    done = {}  # stream index -> (job, event, submit time, read time)
    retries = 0
    next_k = 0
    t_start = time.perf_counter()

    def submit(c):
        nonlocal next_k
        j = stream(next_k)
        inflight[j["id"]] = (next_k, j, time.perf_counter())
        c.send(wire(j))
        next_k += 1

    for c in conns:
        for _ in range(OUTSTANDING):
            submit(c)
    while inflight:
        if remaining() < 20:
            raise RuntimeError(f"icvd load did not finish: {len(done)} jobs done")
        for key, _ in sel.select(timeout=1.0):
            c = key.data
            evs = c.events()
            t = time.perf_counter()
            for ev in evs:
                typ = ev.get("type")
                if typ == "retry":
                    retries += 1
                if typ not in ("result", "rejected"):
                    continue
                k, j, t_sub = inflight.pop(ev["id"])
                done[k] = (j, ev, t_sub, t)
                if t - t_start < seconds or next_k < WARMUP_JOBS + COUNTED_JOBS:
                    submit(c)
    stats = conns[0].request({"type": "stats"}, lambda ev: ev.get("type") == "stats")
    prom = conns[0].request({"type": "stats", "format": "prom"}, lambda ev: "prom" in ev)
    for c in conns:
        c.close()
    counters = {}
    for line in prom["prom"].splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            counters[parts[0]] = float(parts[1])
    return done, retries, stats, counters


def icvd_closed(args, rundir):
    stream = Stream(args.seed)
    setups = []
    for n in range(SPAWNS - 1):
        d = Daemon(rundir, n)
        setups.append(d.ready_s)
        d.stop()
    daemon = Daemon(rundir, SPAWNS - 1)
    setups.append(daemon.ready_s)
    try:
        done, retries, stats, counters = closed_loop(daemon, stream, args.seconds)
        peak_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    results = {k: r for k, r in done.items() if r[1]["type"] == "result"}
    failed = len(done) - len(results)
    failed += sum(1 for _, ev, _, _ in results.values() if ev["report"]["status"] == "exceeded")

    # Verdict oracle: each distinct spec once through the one-shot
    # drivers (which check expected verdicts and replay traces), then
    # every daemon verdict against its spec's one-shot verdict.
    specs = {}
    for j, _, _, _ in done.values():
        specs.setdefault(spec_key(j), dict(j, id=f"spec{len(specs)}"))
    verified = perfbench("solve", list(specs.values()), rundir)
    by_id = {row["id"]: row["report"] for row in verified["jobs"]}
    reports = {key: by_id.get(spec["id"]) for key, spec in specs.items()}
    wrong = list(verified["wrong"])
    for j, ev, _, _ in results.values():
        word = ev["report"]["status"]
        want = (reports[spec_key(j)] or {}).get("status")
        if word != "exceeded" and (word != want or word != j["expect"]):
            wrong.append(f"{j['id']}: icvd {word}, one-shot {want}, expected {j['expect']}")

    # Steady state only: the first WARMUP_JOBS pay the daemon's cold
    # start (first build and freeze of every model), which a resident
    # daemon's users do not.
    steady = {k: r for k, r in results.items() if k >= WARMUP_JOBS}
    lat = {k: t - t_sub for k, (_, _, t_sub, t) in steady.items()}
    reads = sorted(t for _, _, _, t in results.values())
    window = [done[k] for k in range(WARMUP_JOBS, WARMUP_JOBS + COUNTED_JOBS)]

    def oneshot_total(field):
        return float(sum(reports[spec_key(j)][field] for j, _, _, _ in window))

    # Each window job is charged its kind's median daemon solve time: a
    # job's own time swings with which worker manager it reuses.
    kind_solve = {}
    for j, ev, _, _ in steady.values():
        kind_solve.setdefault(kind(j), []).append(ev["report"]["wall_seconds"])
    kind_solve = {k: statistics.median(v) for k, v in kind_solve.items()}

    e2e = {
        "setup_s": statistics.median(setups),
        "solve_s": sum(kind_solve[kind(j)] for j, _, _, _ in window),
        "nodes_created": oneshot_total("nodes_created"),
        "peak_live_nodes": oneshot_total("peak_live_nodes"),
        "peak_set_nodes": oneshot_total("peak_set_nodes"),
        "iterations": oneshot_total("iterations"),
        "peak_heap_mb": peak_mb,
        "jobs_per_s": (len(reads) - WARMUP_JOBS) / (reads[-1] - reads[WARMUP_JOBS - 1]),
        "e2e_s.p50": quantile(lat.values(), 0.5),
        "e2e_s.p99": quantile(lat.values(), 0.99),
    }
    hist = stats["latency"]
    thaw_s = hist["srv.thaw_ms"]["p50"] / 1000.0
    queue = [ev["queue_s"] for _, ev, _, _ in steady.values()]
    lag = [lat[k] - ev["queue_s"] - ev["report"]["wall_seconds"] - thaw_s
           for k, (_, ev, _, _) in steady.items()]
    # Stream jobs spell out exactly the fields Jobspec.canonical reads,
    # so distinct model objects are distinct frozen-model cache keys.
    models = {json.dumps(j["model"], sort_keys=True) for j, _, _, _ in done.values()}
    layers = {
        "srv.queue_s.p50": quantile(queue, 0.5),
        "srv.queue_s.p99": quantile(queue, 0.99),
        "srv.thaw_ms.p50": hist["srv.thaw_ms"]["p50"],
        "srv.solve_ms.p50": hist["srv.solve_ms"]["p50"],
        "srv.delivery_lag_s.p50": quantile(lag, 0.5),
        "srv.model_cache_hit_ratio": 1.0 - len(models) / len(done),
        "srv.manager_reuses": counters.get("icv_srv_manager_reuses", 0.0),
        "srv.rejections": counters.get("icv_srv_rejections", 0.0),
        "srv.requeues": counters.get("icv_srv_requeues", 0.0),
        "srv.client_e2e_s.p50": e2e["e2e_s.p50"],
        "srv.event_e2e_s.p50": quantile([ev["e2e_s"] for _, ev, _, _ in steady.values()], 0.5),
        "srv.e2e_ms.p50": hist["srv.e2e_ms"]["p50"],
    }
    summary = {
        "jobs": len(done), "retries": retries, "setup_s": setups,
        "per_job": [
            [k, j["id"], t - t_sub, ev.get("queue_s"), ev.get("e2e_s"), ev.get("worker"),
             ev.get("report", {}).get("wall_seconds")]
            for k, (j, ev, t_sub, t) in sorted(done.items())
        ],
    }
    if not args.trace:
        return e2e, len(done), failed, wrong, summary
    # Per-layer: the srv layer from the daemon run above; the kernel,
    # image, policy and mc layers by replaying one block's distinct
    # single-property specs in process.
    block = {}
    for k in range(len(BLOCK)):
        j = stream(k)
        if not j.get("batch"):
            block.setdefault(spec_key(j), j)
    traced = perfbench("trace", list(block.values()), rundir, "--dir", rundir)
    layers.update(traced["metrics"])
    return layers, len(done), failed, wrong + traced["wrong"], dict(summary, notes=traced["notes"])


def oneshot(args, rundir):
    jobs = ONESHOT[args.workload]
    if args.trace:
        r = perfbench("trace", jobs, rundir, "--dir", rundir)
        return r["metrics"], r["attempted"], r["failed"], r["wrong"], {"notes": r["notes"]}
    setup_s = perfbench("setup", jobs, rundir, "--seconds", "1.0")["setup_s"]
    # Passes over the jobs in a seeded order, one process per job as
    # with icv, until the run time is up.
    rng = random.Random(args.seed)
    t_start = time.perf_counter()
    passes, attempted, failed, wrong = [], 0, 0, []
    while not passes or time.perf_counter() - t_start < args.seconds:
        order = rng.sample(jobs, len(jobs))
        runs = [perfbench("solve", [j], rundir) for j in order]
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        wrong += [w for r in runs for w in r["wrong"]]
        passes.append(runs)

    def per_pass(f):
        return statistics.median(f(runs) for runs in passes)

    def total(field):
        return per_pass(lambda runs: float(sum(r["jobs"][0]["report"][field] for r in runs)))

    # Times: each job's median over the passes, then summed over the
    # jobs (solve_s) or taken across them (e2e_s: the median job and
    # the slowest one -- a handful of jobs has no finer percentile).
    rows = [r["jobs"][0] for runs in passes for r in runs]

    def per_job(f):
        return [statistics.median(f(row) for row in rows if row["id"] == j["id"]) for j in jobs]

    solve_s = sum(per_job(lambda row: row["solve_s"]))
    e2e = per_job(lambda row: row["build_s"] + row["solve_s"])
    metrics = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "nodes_created": total("nodes_created"),
        "peak_live_nodes": total("peak_live_nodes"),
        "peak_set_nodes": total("peak_set_nodes"),
        "iterations": total("iterations"),
        "peak_heap_mb": per_pass(lambda runs: max(r["peak_rss_mb"] for r in runs)),
        "jobs_per_s": len(jobs) / solve_s,
        "e2e_s.p50": statistics.median(e2e),
        "e2e_s.p99": max(e2e),
    }
    summary = {
        "passes": len(passes),
        "per_job": [[row["id"], row["build_s"], row["solve_s"]] for row in rows],
    }
    return metrics, attempted, failed, wrong, summary


def fingerprint(args):
    def cmd(*argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "ocaml": cmd("ocamlfind", "ocamlopt", "-version") or cmd("ocaml", "-vnum"),
        "commit": cmd("git", "rev-parse", "HEAD") or "unknown",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*ONESHOT, "icvd-closed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    # The shared dune cache lives outside the checkout: keep it off.
    build = subprocess.run(
        ["dune", "build", "--root", ".", PERFBENCH.replace("_build/default/", "./"),
         ICVD.replace("_build/default/", "./")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        log(build.stdout.decode(errors="replace"))
        log("perfbench: build failed")
        sys.exit(2)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = os.path.join(RUN_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        run = icvd_closed if args.workload == "icvd-closed" else oneshot
        metrics, attempted, failed, wrong, summary = run(args, rundir)
        results = os.path.join(RUN_ROOT, "results")
        os.makedirs(results, exist_ok=True)
        spans = os.path.join(rundir, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(results, f"{tag}-spans.jsonl"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if args.trace and args.workload != "icvd-closed":
        # The daemon layer does not run in a one-shot workload.
        metrics.update({m["name"]: 0.0 for m in wanted if m["name"].startswith("srv.")})
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"perfbench: metrics not measured: {missing}")
        sys.exit(2)
    record = dict(
        fingerprint=fingerprint(args), summary=summary, wrong=wrong,
        wrong_verdicts=len(wrong), failed_share=failed / attempted, metrics=metrics,
    )
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for w in wrong:
        log(f"WRONG: {w}")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    shown = [f"{m['name']}={metrics[m['name']]:.6g} {m['unit']}" for m in wanted]
    shown += [f"wrong_verdicts={len(wrong)} count", f"failed_share={failed / attempted:.6g} ratio"]
    print(f"{tag}: " + "  ".join(shown))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    sys.exit(0 if not wrong else 1)


if __name__ == "__main__":
    main()
