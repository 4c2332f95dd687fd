#!/usr/bin/env python3
"""Serving benchmark of `graphtempo serve` (rationale: perfbench/README.md).

    python3 perfbench/run.py --workload dblp-cold --seed 1 --seconds 10 --trace 0

Builds `graphtempo` and `gt_perfbench` from the sources beside this directory,
generates the workload's dataset and request lists from --seed, then either
(--trace 0) boots the server and measures it end to end over HTTP, or
(--trace 1) replays the same requests serially over HTTP and in-process to
split request time across layers. Every answer is checked. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
GRAPHTEMPO = os.path.join(BUILD_DIR, "gt", "tools", "graphtempo")
CLIENT = os.path.join(BUILD_DIR, "gt_perfbench")

WORKERS = 2          # serve --workers; never more connections than this
BOOTS = 7            # server boots per run; setup_s is their median
# The cold readers go on past the window until they have sent this many reads
# per second of it, so that a slow host still puts ten samples beyond p99.
MIN_READS_PER_S = 100

# Per-workload settings. On the cold workloads, two readers cycle through a
# list of `reads` requests for --seconds. No spec repeats within the list,
# which is as long as the project space allows without running out (DBLP has
# 1,386 distinct project specs, MovieLens 294). After the window the writer
# posts `batches_per_s` x --seconds batches; they are large, so that each
# takes many times the writer's 1 ms /stats poll to apply, without adding
# many time points. dblp-ingest has fixed work instead: `reads_per_s` x
# --seconds reads, sized to about --seconds on the host the benchmark was
# tuned on, and one batch after every `gate` reads, because each appended
# point makes the next append slower. `trace_share` is the fraction of the
# reads the traced run replays.
WORKLOADS = {
    "dblp-cold": {
        "dataset": "dblp", "mode": "cold", "reads": 5000, "trace_share": 0.12,
        "batches_per_s": 8, "batch_edges": 1000,
    },
    "movielens-cold": {
        "dataset": "movielens", "mode": "cold", "reads": 1000, "trace_share": 0.2,
        "batches_per_s": 5, "batch_edges": 20000,
    },
    "dblp-ingest": {
        "dataset": "dblp", "mode": "ingest", "reads_per_s": 1400, "trace_share": 0.1,
        "batch_edges": 300, "gate": 40,
        "materialize": "gender,publications", "templates_per_tier": 16,
    },
}


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build -----------------------------------------------------------------------

def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                      "--target", "graphtempo", "gt_perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


# --- host-speed probe ------------------------------------------------------------

def host_calib_ms():
    """Times a fixed integer loop that shares no code with the program."""
    start = time.perf_counter()
    x = 0
    for i in range(1_500_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - start) * 1000.0


# --- dataset and requests --------------------------------------------------------

class Dataset:
    """The parts of a generated TSV the request generators need."""

    def __init__(self, path):
        self.times, self.nodes, self.static, self.varying = [], [], [], []
        self.varying_values = set()
        section = None
        with open(path) as tsv:
            for line in tsv:
                line = line.rstrip("\n")
                if line.startswith("!section"):
                    parts = line.split("\t")
                    section = parts[1]
                    if section == "static":
                        self.static.append(parts[2])
                    elif section == "varying":
                        self.varying.append(parts[2])
                    continue
                if not line or line[0] in "#!":
                    continue
                if section == "times":
                    self.times.append(line)
                elif section == "nodes":
                    self.nodes.append(line.split("\t", 1)[0])
                elif section == "varying" and len(self.varying) == 1:
                    self.varying_values.add(line.rsplit("\t", 1)[1])
        self.varying_values = sorted(self.varying_values, key=lambda v: (len(v), v))
        n = len(self.times)
        self.intervals = [interval(self, a, b) for a in range(n) for b in range(a, n)]
        # Every (attribute set, interval) pairing, weighted by the set's weight.
        sets = attr_sets(self)
        self.cells = ([(attrs, t) for attrs, _ in sets for t in self.intervals],
                      [w for _, w in sets for _ in self.intervals])


def interval(ds, a, b):
    return ds.times[a] if a == b else f"{ds.times[a]}..{ds.times[b]}"


class Draw:
    """Balanced random draws. Each factor deals from its own shuffled deck,
    which holds every value as many times as its integer weight and is
    reshuffled when empty, so every run of a workload gets nearly the same
    mix of classes, attribute sets, semantics and intervals."""

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def pick(self, factor, values, weights=None):
        deck = self.decks.get(factor)
        if not deck:
            deck = [v for v, w in zip(values, weights or [1] * len(values))
                    for _ in range(w)]
            self.rng.shuffle(deck)
            self.decks[factor] = deck
        return deck.pop()


def attr_sets(ds):
    """The attribute sets requests group by, with their draw weights. DBLP:
    every combination of its static and time-varying attribute, equally.
    MovieLens: the non-empty subsets of its static attributes, the larger
    ones (up to 294 node groups and their edge pairs) drawn less often."""
    if len(ds.static) == 1:
        names, weight = ds.static + ds.varying, {1: 1, 2: 1}
    else:
        names, weight = ds.static, {1: 6, 2: 3, 3: 1}
    sets = []
    for mask in range(1, 1 << len(names)):
        chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
        sets.append((chosen, weight[len(chosen)]))
    return sets


def make_spec(ds, draw, cls):
    """One request of class `cls`. Within a class, the attribute set and the
    first interval are dealt together from one deck holding every pairing,
    because where an interval sits matters as much as its length (MovieLens'
    August holds two thirds of the edges) and its cost multiplies with the
    attribute set's group count."""
    sets, weights = zip(*attr_sets(ds))
    if cls == "explore":
        spec = {"kind": "explore",
                "event": draw.pick("event", ["stability", "growth", "shrinkage"]),
                "extension": draw.pick("extension", ["union", "intersection"]),
                "reference": draw.pick("reference", ["old", "new"]),
                "select": draw.pick("select", ["nodes", "edges"])}
        attrs = draw.pick("explore/attrs", sets + (None,), weights + (sum(weights) // 3,))
        if attrs:
            spec["attrs"] = attrs
        spec["k"] = draw.rng.randint(1, 400)
        return spec
    spans = ds.intervals
    attrs, t1 = draw.pick(f"{cls}/cell", *ds.cells)
    if cls == "evolution":
        return {"kind": "evolution", "t1": t1, "t2": draw.pick(f"{cls}/t2", spans),
                "attrs": attrs}
    spec = {"op": cls, "t1": t1}
    if cls != "project":
        spec["t2"] = draw.pick(f"{cls}/t2", spans)
    spec["attrs"] = attrs
    spec["semantics"] = draw.pick(f"{cls}/semantics", ["dist", "all"])
    return spec


# Class weights of the cold mixes, out of 40: 22.5% for each aggregate
# operator, 5% each for evolution and explore (rationale in README.md).
COLD_MIX = {"project": 9, "union": 9, "intersection": 9, "difference": 9,
            "evolution": 2, "explore": 2}


def encode(spec):
    return json.dumps(spec, separators=(",", ":"))


def distinct_specs(ds, draw, mix, count, taken):
    """`count` specs drawn by class weight, none in `taken` and none twice."""
    classes, weights = zip(*mix.items())
    exhausted = set()
    out = []
    while len(out) < count:
        if len(exhausted) == len(classes):
            raise BenchError("request space exhausted")
        cls = draw.pick("class", classes, weights)
        if cls in exhausted:
            continue
        for _ in range(200):
            text = encode(make_spec(ds, draw, cls))
            if text not in taken:
                taken.add(text)
                out.append(text)
                break
        else:
            exhausted.add(cls)
    return out


def warmup_specs(ds, taken):
    """One request of every class, never reused by the timed lists. Each one
    spans the whole domain with the largest attribute set, so the memory
    peak after the warm-up (`rss_mb`) does not depend on the seed's draw."""
    whole = interval(ds, 0, len(ds.times) - 1)
    attrs = max((s for s, _ in attr_sets(ds)), key=len)
    # Keys in make_spec's order, so that `taken` catches a timed twin.
    specs = [{"op": "project", "t1": whole, "attrs": attrs, "semantics": "dist"}]
    specs += [{"op": op, "t1": whole, "t2": whole, "attrs": attrs, "semantics": "dist"}
              for op in ("union", "intersection", "difference")]
    specs.append({"kind": "evolution", "t1": whole, "t2": whole, "attrs": attrs})
    specs.append({"kind": "explore", "event": "stability", "extension": "union",
                  "reference": "new", "select": "edges", "attrs": attrs, "k": 1})
    out = [encode(spec) for spec in specs]
    taken.update(out)
    return out


# dblp-ingest reader: per attribute set, its share of the reads, the class
# weights of its templates, the semantics they are fixed to (None: drawn),
# and the zipf exponent by which reads pick among them. Every read is a cache
# hit after its template's first, so its cost is mostly serializing the
# cached answer, which grows with the answer's groups. [publications] ALL
# unions cost about the same whatever the interval; the shares put p50
# inside them, far above the loopback round trip, with the cheaper [gender]
# reads below and the [gender, publications] reads above. Reads pick those
# unions uniformly, so that p50 does not follow the cost of whichever
# template a seed ranks first.
READ_TIERS = (
    (("gender",), 20, {"union": 8, "project": 6, "intersection": 3, "difference": 3},
     None, 1.1),
    (("publications",), 50, {"union": 1}, "all", 0.0),
    (("gender", "publications"), 30,
     {"union": 8, "project": 6, "intersection": 3, "difference": 3}, None, 1.1),
)


def ingest_reads(ds, draw, templates_per_tier, count, taken):
    """Dashboard reads on the initial points: per attribute set, templates
    ranked by zipf weight. Derivable ALL unions and single points are
    common, so the materialized store answers many of them."""
    ranked, shares, weights = [], [], []
    for tier, (attrs, share, mix, semantics, s) in enumerate(READ_TIERS):
        classes, class_weights = zip(*mix.items())
        templates = []
        while len(templates) < templates_per_tier:
            spec = make_spec(ds, draw, draw.pick(f"class/{tier}", classes, class_weights))
            spec["attrs"] = list(attrs)
            if semantics:
                spec["semantics"] = semantics
            text = encode(spec)
            if text not in taken:
                taken.add(text)
                templates.append(text)
        ranked.append(templates)
        shares.append(share)
        weights.append([1.0 / (rank + 1) ** s for rank in range(templates_per_tier)])
    reads = []
    for _ in range(count):
        tier = draw.pick("tier", range(len(ranked)), shares)
        reads.append(draw.rng.choices(ranked[tier], weights[tier])[0])
    return reads


def ingest_batches(ds, rng, count, edges):
    """One batch per new time point: the `t` record, `edges` `e` records
    between existing nodes, and a time-varying value for every endpoint."""
    lines = []
    num_times = len(ds.times)
    first_year = ds.times[-1].isdigit()
    varying = ds.varying[0]
    values = ds.varying_values[:8]
    for b in range(count):
        label = str(int(ds.times[-1]) + b + 1) if first_year else f"w{b + 1}"
        num_times += 1
        lines.append(f"=== {num_times}")
        lines.append(f"t {label}")
        endpoints = {}
        pairs = set()
        while len(pairs) < edges:
            u, v = rng.sample(ds.nodes, 2)
            if (u, v) in pairs:
                continue
            pairs.add((u, v))
            lines.append(f"e {u} {v} {label}")
            endpoints[u] = endpoints[v] = True
        for node in endpoints:
            lines.append(f"va {varying} {node} {label} {rng.choice(values)}")
    return lines


def write_lines(path, lines):
    with open(path, "w") as out:
        for line in lines:
            out.write(line + "\n")


# --- server ----------------------------------------------------------------------

def http(port, method, path, body=b""):
    """One request on a fresh connection that the server closes after it."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        sock.sendall(head.encode() + body)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload


class Server:
    """One `graphtempo serve` process; `setup_s` is the time from spawn to its
    first 200 on /healthz."""

    def __init__(self, tsv, extra, log_path):
        started = time.perf_counter()
        self.port = None
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [GRAPHTEMPO, "serve", tsv, "--port", "0", "--workers", str(WORKERS)] + extra,
            stdout=subprocess.PIPE, stderr=self.log, cwd=os.path.dirname(tsv))
        try:
            line = self.proc.stdout.readline().decode()
            if "127.0.0.1:" not in line:
                raise BenchError(f"serve did not start: {line!r}")
            self.port = int(line.split("127.0.0.1:")[1].split()[0])
            status, _ = http(self.port, "GET", "/healthz")
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def num_times(self):
        status, body = http(self.port, "GET", "/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return json.loads(body)["num_times"]

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        if self.proc.poll() is None and self.port is not None:
            try:
                http(self.port, "POST", "/shutdown")
            except (OSError, ValueError, IndexError):
                pass  # killed below if it does not exit
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30 if self.port is not None else 0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self.log.close()


def boot(tsv, extra, work):
    """Boots the server BOOTS times; returns the last (still running) instance
    and the median set-up time."""
    times = []
    server = None
    for _ in range(BOOTS):
        if server is not None:
            server.stop()
        server = Server(tsv, extra, os.path.join(work, "serve.log"))
        times.append(server.setup_s)
    log("setup_s boots: " + " ".join(f"{t:.4f}" for t in times))
    return server, statistics.median(times)


def run_client(args, timeout=170):
    result = subprocess.run([CLIENT] + args, stderr=subprocess.PIPE, timeout=timeout)
    if result.returncode != 0:
        raise BenchError("gt_perfbench " + args[0] + " failed: " + result.stderr.decode()[-2000:])


def read_load(path):
    """Sent reads in send order, batches, and the readers' elapsed ns."""
    reads, batches, elapsed = [], [], 0
    with open(path) as results:
        for line in results:
            f = line.rstrip("\n").split("\t")
            if f[0] == "R":
                reads.append({"entry": int(f[2]), "status": int(f[4]),
                              "ns": int(f[6]) - int(f[5]), "digest": f[8], "route": f[9]})
            elif f[0] == "B":
                batches.append({"records": int(f[2]), "status": int(f[3]),
                                "posted": int(f[4]), "visible": int(f[5])})
            else:
                elapsed = int(f[1])
    return reads, batches, elapsed


def read_refs(path, into):
    with open(path) as refs:
        for line in refs:
            f = line.rstrip("\n").split("\t")
            into[int(f[0])] = None if f[1] == "ERR" else (f[2], f[3])


def compute_refs(tsv, lines, work, materialize, procs):
    """Expected (digest, route) per line, computed in-process in parallel."""
    path = os.path.join(work, "refs-in.jsonl")
    write_lines(path, lines)
    extra = ["--materialize", materialize] if materialize else []
    step = math.ceil(len(lines) / procs)
    jobs = []
    for p in range(procs):
        out = os.path.join(work, f"refs-{p}.tsv")
        cmd = [CLIENT, "refs", "--graph", tsv, "--requests", path, "--out", out,
               "--begin", str(p * step), "--end", str((p + 1) * step)] + extra
        jobs.append((subprocess.Popen(cmd, stderr=subprocess.PIPE), out))
    refs = {}
    try:
        for proc, out in jobs:
            _, err = proc.communicate(timeout=170)
            if proc.returncode != 0:
                raise BenchError("gt_perfbench refs failed: " + err.decode()[-2000:])
            read_refs(out, refs)
    finally:
        for proc, _ in jobs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return refs


def percentile(sorted_values, q):
    """Exact nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# --- the two runs ----------------------------------------------------------------

def plan_workload(name, seed, seconds, work):
    cfg = WORKLOADS[name]
    tsv = os.path.join(work, f"{cfg['dataset']}.tsv")
    gen = subprocess.run([GRAPHTEMPO, "generate", cfg["dataset"], tsv, "--seed", str(seed)],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if gen.returncode != 0:
        raise BenchError("generate failed: " + gen.stderr.decode())
    ds = Dataset(tsv)
    rng = random.Random(f"{name}/{seed}")
    taken = set()
    plan = {"cfg": cfg, "tsv": tsv, "ds": ds}
    plan["warmup"] = warmup_specs(ds, taken)
    if cfg["mode"] == "cold":
        plan["reads"] = distinct_specs(ds, Draw(rng), COLD_MIX, cfg["reads"], taken)
        batch_count = max(2, int(cfg["batches_per_s"] * seconds))
    else:
        count = max(100, int(cfg["reads_per_s"] * seconds))
        plan["reads"] = ingest_reads(ds, Draw(rng), cfg["templates_per_tier"], count, taken)
        batch_count = max(2, count // cfg["gate"])
    plan["batches"] = ingest_batches(ds, rng, batch_count, cfg["batch_edges"])
    plan["batch_count"] = batch_count
    plan["serve_extra"] = (["--attrs", cfg["materialize"], "--materialize"]
                           if cfg.get("materialize") else [])
    return plan


def run_end_to_end(plan, seconds, work, tamper):
    cfg, tsv = plan["cfg"], plan["tsv"]
    files = {}
    for key in ("warmup", "reads"):
        files[key] = os.path.join(work, f"{key}.jsonl")
        write_lines(files[key], plan[key])
    files["batches"] = os.path.join(work, "batches.txt")
    write_lines(files["batches"], plan["batches"])
    deadline = str(int(4 * seconds + 30))

    server, setup_s = boot(tsv, plan["serve_extra"], work)
    try:
        out = {}
        out["warmup"] = os.path.join(work, "warmup.out")
        run_client(["load", "--port", str(server.port), "--reads", files["warmup"],
                    "--connections", "1", "--out", out["warmup"], "--deadline-s", deadline])
        rss_mb = server.vm_hwm_mb()
        out["timed"] = os.path.join(work, "timed.out")
        if cfg["mode"] == "cold":
            run_client(["load", "--port", str(server.port), "--reads", files["reads"],
                        "--connections", str(WORKERS), "--window-s", str(seconds),
                        "--min-reads", str(int(MIN_READS_PER_S * seconds)),
                        "--out", out["timed"], "--deadline-s", deadline])
            # Ingest into the now idle server, so every workload reports the
            # write path on its own dataset.
            out["ingest"] = os.path.join(work, "ingest.out")
            run_client(["load", "--port", str(server.port), "--batches", files["batches"],
                        "--out", out["ingest"], "--deadline-s", deadline])
        else:
            # The writer posts a batch after every `gate` reads: one read in
            # `gate + 1` then waits out an apply, on every run alike.
            run_client(["load", "--port", str(server.port), "--reads", files["reads"],
                        "--connections", "1", "--batches", files["batches"],
                        "--gate", str(cfg["gate"]), "--out", out["timed"],
                        "--deadline-s", deadline])
            out["ingest"] = out["timed"]
        final_num_times = server.num_times()
    finally:
        server.stop()

    warm, _, _ = read_load(out["warmup"])
    timed, _, elapsed_ns = read_load(out["timed"])
    _, batches, _ = read_load(out["ingest"])
    # Work the deadline left unsent counts as failed: warm-up reads, batches
    # and, on dblp-ingest, timed reads. The cold readers stop at the end of
    # the window by design.
    reads = len(timed) if cfg["mode"] == "cold" else len(plan["reads"])
    applied = [b for b in batches if b["status"] == 202]
    attempted = len(plan["warmup"]) + reads + plan["batch_count"]
    failed = (len(plan["warmup"]) - len(warm) + reads - len(timed) +
              plan["batch_count"] - len(applied))

    # Expected answers, in-process on the initial graph, per list entry.
    ds = plan["ds"]
    if cfg["mode"] == "cold":
        entries = sorted({r["entry"] for r in timed})
        refs = compute_refs(tsv, plan["warmup"] + [plan["reads"][e] for e in entries],
                            work, None, 3)
        by_entry = {e: refs[len(plan["warmup"]) + k] for k, e in enumerate(entries)}
        strip_route = False
    else:
        templates = sorted(set(plan["reads"]))
        refs = compute_refs(tsv, plan["warmup"] + templates, work, cfg["materialize"], 1)
        by_text = {t: refs[len(plan["warmup"]) + k] for k, t in enumerate(templates)}
        by_entry = {e: by_text[text] for e, text in enumerate(plan["reads"])}
        strip_route = True
    expected_warm = [refs[r["entry"]] for r in warm]
    expected_timed = [by_entry[r["entry"]] for r in timed]
    if tamper and expected_timed:
        digest, route = expected_timed[0]
        expected_timed[0] = ("0" * 16 if digest != "0" * 16 else "1" * 16, route)

    def check(results, expected, ignore_route):
        wrong, flips = 0, 0
        for r, want in zip(results, expected):
            if r["status"] != 200 or want is None or r["digest"] != want[0]:
                wrong += 1
            elif r["route"] != want[1]:
                if ignore_route:
                    flips += 1
                else:
                    wrong += 1
        return wrong, flips

    w, _ = check(warm, expected_warm, False)
    t, flips = check(timed, expected_timed, strip_route)
    failed += w + t
    if flips:
        log(f"route flips (answers equal, reported route differs): {flips}")
    if final_num_times != len(ds.times) + len(applied):
        raise BenchError(f"/stats num_times {final_num_times} != "
                         f"{len(ds.times)} + {len(applied)} appended points")

    ok = sorted(r["ns"] for r in timed if r["status"] == 200)
    if len(ok) < 100:
        raise BenchError(f"only {len(ok)} timed requests succeeded")
    if not applied:
        raise BenchError("no ingest batch was applied")
    visible = [(b["visible"] - b["posted"]) / 1e6 for b in applied]
    rates = [b["records"] / ((b["visible"] - b["posted"]) / 1e9) for b in applied]
    log(f"timed requests: {len(ok)} in {elapsed_ns / 1e9:.2f} s "
        f"({len(timed) / len(plan['reads']):.2f} passes over the list), p99 rank has "
        f"{len(ok) - math.ceil(0.99 * len(ok)) + 1} samples at or beyond it; "
        f"batches applied: {len(applied)}")
    metrics = {
        "qps": len(ok) / (elapsed_ns / 1e9),
        "latency_p50_ms": percentile(ok, 0.50) / 1e6,
        "latency_p99_ms": percentile(ok, 0.99) / 1e6,
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "ingest_rps": statistics.median(rates),
        "visible_p50_ms": statistics.median(visible),
    }
    return attempted, failed, metrics


def run_traced(plan, work):
    cfg, tsv = plan["cfg"], plan["tsv"]
    count = max(40, int(len(plan["reads"]) * cfg["trace_share"]))
    reads = plan["reads"][:count]
    files = {"warmup": os.path.join(work, "warmup.jsonl"),
             "reads": os.path.join(work, "trace-reads.jsonl"),
             "batches": os.path.join(work, "batches.txt"),
             "out": os.path.join(work, "trace.json")}
    write_lines(files["warmup"], plan["warmup"])
    write_lines(files["reads"], reads)
    batch_count = plan["batch_count"]
    if cfg["mode"] == "cold":
        every = count  # the batches follow the reads, as in the timed run
    else:
        every = cfg["gate"]
        batch_count = max(2, count // every)
    cut = [i for i, line in enumerate(plan["batches"]) if line.startswith("=== ")]
    cut.append(len(plan["batches"]))
    write_lines(files["batches"], plan["batches"][:cut[batch_count]])
    ds = plan["ds"]
    largest_set = max((attrs for attrs, _ in attr_sets(ds)), key=len)
    server = Server(tsv, plan["serve_extra"], os.path.join(work, "serve.log"))
    try:
        args = ["trace", "--graph", tsv, "--port", str(server.port),
                "--warmup", files["warmup"], "--requests", files["reads"],
                "--batches", files["batches"], "--every", str(every), "--out", files["out"]]
        if cfg.get("materialize"):
            args += ["--materialize", cfg["materialize"]]
        else:
            args += ["--probe-attrs", ",".join(largest_set)]
        run_client(args)
    finally:
        server.stop()
    with open(files["out"]) as f:
        trace = json.load(f)
    metrics = trace["metrics"]
    failed = trace["failed"]
    expected_times = len(ds.times) + batch_count
    problems = []
    if metrics["server.overhead_us"] < 0:
        problems.append(f"negative server.overhead_us {metrics['server.overhead_us']}")
    if cfg["mode"] == "cold" and metrics["engine.cache_hit_ratio"] != 0:
        problems.append(f"cache hits on a cold workload: {metrics['engine.cache_hit_ratio']}")
    if cfg["mode"] == "ingest" and metrics["engine.cache_hit_ratio"] == 0:
        problems.append("no cache hits on dblp-ingest")
    for key in ("final_num_times", "engine_num_times"):
        if trace[key] != expected_times:
            problems.append(f"{key} {trace[key]} != {expected_times}")
    if problems:
        raise BenchError("traced-run sanity check failed: " + "; ".join(problems))
    return trace["attempted"], failed, metrics


# --- main --------------------------------------------------------------------------

def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="with --trace 0, corrupt one expected answer "
                             "(the benchmark's own test)")
    args = parser.parse_args()
    # A terminated run still stops the server and clients it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        end_to_end_units, per_layer_units = load_metric_specs()
        build()
        calib = [host_calib_ms()]
        os.makedirs(RUNS_DIR, exist_ok=True)
        work = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            plan = plan_workload(args.workload, args.seed, args.seconds, work)
            if args.trace:
                attempted, failed, metrics = run_traced(plan, work)
            else:
                attempted, failed, metrics = run_end_to_end(plan, args.seconds, work,
                                                            args.tamper)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        calib.append(host_calib_ms())
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        log(f"error: {error}")
        return 1
    log(f"host.calib_ms start {calib[0]:.2f} end {calib[1]:.2f}")
    metrics["host.calib_ms"] = sum(calib) / 2
    units = per_layer_units if args.trace else end_to_end_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
