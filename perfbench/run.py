#!/usr/bin/env python3
"""The repository benchmark: three workloads through simulate_trace.

    python3 perfbench/run.py --workload mail_dvp --seed 42 \
        --seconds 35 --trace 0

Builds simulate_trace and the traced layer probe (perfbench/layers.cc)
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build),
makes the workload's inputs from --seed, and runs the workload as
separate simulate_trace processes until --seconds have passed. Every
process's StatSet is checked: identical across the run, equal to the
digest pinned for the workload at PIN_SEED, and conserving requests
and writes. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (END_TO_END); --trace 1 runs
the layer probe once over the same inputs and reports the per-layer
ledger (PER_LAYER), with the untraced processes it needs for the
StatSet comparison and trace.overhead_pct. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True

import fixture  # noqa: E402

PIN_SEED = 42
DIGESTS = BENCH / "digests.json"

# Generated-trace lengths sit well below the SsdConfig::forFootprint
# step to 2 planes per die (near 1.85M mail requests), where GC
# relocations per write jump about 37x; see README.md.
WORKLOADS = {
    "mail_dvp": {
        "args": ["--workload", "mail", "--requests", "1000000",
                 "--system", "dvp", "--pool", "200000",
                 "--queue-depth", "1"],
    },
    "hadoop_dedup": {
        "args": ["--workload", "hadoop", "--requests", "1000000",
                 "--system", "dvp+dedup", "--pool", "5000",
                 "--queue-depth", "8"],
    },
    "replay_gz": {
        "rows": 300_000,
        "args": ["--trace-format", "csv", "--version-period", "8",
                 "--system", "baseline", "--queue-depth", "32"],
        # Traced run only: the scan-once grid over the same trace, one
        # inline-pulling cell per core, for the grid layer rows.
        "grid": "system=baseline,dvp,dedup,dvp+dedup",
    },
}

# name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "run_reqs_per_s": ("req/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_programs_per_write": ("ratio", "lower"),
    "sim_host_programs_per_write": ("ratio", "lower"),
}

PER_LAYER = {
    "trace.prepare_s": "s",
    "trace.summarize_s": "s",
    "trace.pull_ns_per_rec": "ns",
    "trace.prefetch_gain_pct": "%",
    "trace.overhead_pct": "%",
    "mem.trace_mb": "MiB",
    "sim.construct_s": "s",
    "sim.prefill_s": "s",
    "sim.host_ns_per_req": "ns",
    "sim.host_ns_per_event": "ns",
    "sim.events_per_req": "count",
    "sim.blocked_admissions": "count",
    "sim.max_waiting": "count",
    "sim.cache_hit_rate": "ratio",
    "mem.ssd_mb": "MiB",
    "ftl.ns_per_op": "ns",
    "ftl.gc_relocs_per_write": "ratio",
    "ftl.erases_per_kwrite": "1/kwrite",
    "dvp.ns_per_op": "ns",
    "dvp.hit_rate": "ratio",
    "dvp.capacity_evictions": "count",
    "dvp.gc_evictions": "count",
    "dedup.hit_rate": "ratio",
    "nand.ns_per_op": "ns",
    "nand.max_die_backlog": "count",
    "telemetry.sampler_overhead_pct": "%",
    "grid.spool_s": "s",
    "grid.parallel_eff": "ratio",
    "mem.cell_mb": "MiB",
}

# Shown in the human-readable table only (sim_us: modelled
# microseconds): the host-speed reference and figures the result line
# cannot take. A reported metric must never be 0, must stay within its
# bound across seeds, and a time must not read the same on every run:
# failed_frac is 0 (the result line carries attempted and failed
# instead), revivals per write is 0 on baseline cells (the
# host-programs ratio carries it), the read mean and p99 swing by up to
# 60% between seeds, and the write mean is exactly 406.4 on every
# replay_gz seed.
DISPLAY_ONLY = {
    "measured_wall_s": "s",
    "measured_setup_s": "s",
    "measured_run_reqs_per_s": "req/s",
    "host_ref_s": "s",
    "failed_frac": "ratio",
    "sim_revivals_per_write": "ratio",
    "sim_write_mean_us": "sim_us",
    "sim_read_mean_us": "sim_us",
    "sim_p99_us": "sim_us",
}

MIN_PROCESSES = 3
PROCESS_CAP_S = 150.0  # stop starting processes past this

# Host-speed reference: fixed interpreter work (an integer loop and a
# sort) that no change to the simulator can speed up, timed around
# every process. The shared host this benchmark was defined on slows
# by up to 1.6x in phases lasting minutes to hours; measured set
# medians then drift past the bounds, and the reference's median over
# a run (host_ref_s) moves with them. Host times are therefore
# reported at the reference speed, where the reference takes REF_S:
# multiplied by REF_S / host_ref_s. The measured figures are printed
# beside them and kept in result.json.
REF_DATA = [((i * 2654435761) % 1000003) / 1000003 for i in range(200_000)]
REF_S = 0.070


def reference_s():
    start = time.perf_counter()
    x = 0
    for i in range(600_000):
        x += i * i
    sorted(REF_DATA)
    return time.perf_counter() - start


def fail_setup(message):
    """Exit non-zero without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- build

def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(root):
    """Configure once, then bring both binaries up to date."""
    bdir = root / "perfbench"
    log = root / "perfbench-build.log"
    root.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  "simulate_trace", "perf_layers"])
    with open(log, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=840).returncode
            if rc != 0:
                # A failed configure leaves a cache that would skip the
                # configure step next time.
                shutil.rmtree(bdir, ignore_errors=True)
                tail = log.read_text().splitlines()[-15:]
                fail_setup("build failed:\n" + "\n".join(tail))
    return bdir / "zombie" / "examples" / "simulate_trace", \
        bdir / "perf_layers"


def provenance(root, workload, seed, cli_args, describes):
    bdir = root / "perfbench"
    cache = (bdir / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = "unknown"
    for path in glob.glob(str(bdir / "CMakeFiles" / "*" /
                              "CMakeCXXCompiler.cmake")):
        text = Path(path).read_text()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)}"
    describe = ""
    if (ROOT / ".git").exists():
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--tags"], capture_output=True, text=True,
            timeout=30).stdout.strip()
    cpu = "unknown"
    try:
        m = re.search(r"^model name\s*:\s*(.*)$",
                      Path("/proc/cpuinfo").read_text(), re.M)
        cpu = m.group(1) if m else cpu
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "build_type": build_type.group(1) if build_type else "",
        "compiler": compiler,
        "git_describe": describe or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "cli_args": cli_args,
        "geometry": describes,
    }


def source_digest():
    """Hash of the simulator sources, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "examples")
                   for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------- output parsing

STAT_LINE = re.compile(r"^([a-z][a-z0-9_.]*) {2,}(\S+)$")
DESCRIBE_LINE = re.compile(r"^\S+: \d+ch x .*pg \(")


def parse_statset(text):
    """The StatSet lines of simulate_trace stdout, verbatim.

    StatSet::format() writes "name<2+ spaces>value" per line; nothing
    else simulate_trace prints has that shape.
    """
    return "".join(line + "\n" for line in text.splitlines()
                   if STAT_LINE.match(line))


def stat_values(statset):
    return {m.group(1): float(m.group(2))
            for m in map(STAT_LINE.match, statset.splitlines()) if m}


def digest(statset):
    return hashlib.sha256(statset.encode()).hexdigest()


def identity_errors(counts, rel_tol=0.0):
    """Conservation checks on one drive's counters.

    requests == reads + writes and writes == host programs + revivals
    + dedup hits. rel_tol covers the 6 significant digits the StatSet
    prints; the layer probe's exact SimResult counters use 0.
    """
    errors = []
    checks = [
        ("requests", counts["requests"],
         counts["reads"] + counts["writes"]),
        ("writes", counts["writes"],
         counts["host_programs"] + counts["revivals"] +
         counts["dedup_hits"]),
    ]
    for name, lhs, rhs in checks:
        if abs(lhs - rhs) > rel_tol * max(abs(lhs), 1.0):
            errors.append(f"{name} {lhs} != {rhs}")
    return errors


def statset_counts(values):
    return {
        "requests": values["requests"],
        "reads": values["reads"],
        "writes": values["writes"],
        "host_programs": values["flash.host_programs"],
        "revivals": values["flash.revivals"],
        "dedup_hits": values["dedup.hits"],
    }


def sim_metrics(statset):
    """sim_* metrics from one StatSet."""
    v = stat_values(statset)
    return {
        "sim_programs_per_write": v["flash.programs"] / v["writes"],
        "sim_host_programs_per_write":
            v["flash.host_programs"] / v["writes"],
        "sim_revivals_per_write": v["flash.revivals"] / v["writes"],
        "sim_write_mean_us": v["latency.write.mean_us"],
        "sim_read_mean_us": v["latency.read.mean_us"],
        "sim_p99_us": v["latency.all.p99_us"],
    }


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


# ------------------------------------------------------------- running

class Process:
    """One simulate_trace run: wall clock, peak RSS, checked output."""

    def __init__(self, cmd, workdir, tag):
        out_path = workdir / f"{tag}.out"
        err_path = workdir / f"{tag}.err"
        wall_json = workdir / f"{tag}.wall.json"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + ["--wall-json", str(wall_json)],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
        # os.wait4 reaped the child; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.status = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()
        self.window = (json.loads(wall_json.read_text())["wall_s"]
                       if wall_json.exists() else None)
        self.statset = parse_statset(self.stdout)
        self.describes = [line for line in self.stdout.splitlines()
                          if DESCRIBE_LINE.match(line)]
        self.errs = self._errors()

    def _errors(self):
        errs = []
        if self.status != 0:
            errs.append(f"exit status {self.status}")
        for stream in (self.stdout, self.stderr):
            for word in ("panic:", "fatal:"):
                if word in stream:
                    errs.append(f"'{word}' in output")
        if not self.statset:
            errs.append("no StatSet in output")
        if not self.window or self.window <= 0:
            errs.append("no run window in output")
        if self.statset:
            try:
                errs += identity_errors(
                    statset_counts(stat_values(self.statset)),
                    rel_tol=1e-5)
            except KeyError as e:
                errs.append(f"StatSet lacks {e}")
        return errs


def cli_command(cli, workload, seed, trace_path):
    args = list(WORKLOADS[workload]["args"])
    if trace_path is None:
        args += ["--seed", str(seed)]
    else:
        args += ["--trace-file", str(trace_path)]
    return [str(cli)] + args


def grid_jobs():
    # One inline-pulling cell per core, at most one per grid system.
    return max(1, min(4, os.cpu_count() or 1))


def pinned_digest(workload, seed):
    """The StatSet digest pinned for @p workload, if @p seed is pinned."""
    if seed != PIN_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def run_processes(cmd, workdir, seconds, pinned, min_count):
    """Run the CLI until the time budget is spent; check every run."""
    procs = []
    start = time.perf_counter()
    while True:
        before = reference_s()
        proc = Process(cmd, workdir, f"p{len(procs)}")
        # The reference brackets the process, so it sees the same phase.
        proc.ref = (before + reference_s()) / 2
        if not proc.errs:
            d = digest(proc.statset)
            if procs and d != digest(procs[0].statset):
                proc.errs.append("StatSet differs from the run's first "
                                 "process")
            if pinned and d != pinned:
                proc.errs.append(f"StatSet digest {d[:12]} != pinned "
                                 f"{pinned[:12]}")
        procs.append(proc)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in procs)
        if len(procs) >= min_count and elapsed + typical > seconds:
            break
        if elapsed + typical > PROCESS_CAP_S:
            break
    return procs


def host_metrics(good, requests):
    """Per-run host figures over the run's processes.

    Other tenants' load only ever adds time, and on this kind of shared
    host it comes in phases that can hold half of a run's processes, so
    wall_s and the run window take the fastest process, the figure
    nearest the program's own cost. setup_s, peak_rss_mb and the
    reference take the median.
    """
    def median(key):
        return statistics.median(key(p) for p in good)

    wall = min(p.wall for p in good)
    setup = median(lambda p: p.wall - p.window)
    rate = requests / min(p.window for p in good)
    ref = median(lambda p: p.ref)
    to_ref = REF_S / ref
    return {
        "wall_s": wall * to_ref,
        "setup_s": setup * to_ref,
        "run_reqs_per_s": rate / to_ref,
        "peak_rss_mb": median(lambda p: p.rss_mb),
        "measured_wall_s": wall,
        "measured_setup_s": setup,
        "measured_run_reqs_per_s": rate,
        "host_ref_s": ref,
    }


def print_table(rows):
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")


def run_probe(probe, workdir, workload, seed, trace_path):
    """The traced run: (layers.json contents or None, errors)."""
    spec = WORKLOADS[workload]
    a = spec["args"]

    def opt(name):
        return a[a.index(name) + 1]

    cmd = [str(probe), "--seed", str(seed), "--system", opt("--system"),
           "--pool", opt("--pool") if "--pool" in a else "5000",
           "--queue-depth", opt("--queue-depth"),
           "--workdir", str(workdir),
           "--out", str(workdir / "layers.json"),
           "--spans", str(workdir / "spans.json")]
    if trace_path is None:
        cmd += ["--workload", opt("--workload"),
                "--requests", opt("--requests")]
    else:
        cmd += ["--trace-file", str(trace_path),
                "--version-period", opt("--version-period")]
    if "grid" in spec:
        cmd += ["--grid", spec["grid"], "--jobs", str(grid_jobs())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        return None, ["timed out after 170 s"]
    if proc.returncode != 0:
        return None, [f"exit status {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}"]
    layer = json.loads((workdir / "layers.json").read_text())
    return layer, layer_errors(layer, pinned_digest(workload, seed))


def layer_errors(layer, pinned):
    """The traced run must have simulated exactly what the CLI does."""
    cell = layer["cell"]
    errors = identity_errors(cell)
    if layer["sampled_statset"] != cell["statset"]:
        errors.append("the epoch sampler changed the StatSet")
    errors += layer["grid_errors"]
    if pinned and digest(cell["statset"]) != pinned:
        errors.append("traced StatSet differs from the pinned digest")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = build_root()
    cli, probe = build(root)
    workdir = root / "perfbench" / "work" / \
        f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Inputs come from the seed; writing them is outside every metric.
    spec = WORKLOADS[args.workload]
    trace_path = None
    if "rows" in spec:
        trace_path = workdir / "trace.csv.gz"
        fixture.write(trace_path, args.seed, spec["rows"])
    cmd = cli_command(cli, args.workload, args.seed, trace_path)
    pinned = pinned_digest(args.workload, args.seed)

    start = time.perf_counter()
    layer, layer_errs = None, []
    if args.trace:
        layer, layer_errs = run_probe(probe, workdir, args.workload,
                                       args.seed, trace_path)
    budget = args.seconds - (time.perf_counter() - start)
    procs = run_processes(cmd, workdir, budget, pinned,
                          1 if args.trace else MIN_PROCESSES)
    good = [p for p in procs if not p.errs]
    if layer is not None and good:
        if layer["cell"]["statset"] != good[0].statset:
            layer_errs.append("traced StatSet differs from the "
                              "untraced run's")
        if [layer["cell"]["describe"]] != good[0].describes:
            layer_errs.append("traced drive geometry differs from the "
                              "untraced run's")
    attempted = len(procs) + (1 if args.trace else 0)
    failed = len(procs) - len(good) + (1 if layer_errs else 0)
    for p in procs:
        if p.errs:
            print(f"failed process: {'; '.join(p.errs)}", file=sys.stderr)
    for err in layer_errs:
        print(f"traced run: {err}", file=sys.stderr)

    rel_cmd = [os.path.relpath(c, ROOT) if c.startswith(str(ROOT)) else c
               for c in cmd]
    prov = provenance(root, args.workload, args.seed, rel_cmd,
                      good[0].describes if good else [])
    print("provenance: " + json.dumps(prov))

    units = (PER_LAYER if args.trace
             else {n: u for n, (u, _) in END_TO_END.items()})
    if not good or (args.trace and layer is None):
        # Nothing was measured: report the failure, every metric zero.
        print(result_line(False, attempted, max(failed, 1),
                          {n: 0.0 for n in units}, units))
        return 0

    statset = good[0].statset
    e2e = host_metrics(good, stat_values(statset)["requests"])
    e2e.update(sim_metrics(statset))
    e2e["failed_frac"] = failed / attempted
    print(f"{args.workload} (seed {args.seed}): {len(procs)} processes, "
          f"{len(good)} ok")
    print(f"StatSet sha256: {digest(statset)}")
    if args.trace:
        metrics = dict(layer["metrics"])
        untraced = statistics.median(p.window for p in good)
        metrics["trace.overhead_pct"] = \
            (layer["window_s"] / untraced - 1.0) * 100.0
        print("span ledger (self = span minus its children):")
        for row in layer["ledger"]:
            print(f"  {row['name']:<24} n={row['count']:<9} "
                  f"total {row['total_s']:9.4f} s  "
                  f"self {row['self_s']:9.4f} s")
        print_table([(n, metrics[n], u) for n, u in PER_LAYER.items()])
    else:
        metrics = e2e
        print_table([(n, e2e[n], u) for n, u in units.items()] +
                    [(n, e2e[n], u) for n, u in DISPLAY_ONLY.items()])

    record = {"provenance": prov, "metrics": metrics,
              "traced_errors": layer_errs,
              "processes": [{"wall_s": p.wall, "window_s": p.window,
                             "rss_mb": p.rss_mb, "ref_s": p.ref,
                             "errors": p.errs}
                            for p in procs]}
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
