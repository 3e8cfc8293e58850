#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks; needs no build.

    python3 perfbench/selftest.py

Covers the StatSet digest and conservation checks (through a stand-in
simulate_trace, so the code path that fails a real run is the one
tested), the seeded trace fixture, and the result line against
BENCHMARK.json.
"""

import gzip
import json
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import fixture  # noqa: E402
import run  # noqa: E402

STATSET = """\
cache.hit_rate               0.794815
dedup.hits                   102458
flash.host_programs          195890
flash.programs               270050
flash.revivals               1804
latency.all.p99_us           425.983
latency.read.mean_us         159.327
latency.write.mean_us        277.579
reads                        699848
requests                     1e+06
writes                       300152
"""

STDOUT = """\
========================================
  replaying hadoop1 on dvp+dedup
========================================
dvp+dedup: 8ch x 8chips x 1dies x 1planes x 16blk x 256pg \
(1024 MiB physical, OP 15%, gc=popularity, qd=8, pool=5000 entries)
trace: 1000000 requests, WR 30.0%, unique write values 61.6%

""" + STATSET + "wrote out/p0.wall.json\n"

# Stand-in for simulate_trace: prints the stdout in argv[1] and writes
# the --wall-json file the benchmark reads its run window from.
FAKE_CLI = """\
import json, sys
sys.stdout.write(open(sys.argv[1]).read())
path = sys.argv[sys.argv.index("--wall-json") + 1]
json.dump({"wall_s": 0.5}, open(path, "w"))
"""


class StatSetChecks(unittest.TestCase):
    def setUp(self):
        self.dir = run.build_root() / "perfbench" / "selftest"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "fake_cli.py").write_text(FAKE_CLI)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_fake(self, stdout, pinned, count=1):
        out = self.dir / "stdout.txt"
        out.write_text(stdout)
        cmd = [sys.executable, str(self.dir / "fake_cli.py"), str(out)]
        return run.run_processes(cmd, self.dir, 0.0, pinned, count)

    def test_parser_keeps_exactly_the_statset(self):
        self.assertEqual(run.parse_statset(STDOUT), STATSET)
        values = run.stat_values(STATSET)
        self.assertEqual(values["requests"], 1e6)
        self.assertEqual(len(values), len(STATSET.splitlines()))

    def test_pinned_digest_accepts_identical_output(self):
        procs = self.run_fake(STDOUT, run.digest(STATSET), count=2)
        self.assertEqual([p.errs for p in procs], [[], []])

    def test_digest_rejects_one_byte_perturbation(self):
        pinned = run.digest(STATSET)
        perturbed = STDOUT.replace("195890", "195891")
        self.assertNotEqual(run.digest(run.parse_statset(perturbed)),
                            pinned)
        # Keep the identity intact so only the digest can object.
        perturbed = perturbed.replace("dedup.hits                   102458",
                                      "dedup.hits                   102457")
        procs = self.run_fake(perturbed, pinned)
        self.assertTrue(any("pinned" in e for e in procs[0].errs),
                        procs[0].errs)

    def test_identity_rejects_broken_sum(self):
        good = {"requests": 10, "reads": 4, "writes": 6,
                "host_programs": 3, "revivals": 2, "dedup_hits": 1}
        self.assertEqual(run.identity_errors(good), [])
        for key in ("reads", "revivals"):
            broken = dict(good, **{key: good[key] + 1})
            self.assertTrue(run.identity_errors(broken), key)
        procs = self.run_fake(STDOUT.replace("1804", "1904"), None)
        self.assertTrue(any("writes" in e for e in procs[0].errs),
                        procs[0].errs)

    def test_failure_markers_fail_the_process(self):
        procs = self.run_fake(STDOUT + "panic: mapping lost\n", None)
        self.assertIn("'panic:' in output", procs[0].errs)


class Fixture(unittest.TestCase):
    ROWS = 10_000  # spans about 3 s of arrivals, past 2^31 ns

    def test_same_seed_same_bytes(self):
        d = run.build_root() / "perfbench" / "selftest-fixture"
        d.mkdir(parents=True, exist_ok=True)
        try:
            a, b = d / "a.csv.gz", d / "b.csv.gz"
            fixture.write(a, 7, self.ROWS)
            fixture.write(b, 7, self.ROWS)
            self.assertEqual(a.read_bytes(), b.read_bytes())
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def test_seeds_differ(self):
        self.assertNotEqual(
            fixture.render(7, self.ROWS),
            fixture.render(8, self.ROWS))

    def test_64_bit_timestamps_survive(self):
        data = gzip.decompress(gzip.compress(
            fixture.render(7, self.ROWS)))
        lines = data.decode().splitlines()
        self.assertEqual(lines[0], "lba,size,op,ts")
        written = [int(line.split(",")[3]) for line in lines[1:]]
        expected = [row[3] for row in fixture.rows(7, self.ROWS)]
        self.assertEqual(written, expected)
        self.assertTrue(all(ts > 2**31 for ts in written))
        # Offsets from the first arrival pass 2^31 ns as well.
        self.assertGreater(written[-1] - written[0], 2**31)
        self.assertEqual(written, sorted(written))

    def test_rows_are_in_range(self):
        for lba, size, op, _ in fixture.rows(3, self.ROWS):
            self.assertLess(lba + size // 4096, fixture.FOOTPRINT_PAGES)
            self.assertIn(size // 4096, range(1, 9))
            self.assertIn(op, ("R", "W"))


class ResultLine(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_benchmark_json_matches_the_runner(self):
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in self.spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_parses_with_its_unit(self):
        for section, units in (
                ("end_to_end", {n: u for n, (u, _) in
                                run.END_TO_END.items()}),
                ("per_layer", run.PER_LAYER)):
            values = {n: 1.5 + i for i, n in enumerate(units)}
            line = run.result_line(True, 3, 0, values, units)
            parsed = json.loads(line)
            self.assertEqual(set(parsed), {"correct", "attempted",
                                           "failed", "metrics"})
            for m in self.spec[section]:
                got = parsed["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertEqual(got["value"], values[m["name"]])
            self.assertEqual(len(parsed["metrics"]),
                             len(self.spec[section]))


if __name__ == "__main__":
    unittest.main()
