"""Tests of the benchmark's correctness gate: a wrong output must count as
a failed sample and never pass silently.  No build is needed; the child
process is replaced by canned pass records.

    python3 perfbench/test_run.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

GOOD_DIGEST = "0" * 32
DRAGON = {"rows": 10, "cfg_blocks": 20, "sources": 2}


def pass_record(digest=GOOD_DIGEST, safe_faults=0, uncovered=0):
    ok = "true" if safe_faults == 0 and uncovered == 0 else "false"
    return {
        "wall_s": 1.0, "alloc_bytes": 1e8, "peak_rss_kb": 100000,
        "live_bytes_after_gc": 4e6, "digest": digest, "dragon": DRAGON,
        "store_entries": 0,
        "engine": {"pus": 20, "collect_hits": 0, "collect_misses": 20,
                   "summary_hits": 0, "summary_misses": 20,
                   "phases": {"collect": {"wall_s": 0.5,
                                          "alloc_bytes": 5e7}}},
        "solver": {"implies_queries": 10, "implies_memo_hits": 9,
                   "fm_runs": 0},
        "reports": {
            "bounds": {"accesses": 100, "safe": 90, "unsafe": 0,
                       "maybe": 10},
            "diffcheck": {"steps": 1000, "oob_events": 3, "covered": 3,
                          "uncovered": uncovered,
                          "safe_faults": safe_faults, "ok": ok},
        },
    }


REF = {"digest": GOOD_DIGEST, "dragon": DRAGON}


class GateTest(unittest.TestCase):
    def test_good_cold_sample_passes(self):
        self.assertEqual(run.check_sample("gen-cold", pass_record(), REF), [])

    def test_wrong_reference_digest_fails(self):
        problems = run.check_sample(
            "gen-edit", pass_record(), dict(REF, digest="f" * 32))
        self.assertTrue(any("digest" in p for p in problems), problems)

    def test_one_safe_fault_fails(self):
        problems = run.check_sample("gen-cold", pass_record(safe_faults=1),
                                    REF)
        self.assertTrue(any("faulted" in p for p in problems), problems)

    def test_uncovered_oob_fails(self):
        problems = run.check_sample("gen-cold", pass_record(uncovered=1),
                                    REF)
        self.assertTrue(problems)

    def test_missing_diffcheck_fails(self):
        rec = pass_record()
        del rec["reports"]["diffcheck"]
        self.assertTrue(run.check_sample("gen-cold", rec, REF))


class AccountingTest(unittest.TestCase):
    """The whole run, with set-up and passes replaced: every bad sample
    is counted in "failed" and the result is not "correct"."""

    def run_bench(self, workload, record, trace=0):
        saved = (run.build, run.set_up, run.analyse, run.restore_store,
                 run.WORK)
        with tempfile.TemporaryDirectory() as work:
            run.WORK = work
            run.build = lambda: None
            run.restore_store = lambda filled, work: None

            def set_up(wl, seed, dest):
                os.makedirs(dest)
                return {"corpus": dest, "describe": "test", "pus": 20,
                        "store": dest, "edits": [{"dir": dest}] * 2,
                        "refs": {"cold": REF, "edit-0": REF, "edit-1": REF}}

            def analyse(wl, src, out, store=None, trace=None,
                        reference=False):
                if trace:
                    with open(trace, "w") as f:
                        json.dump({"spans": []}, f)
                return record(), None

            run.set_up = set_up
            run.analyse = analyse
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run.main(["--workload", workload, "--seconds",
                                     "0", "--trace", str(trace)])
            finally:
                (run.build, run.set_up, run.analyse, run.restore_store,
                 run.WORK) = saved
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_metric_names_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = self.run_bench("gen-cold", pass_record, trace=trace)
            self.assertTrue(res["correct"])
            self.assertEqual(
                {n: m["unit"] for n, m in res["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[key]})

    def test_wrong_digest_counts_every_sample(self):
        res = self.run_bench("gen-edit",
                             lambda: pass_record(digest="f" * 32))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], run.MIN_SAMPLES)
        self.assertEqual(res["failed"], res["attempted"])

    def test_safe_fault_counts_in_traced_run(self):
        res = self.run_bench("gen-cold", lambda: pass_record(safe_faults=1),
                             trace=1)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])


if __name__ == "__main__":
    unittest.main()
