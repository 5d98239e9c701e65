#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload gen-cold|gen-edit|gen-large \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It builds perfbench/pass.exe with
dune, sets the workload up from the seed (corpus, references, store),
then runs analysis passes, each in a fresh child process, for --seconds.
Every pass's outputs are checked; a pass that fails a check counts as a
failed sample.  With --trace 1, one more pass records a span around each
layer call and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the full record of the run
is written to .bench_work/result-<workload>.json.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
PASS = os.path.join(ROOT, "_build", "default", "perfbench", "pass.exe")

# Every workload is a Corpus.Gen corpus of the standard shape (10 PUs per
# file) generated from the seed; only its size and the way it is analysed
# differ.  Why each exists is in README.md.  A sample's outputs must equal
# those of a reference pass made in set-up: cold (no store), without
# clients, at ref_jobs -- a schedule other than the sample's wherever the
# store does not already make the reference independent.
WORKLOADS = {
    "gen-cold": {"files": 201, "jobs": 1, "clients": True, "dragon": True,
                 "ref_jobs": 2},
    "gen-edit": {"files": 201, "jobs": 1, "clients": False, "dragon": True,
                 "ref_jobs": 1},
    "gen-large": {"files": 400, "jobs": 2, "clients": False, "dragon": False,
                  "ref_jobs": 1},
}
DEFAULT_SEED = 42
SETUP_REPEATS = 3   # set-up is timed this many times; setup_s is the median
EDITS = 2           # distinct gen-edit edits, each with a cold reference
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120
OUTPUTS = ("bench.rgn", "bench.dgn", "bench.cfg")
MB = 1e6

# A dense loop nest of the generated code: a repetition loop over j0
# around a sweep of the whole array.  Lowering the sweep's upper bound
# literal changes that PU's regions and keeps every access in bounds.
EDIT_SITE = re.compile(r"^(\s+do j0 = 1, \d+\n\s+do i = 1, )(\d+)$", re.M)


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up): no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- building and running passes ------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        raise BenchError("run from the root of a checkout of the repository "
                         "(dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/pass.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout)


def child(args):
    """Run pass.exe once; returns (parsed last stdout line, error)."""
    try:
        proc = subprocess.run([PASS] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % CHILD_TIMEOUT_S
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "no JSON result line"


def output_digest(out_dir):
    h = hashlib.md5()
    for name in OUTPUTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                h.update(name.encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()


def clean_work():
    """Empty the work directory but keep the result records of earlier
    runs: corpora, stores and outputs are rebuilt by every run."""
    os.makedirs(WORK, exist_ok=True)
    for name in os.listdir(WORK):
        if not name.startswith("result-"):
            path = os.path.join(WORK, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def files_under(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, fs in os.walk(root) for f in fs}


def restore_store(filled, work):
    """Bring the working store back to the filled state: drop the entries
    the last sample added and hard-link back any it moved aside.  The store
    writes entries by atomic rename and never rewrites one, so a linked
    entry is never modified, and a restore touches only a few files."""
    want, have = files_under(filled), files_under(work)
    for rel in have - want:
        os.remove(os.path.join(work, rel))
    for rel in want - have:
        os.makedirs(os.path.dirname(os.path.join(work, rel)), exist_ok=True)
        os.link(os.path.join(filled, rel), os.path.join(work, rel))


def analyse(wl, src, out, store=None, trace=None, reference=False):
    """One pass over the sources in src, outputs in out (made fresh; for a
    Dragon load it holds the sources too, as a uhc output directory does).
    Returns the pass's record with the output digest added, or None and
    the error."""
    spec = WORKLOADS[wl]
    fresh_dir(out)
    if spec["dragon"]:
        for name in os.listdir(src):
            os.link(os.path.join(src, name), os.path.join(out, name))
    args = ["run", "--src", src, "--out", out,
            "--jobs", str(spec["ref_jobs" if reference else "jobs"])]
    if store:
        args += ["--store", store]
    if spec["clients"] and not reference:
        args.append("--clients")
    if spec["dragon"]:
        args.append("--dragon")
    if trace:
        args += ["--trace", trace]
    rec, err = child(args)
    if rec is not None:
        rec["digest"] = output_digest(out)
    return rec, err


# ---- set-up ---------------------------------------------------------------

def make_edits(corpus, seed, count, dest):
    """count seeded edits, each to one PU of the corpus; every edit is a
    directory of links to the unchanged files plus the edited one."""
    rng = random.Random(seed)
    sites = []
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name)) as f:
            text = f.read()
        sites += [(name, m.start(2), m.end(2), int(m.group(2)))
                  for m in EDIT_SITE.finditer(text)]
    if len(sites) < count:
        raise BenchError("corpus has %d edit sites, need %d"
                         % (len(sites), count))
    edits = []
    for k, (name, start, end, bound) in enumerate(rng.sample(sites, count)):
        d = os.path.join(dest, "edit-%d" % k)
        os.makedirs(d)
        for other in os.listdir(corpus):
            if other != name:
                os.link(os.path.join(corpus, other), os.path.join(d, other))
        with open(os.path.join(corpus, name)) as f:
            text = f.read()
        new_bound = bound - rng.randint(1, 4)
        with open(os.path.join(d, name), "w") as f:
            f.write(text[:start] + str(new_bound) + text[end:])
        edits.append({"dir": d, "file": name, "offset": start,
                      "bound": bound, "new_bound": new_bound})
    return edits


def reference(wl, src, out):
    rec, err = analyse(wl, src, out, reference=True)
    if rec is None:
        raise BenchError("reference pass over %s failed: %s" % (src, err))
    return {"digest": rec["digest"], "dragon": rec.get("dragon", {})}


def set_up(wl, seed, dest):
    """Generate the corpus and derive every reference from it.  Returns
    the set-up state; its "refs" must not depend on the repetition."""
    spec = WORKLOADS[wl]
    fresh_dir(dest)
    corpus = os.path.join(dest, "corpus")
    info, err = child(["gen", "--seed", str(seed), "--files",
                       str(spec["files"]), "--out", corpus])
    if info is None:
        raise BenchError("corpus generation failed: " + err)
    state = {"corpus": corpus, "describe": info["describe"],
             "pus": info["pus"], "refs": {}}
    out = os.path.join(dest, "out")
    if wl == "gen-edit":
        # fill the store from the unedited corpus; every sample starts
        # from a link copy of this state
        state["store"] = os.path.join(dest, "store")
        rec, err = analyse(wl, corpus, out, store=state["store"])
        if rec is None:
            raise BenchError("filling the store failed: " + err)
        state["edits"] = make_edits(corpus, seed, EDITS, dest)
        for k, edit in enumerate(state["edits"]):
            state["refs"]["edit-%d" % k] = reference(wl, edit["dir"], out)
    else:
        state["refs"]["cold"] = reference(wl, corpus, out)
    return state


# ---- the per-sample gate ---------------------------------------------------

def check_sample(wl, rec, ref):
    """Every reason this sample's outputs are wrong; [] if none.

    ref: the set-up reference the sample's outputs must match."""
    problems = []
    if rec.get("digest") != ref["digest"]:
        problems.append("output digest %s != reference %s"
                        % (rec.get("digest"), ref["digest"]))
    if rec.get("dragon", {}) != ref["dragon"]:
        problems.append("Dragon project %s != reference %s"
                        % (rec.get("dragon"), ref["dragon"]))
    if WORKLOADS[wl]["clients"]:
        dc = rec.get("reports", {}).get("diffcheck")
        if dc is None:
            problems.append("no diffcheck report")
        else:
            if dc.get("safe_faults") != 0:
                problems.append("diffcheck: %s proven-safe accesses faulted"
                                % dc.get("safe_faults"))
            if dc.get("uncovered") != 0:
                problems.append("diffcheck: %s OOB events without a "
                                "maybe/unsafe row" % dc.get("uncovered"))
            if dc.get("ok") != "true":
                problems.append("diffcheck: ok=%s" % dc.get("ok"))
    if WORKLOADS[wl]["dragon"] and not rec.get("dragon", {}).get("rows"):
        problems.append("Dragon loaded no rows")
    return problems


# ---- sampling --------------------------------------------------------------

def sample(wl, state, i, trace=None):
    """Sample i: restore the workload's starting state outside the timed
    region, run one pass in a fresh process and check it."""
    out = os.path.join(WORK, "out")
    if wl == "gen-edit":
        k = i % len(state["edits"])
        store = os.path.join(WORK, "store")
        restore_store(state["store"], store)
        rec, err = analyse(wl, state["edits"][k]["dir"], out, store=store,
                           trace=trace)
        ref = state["refs"]["edit-%d" % k]
    else:
        rec, err = analyse(wl, state["corpus"], out, trace=trace)
        ref = state["refs"]["cold"]
    if rec is None:
        return None, ["pass failed: " + err]
    return rec, check_sample(wl, rec, ref)


# ---- metrics ---------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def self_times(spans):
    """Per-span-name self time: duration minus the part of it covered by
    child spans (children never overlap: layers run one after another)."""
    child_time = {}
    for s in spans:
        child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                   + s["end_s"] - s["start_s"])
    out = {}
    for s in spans:
        dur = s["end_s"] - s["start_s"]
        out[s["name"]] = (out.get(s["name"], 0.0) + dur
                          - child_time.get(s["id"], 0.0))
    return out


def span_alloc(spans, name):
    return sum(s["alloc_bytes"] for s in spans if s["name"] == name)


def ratio(hits, base):
    return hits / base if base else 0.0


def end_to_end_metrics(good, setup_times):
    return {
        "wall_s": (median([r["wall_s"] for r in good]), "s"),
        "alloc_mb": (median([r["alloc_bytes"] / MB for r in good]), "MB"),
        "peak_rss_mb": (median([r["peak_rss_kb"] * 1024 / MB for r in good]),
                        "MB"),
        "setup_s": (median(setup_times), "s"),
    }


def per_layer_metrics(good, traced, spans):
    """Engine phases and counters: medians over the untraced samples (read
    from Engine.result.e_stats).  Span self times, the live heap and the
    unattributed remainder: from the traced pass."""
    def phase(name, field):
        return median([r["engine"]["phases"].get(name, {}).get(field, 0.0)
                       for r in good])

    def eng(field):
        return median([r["engine"][field] for r in good])

    pus = eng("pus")
    c_hits, c_miss = eng("collect_hits"), eng("collect_misses")
    s_hits, s_miss = eng("summary_hits"), eng("summary_misses")
    implies = traced["solver"]["implies_queries"]
    memo = traced["solver"]["implies_memo_hits"]
    reports = traced.get("reports", {})
    bounds = reports.get("bounds", {})
    st = self_times(spans)
    layers = [n for n in st if n != "pass"]
    return {
        "engine.collect_s": (phase("collect", "wall_s"), "s"),
        "engine.collect_alloc_mb": (phase("collect", "alloc_bytes") / MB,
                                    "MB"),
        "engine.collect_us_per_pu": (
            phase("collect", "wall_s") * 1e6 / pus if pus else 0.0, "us"),
        "engine.prepare_s": (phase("prepare", "wall_s"), "s"),
        "engine.digest_s": (phase("digest", "wall_s"), "s"),
        "engine.summarize_s": (phase("summarize", "wall_s"), "s"),
        "engine.assemble_s": (phase("assemble", "wall_s"), "s"),
        "engine.summarize_alloc_mb": (phase("summarize", "alloc_bytes") / MB,
                                      "MB"),
        "engine.pus": (pus, "count"),
        "engine_store.collect_hit_ratio": (ratio(c_hits, c_hits + c_miss),
                                           "ratio"),
        "engine_store.collect_hits": (c_hits, "count"),
        "engine_store.collect_lookups": (c_hits + c_miss, "count"),
        "engine_store.summary_hit_ratio": (ratio(s_hits, s_hits + s_miss),
                                           "ratio"),
        "engine_store.summary_hits": (s_hits, "count"),
        "engine_store.summary_lookups": (s_hits + s_miss, "count"),
        "engine_store.entries": (median([r["store_entries"] for r in good]),
                                 "count"),
        "lang.load_s": (st.get("lang.load", 0.0), "s"),
        "lang.alloc_mb": (span_alloc(spans, "lang.load") / MB, "MB"),
        "whirl.lower_s": (st.get("whirl.lower", 0.0), "s"),
        "whirl.alloc_mb": (span_alloc(spans, "whirl.lower") / MB, "MB"),
        "engine.run_s": (st.get("engine.run", 0.0), "s"),
        "rgnfile.write_s": (st.get("rgnfile.write", 0.0), "s"),
        "dragon.load_s": (st.get("dragon.load", 0.0), "s"),
        "analyses.bounds_s": (st.get("analyses.bounds", 0.0), "s"),
        "analyses.permissions_s": (st.get("analyses.permissions", 0.0), "s"),
        "analyses.regions_s": (st.get("analyses.regions", 0.0), "s"),
        "analyses.bounds_safe_ratio": (
            ratio(bounds.get("safe", 0), bounds.get("accesses", 0)), "ratio"),
        "analyses.bounds_safe": (bounds.get("safe", 0), "count"),
        "analyses.bounds_accesses": (bounds.get("accesses", 0), "count"),
        "interp.diffcheck_s": (st.get("interp.diffcheck", 0.0), "s"),
        "interp.steps": (reports.get("diffcheck", {}).get("steps", 0),
                         "count"),
        "linear.implies_queries": (implies, "count"),
        "linear.implies_memo_hits": (memo, "count"),
        "linear.implies_memo_hit_ratio": (ratio(memo, implies), "ratio"),
        "linear.fm_runs": (traced["solver"]["fm_runs"], "count"),
        "gc.live_mb_after": (traced["live_bytes_after_gc"] / MB, "MB"),
        "obs.traced_wall_s": (traced["wall_s"], "s"),
        "obs.trace_overhead_s": (
            traced["wall_s"] - median([r["wall_s"] for r in good]), "s"),
        "obs.unattributed_s": (
            traced["wall_s"] - sum(st[n] for n in layers), "s"),
    }


# ---- main ------------------------------------------------------------------

def run(args):
    wl = args.workload
    build()
    clean_work()
    setup_times, refs_seen = [], []
    for rep in range(SETUP_REPEATS):
        t0 = time.monotonic()
        state = set_up(wl, args.seed, os.path.join(WORK, "setup-%d" % rep))
        setup_times.append(time.monotonic() - t0)
        refs_seen.append(state["refs"])
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(os.path.join(WORK, "setup-%d" % rep))
    log("%s: %s; set-up %s s" % (wl, state["describe"],
                                 " ".join("%.3f" % t for t in setup_times)))

    samples = []

    def record(i, rec, problems, traced=False):
        samples.append({"index": i, "traced": traced, "record": rec,
                        "problems": problems})
        if problems:
            log("%s: sample %d FAILED: %s" % (wl, i, "; ".join(problems)))

    if any(r != refs_seen[0] for r in refs_seen):
        # references are pure functions of the seed; a difference between
        # repetitions of the set-up is itself a wrong output
        record(-1, None, ["references differ between set-up repetitions"])

    t_start = time.monotonic()
    i = 0
    while i < MIN_SAMPLES or time.monotonic() - t_start < args.seconds:
        rec, problems = sample(wl, state, i)
        record(i, rec, problems)
        i += 1
    spans = []
    if args.trace:
        trace_path = os.path.join(WORK, "trace.json")
        rec, problems = sample(wl, state, i, trace=trace_path)
        record(i, rec, problems, traced=True)
        if rec is not None:
            with open(trace_path) as f:
                spans = json.load(f)["spans"]

    good = [s["record"] for s in samples
            if s["record"] is not None and not s["problems"]
            and not s["traced"]]
    traced = [s["record"] for s in samples
              if s["traced"] and s["record"] is not None]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])

    e2e = end_to_end_metrics(good, setup_times)
    layer = (per_layer_metrics(good, traced[0], spans)
             if args.trace and traced and good else {})
    print("%s  seed %d  %d samples (+%d traced), %d failed, error_rate %.4f"
          % (wl, args.seed, len(good), len(traced), failed,
             failed / attempted))
    for name, (value, unit) in e2e.items():
        note = ("median of %d set-ups" % len(setup_times)
                if name == "setup_s" else "median of %d samples" % len(good))
        print("  %-32s %14.6g %-6s (%s)" % (name, value, unit, note))
    for name, (value, unit) in layer.items():
        print("  %-32s %14.6g %s" % (name, value, unit))

    metrics = {n: {"value": v, "unit": u}
               for n, (v, u) in (layer if args.trace else e2e).items()}
    with open(os.path.join(WORK, "result-%s.json" % wl), "w") as f:
        json.dump({"workload": wl, "seed": args.seed,
                   "describe": state["describe"], "pus": state["pus"],
                   "setup_s": setup_times,
                   "references": state["refs"],
                   "edits": state.get("edits", []),
                   "samples": samples, "spans": spans,
                   "end_to_end": {n: {"value": v, "unit": u}
                                  for n, (v, u) in e2e.items()},
                   "per_layer": {n: {"value": v, "unit": u}
                                 for n, (v, u) in layer.items()}},
                  f, indent=1)
    clean_work()
    print(json.dumps({"correct": failed == 0 and bool(good) and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        run(args)
    except BenchError as e:
        log("benchmark error: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
