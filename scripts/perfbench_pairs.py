#!/usr/bin/env python3
"""Run perfbench in alternating pairs: a base revision against this checkout.

    python3 scripts/perfbench_pairs.py --rev REV --workload W --pairs N --seed S

REV is checked out into a git worktree under _perfbench/, removed on exit
(a SIGTERM or Ctrl-C included).  Both sides are built once, before the
first pair, with the TARGETS of their own perfbench/run.py, so a build
cannot stall inside a timed pair.  Pair i runs
`perfbench/run.py --workload W --seed S+i --trace 0` for BENCHMARK.json's
run_seconds once on each side, the base first on even pairs and this
checkout first on odd ones, so a drift in host speed weighs on both sides
alike.  A build or run that outlives its time limit (BUILD_TIMEOUT
seconds; 60 + 6 x run_seconds for a run) has its whole process group
killed; a run that does counts as a failed run, named by its side and
seed.

For each end-to-end metric of BENCHMARK.json it prints each side's median
[q1, q3], the base's quartile spread relative to its median, the pairs
this checkout won, whether the gain rule holds (it wins at least 9 pairs
in 10 and the medians differ by more than the base's quartile spread) and
whether its median is worse than the base's by more than the metric's
bound.  That last check reads "unresolved" when the base's relative
spread exceeds the bound and not every run of this checkout beats every
base run: the runs then spread too widely to tell.  The exit status is 1
if any run reports "correct": false or failed ops, or gives no result;
2 on bad arguments.
"""

import argparse
import ast
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT = 900


def fail(msg, code):
    print("perfbench_pairs: " + msg, file=sys.stderr)
    sys.exit(code)


def quartiles(xs):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_group(cmd, cwd, timeout, env=None):
    """(returncode, stdout, stderr) of [cmd], or None when it outlives
    [timeout] seconds.  It runs in its own process group, so a timeout or
    an abort also stops whatever it spawned (perfbench's server)."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, universal_newlines=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        # run.py execs perfbench, whose work directory is named by its pid
        # and is removed only on a normal exit.
        shutil.rmtree(os.path.join(cwd, "_perfbench", "run-%d" % p.pid),
                      ignore_errors=True)
        return None
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out, err


def run_py_targets(root):
    """The TARGETS that perfbench/run.py in checkout [root] builds, read
    from its source without running it."""
    with open(os.path.join(root, "perfbench", "run.py")) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    fail("no TARGETS in %s/perfbench/run.py" % root, 2)


def build(root, side, timeout):
    """Build the targets perfbench/run.py builds; exit on failure.  Its
    other build flags (display, cache) do not change what is built."""
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH", 2)
    r = run_group([dune, "build", "--root", ".", "--display", "quiet"]
                  + run_py_targets(root),
                  root, timeout, env=dict(os.environ, DUNE_CACHE="disabled"))
    if r is None:
        fail("building the %s side timed out after %d s" % (side, timeout), 1)
    if r[0] != 0:
        sys.stderr.write(r[2][-2000:])
        fail("building the %s side failed" % side, 1)


def run_once(root, workload, seed, seconds, timeout):
    """The result dict of one perfbench run in checkout [root]; None when
    it fails or gives no result, "timeout" when it outlives [timeout]."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = run_group(cmd, root, timeout)
    if r is None:
        return "timeout"
    code, out, err = r
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def ok(result):
    return isinstance(result, dict) and result.get("correct") is True \
        and result.get("failed") == 0


def summarize(metrics, base_runs, change_runs):
    """Print the per-metric table."""
    pairs = len(base_runs)
    rows = [("metric", "base median [q1, q3]", "change median [q1, q3]", "change/base",
             "base spread", "won", "gain", "worse>bound")]
    for m in metrics:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        won = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        better = cmed < bmed if lower else cmed > bmed
        gain = won * 10 >= 9 * pairs and better and abs(bmed - cmed) > bq3 - bq1
        rel = (cmed - bmed) / bmed if bmed else 0.0
        spread = (bq3 - bq1) / bmed if bmed else 0.0
        dominates = max(c) < min(b) if lower else min(c) > max(b)
        if (rel if lower else -rel) > bound:
            worse = "YES (%+.1f%% > %g)" % (100 * rel, bound)
        elif spread > bound and not dominates:
            worse = "unresolved"
        else:
            worse = "no"
        rows.append((name, "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
                     "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3),
                     "%.3f" % (cmed / bmed) if bmed else "-", "%.3f" % spread,
                     "%d/%d" % (won, pairs), "yes" if gain else "no", worse))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", required=True, help="the base revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    a = ap.parse_args()
    if a.pairs < 1:
        fail("--pairs must be at least 1", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run_timeout = 60 + 6 * bench["run_seconds"]
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        fail("workload %s is not in BENCHMARK.json" % a.workload, 2)

    # Let a SIGTERM unwind through the clean-up below, as Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(ROOT, "_perfbench"), exist_ok=True)
    worktree = os.path.join(ROOT, "_perfbench", "pairs-base-%d" % os.getpid())
    add = subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet",
                          worktree, a.rev])
    if add.returncode != 0:
        fail("cannot check out %s" % a.rev, 2)
    sides = {"base": worktree, "change": ROOT}
    runs = {"base": [], "change": []}
    bad = False
    try:
        for side in ("base", "change"):
            build(sides[side], side, BUILD_TIMEOUT)
        for i in range(a.pairs):
            seed = a.seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                r = run_once(sides[side], a.workload, seed, bench["run_seconds"],
                             run_timeout)
                if not ok(r):
                    bad = True
                    if r == "timeout":
                        why = "timed out after %d s, process group killed" % run_timeout
                    elif r is None:
                        why = "no result"
                    else:
                        why = "correct=%s failed=%s" % (r.get("correct"), r.get("failed"))
                    print("pair %d seed %d %s: no correct result (%s)" % (
                        i + 1, seed, side, why), flush=True)
                    continue
                runs[side].append(r)
                print("pair %d seed %d %-6s %s" % (
                    i + 1, seed, side,
                    " ".join("%s=%.4g" % (m["name"], r["metrics"][m["name"]]["value"])
                             for m in bench["end_to_end"])), flush=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", worktree])
        shutil.rmtree(worktree, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])
    if bad:
        print("perfbench_pairs: a run failed its checks; no table", file=sys.stderr)
        sys.exit(1)
    print("\n%s, %d pairs from seed %d, base %s" % (a.workload, a.pairs, a.seed, a.rev))
    summarize(bench["end_to_end"], runs["base"], runs["change"])


if __name__ == "__main__":
    main()
