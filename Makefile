.PHONY: all test microbench microbench-smoke smoke smoke-shard \
	dsim-smoke perfbench-check perfbench-pairs check check-quick experiments \
	full clean

all:
	dune build @all

test:
	dune runtest

# Per-primitive micro suite: one exe per primitive family under
# bench/micro/ (proto encode, proto decode, deque, heap, repair,
# Dijkstra, avoidance, graph construction, session flush), each
# printing an ns/op table and hard-asserting ZERO minor-heap words per
# operation on the steady-state paths, and a words ceiling on the rows
# that must allocate (native builds).  Timing is printed, not gated:
# end-to-end and per-layer numbers come from perfbench/.
MICRO_BENCHES = bench_proto_encode bench_proto_decode bench_deque \
	bench_heap bench_repair bench_dijkstra bench_avoid bench_avoid_region \
	bench_graph bench_session

microbench:
	dune build bench/micro
	@for b in $(MICRO_BENCHES); do \
	  dune exec --no-build bench/micro/$$b.exe || exit 1; \
	done

# CI variant: a single timed rep per primitive, no timing to gate on —
# but the zero-allocation assertions still run and still fail the build.
microbench-smoke:
	dune build bench/micro
	@for b in $(MICRO_BENCHES); do \
	  dune exec --no-build bench/micro/$$b.exe -- --smoke || exit 1; \
	done

# End-to-end socket front-end check: real `unicast listen` process on a
# Unix-domain socket, driven through `unicast client`, then SIGINT drain.
smoke:
	sh scripts/smoke_server.sh

# Sharded-server check: the same client transcript against --shards 1
# and --shards 2 must produce byte-identical payments, the per-shard
# stats rows must sum to the server totals, and SIGINT must drain both
# shards.
smoke-shard:
	sh scripts/smoke_shard.sh

# Distributed-simulation smoke: small-n sync and async runs of both dsim
# scenarios with the --oracle cross-check against the centralized
# references — nonzero exit on any fixed-point mismatch.
dsim-smoke:
	dune build bin/unicast.exe
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --oracle
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --mode async --oracle
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --scenario costshare --oracle
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --scenario costshare --mode async --oracle

# Served-path correctness: one short perfbench run per workload that
# BENCHMARK.json gates, plus the ungated serve-node-bin, the only one
# that serves the node engine.  Each run replays its ops in-process and
# checks the server's bytes, a naive reference and the stats counters;
# the target fails unless the result line reports "correct": true and
# "failed": 0.  No timing is gated here.
perfbench-check:
	@mkdir -p _perfbench
	@for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') serve-node-bin; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 15 --trace 0 \
	    > _perfbench/check.out || { tail -n 5 _perfbench/check.out; exit 1; }; \
	  tail -n 1 _perfbench/check.out | python3 -c 'import json, sys; r = json.load(sys.stdin); print(sys.argv[1], "correct=%s failed=%s" % (r["correct"], r["failed"])); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' $$w \
	    || exit 1; \
	done

# The acceptance rule for a perf claim: PAIRS alternating perfbench runs
# of REV (checked out into a worktree under _perfbench/) against this
# checkout on WORKLOAD, seeds SEED, SEED+1, ...; prints each end-to-end
# metric's medians and quartiles, pairs won, the gain rule and the
# regression bound, and fails on any run that does not check out.
REV ?= HEAD
WORKLOAD ?= batch-link-cold
PAIRS ?= 10
SEED ?= 1
perfbench-pairs:
	python3 scripts/perfbench_pairs.py --rev $(REV) --workload $(WORKLOAD) \
	  --pairs $(PAIRS) --seed $(SEED)

# The whole bar: the fast bar, then the served-path correctness runs.
# Nothing here gates on timing; a performance claim is judged by
# `make perfbench-pairs` against the parent commit.
check: check-quick perfbench-check

# The fast bar for CI and pre-push: build, tier-1 tests, the socket
# smoke, the micro-suite smoke (allocation assertions, no timing), and
# the dsim oracle smoke — everything deterministic, nothing
# wall-clock-gated.
check-quick: all test smoke smoke-shard microbench-smoke dsim-smoke

experiments:
	dune exec bench/main.exe -- experiments

full:
	dune exec bench/main.exe -- full

clean:
	dune clean
