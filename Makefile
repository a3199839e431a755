# One-command tier-1 verification: build everything, then run the full
# test suite (unit, integration, property-based, and the persist
# fault-injection tests in test/test_persist.ml).

.PHONY: check build test bench micro micro-smoke net-smoke cluster-bench cluster-smoke twip twip-smoke fuzz fuzz-replay doc linkcheck loc clean

check: ; dune build && dune runtest

build: ; dune build

test: ; dune runtest

# regenerate the paper figures / microbenchmarks (micro also writes
# BENCH_micro.json for cross-PR perf tracking)
bench: ; dune exec bench/main.exe

micro: ; dune exec bench/main.exe -- micro

# CI smoke: same benchmarks with a tiny per-case quota, so the bench
# harness (and its BENCH_micro.json emitter) is exercised on every push
# without burning minutes on statistical quality
micro-smoke: ; PEQUOD_MICRO_QUOTA=0.02 dune exec bench/main.exe -- micro

# live-cluster smoke: the forked multi-process integration tests (home
# + compute servers over real TCP: kill/respawn, directory-routed
# migrate-then-verify, and the kill -9-mid-migration crash-safety
# case), bounded so a wedged process cannot hang CI
net-smoke: ; timeout 240 dune exec test/test_net_cluster.exe

# full-scale cluster benchmark: a million-user Zipf graph driven
# through a live multi-process server cluster over TCP; writes the
# stamped BENCH_cluster.json (see docs/BENCHMARKS.md). Variables are
# overridable: make cluster-bench LOAD_OPS=5000000 LOAD_RATE=20000
LOAD_USERS ?= 1000000
LOAD_OPS ?= 1000000
LOAD_WORKERS ?= 4
LOAD_HOMES ?= 2
LOAD_COMPUTES ?= 2
LOAD_SHARDS ?= 0
LOAD_RATE ?= 0

cluster-bench: ; dune exec bin/pequod_load.exe -- \
	--users $(LOAD_USERS) --ops $(LOAD_OPS) --workers $(LOAD_WORKERS) \
	--homes $(LOAD_HOMES) --computes $(LOAD_COMPUTES) --shards $(LOAD_SHARDS) \
	--rate $(LOAD_RATE)

# CI smoke for the same path: a tiny graph and op quota through a real
# 3-server cluster (2 homes + 1 compute) and 2 worker processes, then
# the same workload against the shard-per-core server at every point of
# the shard matrix (a --shards N run >= 2 also measures its --shards 1
# baseline pass); each BENCH json is asserted whole, and each run is
# timeout-bounded so a wedged server cannot hang CI
cluster-smoke:
	PEQUOD_LOAD_QUOTA=2000 timeout 180 dune exec bin/pequod_load.exe -- \
		--users 10000 --ops 1000000 --workers 2 --homes 2 --computes 1 \
		--pipeline 16
	sh tools/check_bench_cluster.sh BENCH_cluster.json
	grep -Eq '"fetch_coalesced": [1-9]' BENCH_cluster.json \
		|| { echo "FAIL: no single-flight coalescing under pipelined load" >&2; exit 1; }
	grep -Eq '"scan_parked": [1-9]' BENCH_cluster.json \
		|| { echo "FAIL: no scans parked under pipelined load" >&2; exit 1; }
	for n in 1 2 4; do \
		PEQUOD_LOAD_QUOTA=2000 timeout 180 dune exec bin/pequod_load.exe -- \
			--users 10000 --ops 1000000 --workers 2 --shards $$n \
			--out BENCH_cluster_shards$$n.json \
		&& sh tools/check_bench_cluster.sh BENCH_cluster_shards$$n.json \
		|| exit 1; \
	done
	rm -f BENCH_cluster_shards1.json BENCH_cluster_shards2.json BENCH_cluster_shards4.json
	PEQUOD_LOAD_QUOTA=2000 timeout 180 dune exec bin/pequod_load.exe -- \
		--users 10000 --ops 1000000 --workers 2 --homes 2 --computes 1 \
		--pipeline 16 --sessions --out BENCH_cluster_sessions.json
	sh tools/check_bench_cluster.sh BENCH_cluster_sessions.json
	grep -Eq '"stale_read_rate": 0(\.0+)?[,}]' BENCH_cluster_sessions.json \
		|| { echo "FAIL: sessions run observed stale reads" >&2; exit 1; }
	grep -Eq '"session_reads": [1-9]' BENCH_cluster_sessions.json \
		|| { echo "FAIL: sessions run sent no stamped reads" >&2; exit 1; }
	rm -f BENCH_cluster_sessions.json
	PEQUOD_LOAD_QUOTA=2000 timeout 300 dune exec bin/pequod_load.exe -- \
		--users 10000 --ops 1000000 --workers 2 --homes 2 --computes 1 \
		--preload-posts 5000 --migrate-mid-run --out BENCH_cluster_migrate.json
	sh tools/check_bench_cluster.sh BENCH_cluster_migrate.json
	grep -q '"keys_moved"' BENCH_cluster_migrate.json \
		|| { echo "FAIL: migrate run lacks keys_moved" >&2; exit 1; }
	grep -Eq '"errors": 0([,}]|$$)' BENCH_cluster_migrate.json \
		|| { echo "FAIL: reads failed around the migration flip" >&2; exit 1; }
	rm -f BENCH_cluster_migrate.json

# the repository benchmark (twipbench/README.md, BENCHMARK.json): one
# workload and one seed against a forked 1 home + 1 compute cluster, at
# BENCHMARK.json's run length; the last stdout line is the result JSON.
# TRACE=1 reports the per-layer metrics instead of the end-to-end ones.
# Workloads: twip-warm, twip-cold, twip-write.
WORKLOAD ?= twip-warm
SEED ?= 1
TRACE ?= 0

twip: ; python3 twipbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
	--seconds 32 --trace $(TRACE)

# every workload at tiny sizes, end-to-end and traced, plus the
# correctness gate's self-check (about a minute)
twip-smoke: ; python3 twipbench/smoke_test.py

# model-based differential fuzzing: replay seeded op sequences against
# the engine and the naive oracle (test/fuzz/).  Deterministic given
# FUZZ_SEED; on divergence a shrunk repro file is written, replayable
# with `make fuzz-replay REPRO=fuzz-repro-N.txt`.
FUZZ_SEED ?= 42
FUZZ_ITERS ?= 1000
FUZZ_OPS ?= 40

fuzz: ; dune exec test/fuzz/fuzz_main.exe -- \
	--seed $(FUZZ_SEED) --iters $(FUZZ_ITERS) --max-ops $(FUZZ_OPS)

fuzz-replay: ; dune exec test/fuzz/fuzz_main.exe -- --verbose --replay $(REPRO)

# API documentation from the .mli odoc comments. The libraries are
# internal (no public_name), so the private-doc alias is the one that
# covers them; odoc warnings are fatal (see the root `dune` env stanza).
# Requires odoc on the switch (CI installs it).
doc: ; dune build @doc-private

# check that every relative markdown link in *.md / docs/*.md resolves
linkcheck: ; sh tools/check_md_links.sh

# source size: .ml + .mli line totals for lib/ and lib/net, the numbers
# ROADMAP.md tracks for the design-quality aim
loc:
	@for d in lib lib/net; do \
		printf '%-8s %s\n' "$$d" "$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"; \
	done

clean: ; dune clean
