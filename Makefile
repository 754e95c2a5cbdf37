# Tier-1 gate: `make ci` is what a reviewer (or a pipeline) runs.
#
#   build  — everything, including examples and benches
#   test   — the full alcotest/qcheck suite
#   smoke  — end-to-end check of the persistent analysis store: analyze the
#            same file twice through a fresh cache and require the second
#            run to be a warm start with a results hit; the cold run's
#            --stats must carry the call-wiring, versioning and SVFG slot
#            counters
#   bench-smoke — scale-0.1 Table III run with --json; checks the
#            machine-readable output carries the interning metrics, and
#            that every benchmark's SFS and VSFS pops, props and engine
#            pushes equal the ones recorded in bench/counts_0.1.json
#            (bench/check_counts.py)
#   fuzz-smoke — bounded differential-fuzzing run (fixed seed, all
#            oracles, then the interned-set pool invariant after every
#            case), then a seed-3 campaign of the daemon reload oracle
#            alone; any failure means a solver-stage disagreement, a
#            corrupt set pool or a stale incremental splice
#   par-smoke — run the bench table and the fuzz campaign at --jobs 1 and
#            --jobs 4 and require identical output: byte-identical fuzz
#            reports, and bench JSON identical after zeroing the timing
#            fields (seconds, wall_seconds, ...) that legitimately move
#   serve-smoke — start a resident daemon, require its report to match a
#            batch `analyze` run bit-for-bit, append one function to the
#            source, reload, and require the re-analysis to splice (reused
#            functions > 0) while the report still matches the batch run
#   lattice-smoke — a resident daemon must answer tiered queries
#            (unify/andersen echoed, exact silent), and `analyze` must
#            reject the deleted `--pre` option
#   ci     — all of the above
#
# Each smoke target makes its scratch directory (or file) with mktemp inside
# its own recipe and removes it on exit, pass or fail, so a make invocation
# that does not run a target leaves nothing behind in /tmp.
#
# Not part of ci:
#   perf-pairs — PAIRS alternating perfbench pairs per workload of the
#            revision PARENT (extracted with `git archive` into a temporary
#            directory) against this tree, each pair on one seed, then `run.py
#            compare` of the two sets. About 2 x PAIRS x 55 s per workload:
#            `make perf-pairs PARENT=<rev> PAIRS=10`

DUNE ?= dune
# every field here is wall-clock-derived; everything else must match exactly
PAR_TIMING_SED := s/"(seconds|pre_seconds|wall_seconds|andersen_s|time_ratio|jobs)": *[0-9.eE+-]+/"\1": 0/g

# Every target after `build` calls the binaries it built directly: a
# `dune exec` waits on dune's project lock, which a long-lived daemon or a
# concurrent `dune build` in the same checkout can hold indefinitely.
VSFS_BIN := ./_build/default/bin/vsfs_cli.exe
BENCH_BIN := ./_build/default/bench/main.exe

.PHONY: ci build test smoke bench-smoke fuzz-smoke par-smoke serve-smoke \
	lattice-smoke perf-pairs clean

ci: build test smoke bench-smoke fuzz-smoke par-smoke serve-smoke \
	lattice-smoke

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

smoke: build
	@set -ex; \
	d=$$(mktemp -d /tmp/pta-ci-cache.XXXXXX); trap 'rm -rf '"$$d" EXIT; \
	echo "== store smoke test (cache dir: $$d) =="; \
	$(VSFS_BIN) gen --bench du --scale 0.2 -o $$d/du.c; \
	$(VSFS_BIN) analyze $$d/du.c --cache-dir $$d --stats > $$d/cold.out; \
	grep -q "cache: build cold" $$d/cold.out; \
	grep -q "call_edges=" $$d/cold.out; \
	grep -q "vsfs.version_objects" $$d/cold.out; \
	grep -q "svfg.slots" $$d/cold.out; \
	$(VSFS_BIN) analyze $$d/du.c --cache-dir $$d --stats > $$d/warm.out; \
	grep -q "cache: build warm" $$d/warm.out; \
	grep -q "cache: vsfs results hit" $$d/warm.out; \
	grep -q "store.hits" $$d/warm.out; \
	$(VSFS_BIN) cache ls --cache-dir $$d; \
	$(VSFS_BIN) cache clear --cache-dir $$d
	@echo "== smoke OK =="

bench-smoke: build
	@set -ex; \
	j=$$(mktemp /tmp/pta-ci-bench.XXXXXX.json); trap 'rm -f '"$$j" EXIT; \
	echo "== bench smoke (json: $$j) =="; \
	$(BENCH_BIN) tableIII 0.1 --json $$j > /dev/null; \
	grep -q '"unique_sets"' $$j; \
	grep -q '"hit_rate"' $$j; \
	grep -q '"dedup_sfs"' $$j; \
	grep -q '"equal": true' $$j; \
	if grep -q '"equal": false' $$j; then exit 1; fi; \
	python3 bench/check_counts.py $$j bench/counts_0.1.json
	@echo "== bench smoke OK =="

fuzz-smoke: build
	@echo "== fuzz smoke (50 runs, seed 1, full oracle tower) =="
	$(VSFS_BIN) fuzz --runs 50 --seed 1
	@echo "== fuzz smoke (80 runs, seed 3, daemon reload oracle) =="
	$(VSFS_BIN) fuzz --runs 80 --seed 3 --oracle serve
	@echo "== fuzz smoke OK =="

par-smoke: build
	@set -ex; \
	d=$$(mktemp -d /tmp/pta-ci-par.XXXXXX); trap 'rm -rf '"$$d" EXIT; \
	echo "== par smoke (--jobs 1 vs --jobs 4 must agree; dir: $$d) =="; \
	$(BENCH_BIN) tableIII 0.1 --jobs 1 --json $$d/bench-j1.json > /dev/null; \
	$(BENCH_BIN) tableIII 0.1 --jobs 4 --json $$d/bench-j4.json > /dev/null; \
	sed -E '$(PAR_TIMING_SED)' $$d/bench-j1.json > $$d/bench-j1.norm; \
	sed -E '$(PAR_TIMING_SED)' $$d/bench-j4.json > $$d/bench-j4.norm; \
	cmp $$d/bench-j1.norm $$d/bench-j4.norm; \
	$(VSFS_BIN) fuzz --runs 30 --seed 2 --jobs 1 > $$d/fuzz-j1.out; \
	$(VSFS_BIN) fuzz --runs 30 --seed 2 --jobs 4 > $$d/fuzz-j4.out; \
	cmp $$d/fuzz-j1.out $$d/fuzz-j4.out
	@echo "== par smoke OK =="

serve-smoke: build
	@set -e; \
	d=$$(mktemp -d /tmp/pta-ci-serve.XXXXXX); trap 'rm -rf '"$$d" EXIT; \
	echo "== serve smoke (daemon vs batch, incremental reload; dir: $$d) =="; \
	$(VSFS_BIN) gen --bench du --scale 0.2 -o $$d/du.c; \
	$(VSFS_BIN) analyze $$d/du.c --analysis sfs \
	  | grep '^pt(' > $$d/batch.out; \
	$(VSFS_BIN) serve $$d/du.c \
	  --socket $$d/d.sock --cache-dir $$d/store \
	  > $$d/daemon.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf '"$$d" EXIT; \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  --retries 600 report > $$d/daemon.out; \
	cmp $$d/batch.out $$d/daemon.out; \
	printf '\nfunc fresh_edit(q) { var t; t = *q; return; }\n' >> $$d/du.c; \
	$(VSFS_BIN) analyze $$d/du.c --analysis sfs \
	  | grep '^pt(' > $$d/batch2.out; \
	$(VSFS_BIN) query --socket $$d/d.sock reload \
	  > $$d/reload.out; \
	cat $$d/reload.out; \
	grep -Eq 'reused=[1-9]' $$d/reload.out; \
	$(VSFS_BIN) query --socket $$d/d.sock report \
	  > $$d/daemon2.out; \
	cmp $$d/batch2.out $$d/daemon2.out; \
	$(VSFS_BIN) query --socket $$d/d.sock shutdown; \
	wait $$pid
	@echo "== serve smoke OK =="

lattice-smoke: build
	@set -e; \
	d=$$(mktemp -d /tmp/pta-ci-lattice.XXXXXX); trap 'rm -rf '"$$d" EXIT; \
	echo "== lattice smoke (tiered serve; dir: $$d) =="; \
	$(VSFS_BIN) gen --bench du --scale 0.15 -o $$d/du.c; \
	if $(VSFS_BIN) analyze $$d/du.c --pre unify > /dev/null 2>&1; then \
	  exit 1; fi; \
	$(VSFS_BIN) serve $$d/du.c --socket $$d/d.sock \
	  --cache-dir $$d/store > $$d/daemon.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf '"$$d" EXIT; \
	name=$$($(VSFS_BIN) query --socket $$d/d.sock --retries 600 \
	  vars | head -1); \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  --tier unify points-to $$name > $$d/unify.out; \
	grep -q '^tier: unify' $$d/unify.out; \
	grep -q '^pt(' $$d/unify.out; \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  --tier andersen points-to $$name > $$d/andersen.out; \
	grep -q '^tier: andersen' $$d/andersen.out; \
	$(VSFS_BIN) query --socket $$d/d.sock \
	  points-to $$name > $$d/exact.out; \
	if grep -q '^tier:' $$d/exact.out; then exit 1; fi; \
	grep -q '^pt(' $$d/exact.out; \
	$(VSFS_BIN) query --socket $$d/d.sock shutdown; \
	wait $$pid
	@echo "== lattice smoke OK =="

PARENT ?= HEAD
PAIRS ?= 10

# Odd pairs run the parent first, even pairs this tree first, so a drift in
# host speed does not favour either side.
perf-pairs:
	@set -e; \
	tmp=$$(mktemp -d /tmp/pta-perf-pairs.XXXXXX); wt=$$tmp/parent; \
	trap 'rm -rf '"$$tmp" EXIT; \
	mkdir $$wt; git archive $(PARENT) | tar -x -C $$wt; \
	test -f $$wt/perfbench/run.py; \
	for w in suite-batch daemon-edit; do \
	  for i in $$(seq 1 $(PAIRS)); do \
	    if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
	    for side in $$order; do \
	      if [ $$side = parent ]; then dir=$$wt; else dir=.; fi; \
	      echo "== $$w pair $$i/$(PAIRS): $$side (seed $$i)"; \
	      python3 $$dir/perfbench/run.py --workload $$w --seed $$i \
	        --out $$tmp/$$side.json > $$tmp/run.log 2>&1 \
	        || { cat $$tmp/run.log; exit 1; }; \
	      tail -1 $$tmp/run.log; \
	    done; \
	  done; \
	done; \
	python3 perfbench/run.py compare $$tmp/parent.json $$tmp/change.json

clean:
	$(DUNE) clean
