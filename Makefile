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
#            machine-readable output carries the interning metrics
#   fuzz-smoke — bounded differential-fuzzing run (fixed seed, all
#            oracles, then the interned-set pool invariant after every
#            case); any failure means a solver-stage disagreement or a
#            corrupt set pool
#   engine-smoke — run a tiny benchmark through SFS and VSFS under every
#            engine scheduler and require byte-identical reports
#   par-smoke — run the bench table and the fuzz campaign at --jobs 1 and
#            --jobs 4 and require identical output: byte-identical fuzz
#            reports, and bench JSON identical after zeroing the timing
#            fields (seconds, wall_seconds, ...) that legitimately move
#   serve-smoke — start a resident daemon, require its report to match a
#            batch `analyze` run bit-for-bit, append one function to the
#            source, reload, and require the re-analysis to splice (reused
#            functions > 0) while the report still matches the batch run
#   lattice-smoke — `--pre unify` must leave SFS and VSFS reports
#            byte-identical to `--pre none` on two suite benchmarks, and a
#            resident daemon must answer tiered queries (unify/andersen
#            echoed, exact silent)
#   ci     — all of the above
#
# Not part of ci:
#   perf-pairs — PAIRS alternating perfbench pairs per workload of the
#            revision PARENT (extracted with `git archive` into a temporary
#            directory) against this tree, each pair on one seed, then `run.py
#            compare` of the two sets. About 2 x PAIRS x 55 s per workload:
#            `make perf-pairs PARENT=<rev> PAIRS=10`

DUNE ?= dune
SMOKE_DIR := $(shell mktemp -d /tmp/pta-ci-cache.XXXXXX)
BENCH_JSON := $(shell mktemp /tmp/pta-ci-bench.XXXXXX.json)
ENGINE_DIR := $(shell mktemp -d /tmp/pta-ci-engine.XXXXXX)
PAR_DIR := $(shell mktemp -d /tmp/pta-ci-par.XXXXXX)
SERVE_DIR := $(shell mktemp -d /tmp/pta-ci-serve.XXXXXX)
LATTICE_DIR := $(shell mktemp -d /tmp/pta-ci-lattice.XXXXXX)
SCHEDULERS := fifo lifo topo lrf
# every field here is wall-clock-derived; everything else must match exactly
PAR_TIMING_SED := s/"(seconds|pre_seconds|wall_seconds|andersen_s|time_ratio|jobs)": *[0-9.eE+-]+/"\1": 0/g

# Every target after `build` calls the binaries it built directly: a
# `dune exec` waits on dune's project lock, which a long-lived daemon or a
# concurrent `dune build` in the same checkout can hold indefinitely.
VSFS_BIN := ./_build/default/bin/vsfs_cli.exe
BENCH_BIN := ./_build/default/bench/main.exe

.PHONY: ci build test smoke bench-smoke fuzz-smoke engine-smoke par-smoke \
	serve-smoke lattice-smoke perf-pairs clean

ci: build test smoke bench-smoke fuzz-smoke engine-smoke par-smoke \
	serve-smoke lattice-smoke

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

smoke: build
	@echo "== store smoke test (cache dir: $(SMOKE_DIR)) =="
	$(VSFS_BIN) gen --bench du --scale 0.2 -o $(SMOKE_DIR)/du.c
	$(VSFS_BIN) analyze $(SMOKE_DIR)/du.c --cache-dir $(SMOKE_DIR) --stats > $(SMOKE_DIR)/cold.out
	grep -q "cache: build cold" $(SMOKE_DIR)/cold.out
	grep -q "call_edges=" $(SMOKE_DIR)/cold.out
	grep -q "vsfs.version_objects" $(SMOKE_DIR)/cold.out
	grep -q "svfg.slots" $(SMOKE_DIR)/cold.out
	$(VSFS_BIN) analyze $(SMOKE_DIR)/du.c --cache-dir $(SMOKE_DIR) --stats > $(SMOKE_DIR)/warm.out
	grep -q "cache: build warm" $(SMOKE_DIR)/warm.out
	grep -q "cache: vsfs results hit" $(SMOKE_DIR)/warm.out
	grep -q "store.hits" $(SMOKE_DIR)/warm.out
	$(VSFS_BIN) cache ls --cache-dir $(SMOKE_DIR)
	$(VSFS_BIN) cache clear --cache-dir $(SMOKE_DIR)
	rm -rf $(SMOKE_DIR)
	@echo "== smoke OK =="

bench-smoke: build
	@echo "== bench smoke (json: $(BENCH_JSON)) =="
	$(BENCH_BIN) tableIII 0.1 --json $(BENCH_JSON) > /dev/null
	grep -q '"unique_sets"' $(BENCH_JSON)
	grep -q '"hit_rate"' $(BENCH_JSON)
	grep -q '"dedup_sfs"' $(BENCH_JSON)
	grep -q '"equal": true' $(BENCH_JSON)
	! grep -q '"equal": false' $(BENCH_JSON)
	rm -f $(BENCH_JSON)
	@echo "== bench smoke OK =="

fuzz-smoke: build
	@echo "== fuzz smoke (50 runs, seed 1, full oracle tower) =="
	$(VSFS_BIN) fuzz --runs 50 --seed 1
	@echo "== fuzz smoke OK =="

engine-smoke: build
	@echo "== engine smoke (every scheduler, identical results; dir: $(ENGINE_DIR)) =="
	$(VSFS_BIN) gen --bench du --scale 0.15 -o $(ENGINE_DIR)/du.c
	@set -e; \
	for a in sfs vsfs; do \
	  for s in $(SCHEDULERS); do \
	    echo "  $$a / $$s"; \
	    $(VSFS_BIN) analyze $(ENGINE_DIR)/du.c \
	      --analysis $$a --scheduler $$s > $(ENGINE_DIR)/$$a-$$s.out; \
	    cmp $(ENGINE_DIR)/$$a-fifo.out $(ENGINE_DIR)/$$a-$$s.out; \
	  done; \
	done
	rm -rf $(ENGINE_DIR)
	@echo "== engine smoke OK =="

par-smoke: build
	@echo "== par smoke (--jobs 1 vs --jobs 4 must agree; dir: $(PAR_DIR)) =="
	$(BENCH_BIN) tableIII 0.1 --jobs 1 --json $(PAR_DIR)/bench-j1.json > /dev/null
	$(BENCH_BIN) tableIII 0.1 --jobs 4 --json $(PAR_DIR)/bench-j4.json > /dev/null
	sed -E '$(PAR_TIMING_SED)' $(PAR_DIR)/bench-j1.json > $(PAR_DIR)/bench-j1.norm
	sed -E '$(PAR_TIMING_SED)' $(PAR_DIR)/bench-j4.json > $(PAR_DIR)/bench-j4.norm
	cmp $(PAR_DIR)/bench-j1.norm $(PAR_DIR)/bench-j4.norm
	$(VSFS_BIN) fuzz --runs 30 --seed 2 --jobs 1 > $(PAR_DIR)/fuzz-j1.out
	$(VSFS_BIN) fuzz --runs 30 --seed 2 --jobs 4 > $(PAR_DIR)/fuzz-j4.out
	cmp $(PAR_DIR)/fuzz-j1.out $(PAR_DIR)/fuzz-j4.out
	rm -rf $(PAR_DIR)
	@echo "== par smoke OK =="

serve-smoke: build
	@echo "== serve smoke (daemon vs batch, incremental reload; dir: $(SERVE_DIR)) =="
	@set -e; \
	$(VSFS_BIN) gen --bench du --scale 0.2 -o $(SERVE_DIR)/du.c; \
	$(VSFS_BIN) analyze $(SERVE_DIR)/du.c --analysis sfs \
	  | grep '^pt(' > $(SERVE_DIR)/batch.out; \
	$(VSFS_BIN) serve $(SERVE_DIR)/du.c \
	  --socket $(SERVE_DIR)/d.sock --cache-dir $(SERVE_DIR)/store \
	  > $(SERVE_DIR)/daemon.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	$(VSFS_BIN) query --socket $(SERVE_DIR)/d.sock \
	  --retries 600 report > $(SERVE_DIR)/daemon.out; \
	cmp $(SERVE_DIR)/batch.out $(SERVE_DIR)/daemon.out; \
	printf '\nfunc fresh_edit(q) { var t; t = *q; return; }\n' >> $(SERVE_DIR)/du.c; \
	$(VSFS_BIN) analyze $(SERVE_DIR)/du.c --analysis sfs \
	  | grep '^pt(' > $(SERVE_DIR)/batch2.out; \
	$(VSFS_BIN) query --socket $(SERVE_DIR)/d.sock reload \
	  > $(SERVE_DIR)/reload.out; \
	cat $(SERVE_DIR)/reload.out; \
	grep -Eq 'reused=[1-9]' $(SERVE_DIR)/reload.out; \
	$(VSFS_BIN) query --socket $(SERVE_DIR)/d.sock report \
	  > $(SERVE_DIR)/daemon2.out; \
	cmp $(SERVE_DIR)/batch2.out $(SERVE_DIR)/daemon2.out; \
	$(VSFS_BIN) query --socket $(SERVE_DIR)/d.sock shutdown; \
	wait $$pid
	rm -rf $(SERVE_DIR)
	@echo "== serve smoke OK =="

lattice-smoke: build
	@echo "== lattice smoke (--pre unify bit-identity, tiered serve; dir: $(LATTICE_DIR)) =="
	@set -e; \
	for b in du dpkg; do \
	  $(VSFS_BIN) gen --bench $$b --scale 0.15 -o $(LATTICE_DIR)/$$b.c; \
	  for a in sfs vsfs; do \
	    echo "  $$b / $$a"; \
	    $(VSFS_BIN) analyze $(LATTICE_DIR)/$$b.c --analysis $$a --pre none \
	      > $(LATTICE_DIR)/$$b-$$a-none.out; \
	    $(VSFS_BIN) analyze $(LATTICE_DIR)/$$b.c --analysis $$a --pre unify \
	      > $(LATTICE_DIR)/$$b-$$a-unify.out \
	      2> $(LATTICE_DIR)/$$b-$$a-unify.err; \
	    cmp $(LATTICE_DIR)/$$b-$$a-none.out $(LATTICE_DIR)/$$b-$$a-unify.out; \
	    grep -q 'pre: unify seed merged' $(LATTICE_DIR)/$$b-$$a-unify.err; \
	  done; \
	done; \
	$(VSFS_BIN) serve $(LATTICE_DIR)/du.c --socket $(LATTICE_DIR)/d.sock \
	  --cache-dir $(LATTICE_DIR)/store > $(LATTICE_DIR)/daemon.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	name=$$($(VSFS_BIN) query --socket $(LATTICE_DIR)/d.sock --retries 600 \
	  vars | head -1); \
	$(VSFS_BIN) query --socket $(LATTICE_DIR)/d.sock \
	  --tier unify points-to $$name > $(LATTICE_DIR)/unify.out; \
	grep -q '^tier: unify' $(LATTICE_DIR)/unify.out; \
	grep -q '^pt(' $(LATTICE_DIR)/unify.out; \
	$(VSFS_BIN) query --socket $(LATTICE_DIR)/d.sock \
	  --tier andersen points-to $$name > $(LATTICE_DIR)/andersen.out; \
	grep -q '^tier: andersen' $(LATTICE_DIR)/andersen.out; \
	$(VSFS_BIN) query --socket $(LATTICE_DIR)/d.sock \
	  points-to $$name > $(LATTICE_DIR)/exact.out; \
	! grep -q '^tier:' $(LATTICE_DIR)/exact.out; \
	grep -q '^pt(' $(LATTICE_DIR)/exact.out; \
	$(VSFS_BIN) query --socket $(LATTICE_DIR)/d.sock shutdown; \
	wait $$pid
	rm -rf $(LATTICE_DIR)
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
