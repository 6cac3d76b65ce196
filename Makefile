# Convenience entry points; everything below is plain dune.

.PHONY: all check test check-fault check-obs check-obs-net check-resilience check-net check-serve check-soak check-stream check-crypto-perf check-extensions bench bench-json clean

all:
	dune build

check:
	dune build && dune runtest

test: check

# Fault-injection / differential conformance suite on its own (all its
# randomized tests run under a fixed seed baked into the test file).
check-fault:
	dune exec test/test_fault.exe

# Telemetry suite: the obs unit/differential tests and a traced run
# whose output must parse.
check-obs:
	dune exec test/test_obs.exe
	dune exec bin/secmed.exe -- run --scheme pm --rows 16 --distinct 8 --overlap 4 \
	    --trace _build/trace_ci.json

# Distributed-tracing suite: the Trace_wire codec, the forked loopback
# cluster traced end to end (one merged Chrome trace, per-process phase
# structure differentially equal to the in-process run, source spans
# rooted under the mediator's session span), and the live stats surface
# of a loaded mediator.
check-obs-net:
	dune exec test/test_trace_net.exe -- test -e

# Resilience suite: deterministic session-layer tests (manual clocks,
# seeded jitter — never sleeps), a CLI run that must degrade gracefully
# (exit 4 = degraded-but-served), and the BENCH_resilience.json emitter.
check-resilience:
	dune exec test/test_resilience.exe
	dune exec bin/secmed.exe -- run --scheme pm --rows 16 --distinct 8 --overlap 4 \
	    --fault "byzantine:1:garbage-paillier" --fallback auto --deadline 30; \
	    test $$? -eq 4
	dune exec bench/main.exe -- json-resilience

# Networked-transport suite: frame codec and mux units (incl. the
# Mux.close churn test), the forked loopback cluster differential
# (distributed run bit-identical to the in-process one, byte-accounted)
# and live chaos-proxy conformance.
check-net:
	dune exec test/test_net.exe -- test -e

# Sustained-load serving suite: the deterministic loadgen fleet against
# a forked loopback cluster (64 verified sessions, typed backpressure,
# domain-parallel mux consumers), then three smoke concurrency sweeps in
# a row of the BENCH_serve.json emitter, each failing if its failover
# soak records a violation.  Any failing run fails the target.
check-serve:
	dune exec test/test_serve.exe -- test -e
	for i in 1 2 3; do dune exec bench/main.exe -- json-serve --smoke || exit 1; done

# Crash/restart chaos suite: the pure-schedule and smoke-soak tests,
# then a seeded CLI soak, three times in a row — real SIGKILLs against
# source replicas and a SIGTERM drain-restart of the mediator under a
# verifying fleet — each of which must hold every robustness invariant
# (exit 0); the last leaves its machine-readable transition log as a CI
# artifact.  Any failing run fails the target.
check-soak:
	dune exec test/test_soak.exe -- test -e
	for i in 1 2 3; do dune exec bin/secmed.exe -- soak --fast --workers 2 --sessions 3 \
	    --kills 2 --drains 1 --rate 6 --log SOAK_transitions.jsonl || exit 1; done

# Streaming-delivery suite: chunk codec / reassembly / credit-flow
# units, the sharded-vs-single differential (k=4, all five schemes,
# bit-identical results and transcripts), then three smoke runs in a
# row of the BENCH_stream.json emitter, which fails unless every merge
# window stayed within its bound, the chunk backlog drained to 0, and
# the reused receive buffer allocated less than the naive one.  Any
# failing run fails the target: a flaky check is a failing check.
check-stream:
	dune exec test/test_stream.exe -- test -e
	dune exec test/test_shard.exe -- test -e
	for i in 1 2 3; do dune exec bench/main.exe -- json-stream --smoke || exit 1; done

# Crypto hot-path suite: the bigint/crypto differential tests (CRT vs
# plain decryption, Multi_exp vs separate mod_pows, domain-local cache
# stress) plus the batch-executor determinism suite, then a one-round
# smoke run of the BENCH_modexp.json emitter so it can't rot.
check-crypto-perf:
	dune exec test/test_bigint.exe
	dune exec test/test_crypto.exe
	dune exec test/test_batch.exe
	dune exec bench/main.exe -- json --rounds 1

# Section-8 extension experiments: successive joins (E1), set operations
# (E2, A6), aggregation (E3) and selection (E4).  Each prints a correct
# column and exits 1 when any row reads false; all five take a few
# seconds.
check-extensions:
	dune build bench/main.exe
	for e in chain setops aggregation selection ablation-setops; do \
	    dune exec bench/main.exe -- $$e || exit 1; done

# Full benchmark/reproduction suite (slow).
bench:
	dune exec bench/main.exe -- all

# Machine-readable mod-exp hot-path record (BENCH_modexp.json).
bench-json:
	dune exec bench/main.exe -- json

clean:
	dune clean
