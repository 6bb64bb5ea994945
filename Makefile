# Developer entry points; CI (.github/workflows/ci.yml) calls these too.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test lint bench bench-smoke bench-selftest bench-ab fuzz fuzz-smoke \
	check-goldens reproduce qos-smoke qos-campaign serve-smoke

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m ruff check src tests benchmarks

# The two wall-clock gates: timing-core sim-rate and telemetry overhead.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m bench -s \
		benchmarks/test_timing_simrate.py \
		benchmarks/test_telemetry_overhead.py

# The end-to-end benchmark's own self-test, on tiny inputs: every
# workload's pinned digests and work counters in perfbench/expected.json
# must match, and a tampered digest must turn into failed operations.
bench-selftest:
	$(PYTHON) perfbench/selftest.py

# Same-machine A/B of the end-to-end benchmark: alternates PAIRS runs of
# WORKLOAD between a git-archive extract of BASE and the working tree,
# then prints each metric's medians, quartiles and the change's win count.
# By hand only; not a CI step.
WORKLOAD ?= frame-4k
PAIRS ?= 10
BASE ?= HEAD
bench-ab:
	$(PYTHON) scripts/bench_ab.py --workload $(WORKLOAD) --pairs $(PAIRS) \
		--base $(BASE)

# Differential fuzzing: on random configs/workloads/policies the
# invariant-checked run must hold every invariant and match the plain run
# bit-for-bit. `fuzz` is the nightly CI leg (failures land in fuzz-corpus/
# as minimal shrunk repros); `fuzz-smoke` rides the tier-1 CI job.
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate fuzz \
		--seeds 200 --corpus fuzz-corpus
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate fuzz \
		--seeds 20 --quiet

check-goldens:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro validate check-goldens

# The paper's claims: every RUNNERS row of repro.harness.reproduce runs its
# experiment and judges its shape claims; exits nonzero on any CHECK.
# RESULTS.md lands in a fresh temp dir (its path is printed last).
reproduce:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro reproduce --out "$$(mktemp -d)"

# Open-loop QoS: a short adaptive bursty run (prints the SLO report and
# must rerun bit-identically — the same contract the QoS goldens pin);
# qos-campaign scores adaptive vs every static policy on all scenarios
# and fails unless adaptive wins an SLO no static policy meets.
qos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro qos run \
		--scenario bursty --clients 3 --seed 7 --requests 4 \
		--out /tmp/qos-smoke
qos-campaign:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro qos campaign \
		--out benchmarks/QOS_campaign.json --require-win

# Simulation-as-a-service smoke: ingest the checked-in benchmark history
# into a scratch repository, start the dashboard on an ephemeral port,
# assert /runs and /compare serve real payloads, then tear down.
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/serve_smoke.py

# The full benchmark suite, the paper's claims (test_claims.py) included.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q
