PYTHON ?= python
export PYTHONPATH := src

.PHONY: help test smoke lint deepcheck bench trace-smoke dashboard-smoke fleet-smoke e2e-smoke doctest docs docs-check

help:       ## list targets with their one-line descriptions
	@awk -F':.*##' '/^[a-z0-9-]+:.*##/ {printf "  %-12s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

test:       ## full test suite
	$(PYTHON) -m pytest -q

smoke:      ## quick CI gate: everything but the full campaign runs
	$(PYTHON) -m pytest -q -m "not slow"

lint:       ## generic checker (ruff/pyflakes/syntax) + deepcheck
	$(PYTHON) tools/lint.py

deepcheck:  ## repo-specific invariant linter (docs/STATIC_ANALYSIS.md)
	$(PYTHON) tools/deepcheck
	$(PYTHON) tools/deepcheck --self-test

doctest:    ## run the docstring examples (units, SPL algebra, error taxonomy)
	$(PYTHON) -m pytest -q --doctest-modules src/repro/units.py src/repro/acoustics/spl.py src/repro/acoustics/piston.py src/repro/errors.py

docs:       ## regenerate docs/CLI.md from the argparse tree
	$(PYTHON) tools/gen_cli_docs.py

docs-check: ## CI gate: fail if docs/CLI.md is stale
	$(PYTHON) tools/gen_cli_docs.py --check

bench:      ## paper-scale benchmarks (writes results/*.txt)
	$(PYTHON) -m pytest -q benchmarks

trace-smoke: ## tiny traced sweeps (both detail levels) + trace schema validation
	$(PYTHON) -m repro.cli figure2 --runtime 0.2 --seed 7 \
		--trace trace.json --metrics-out metrics.prom > /dev/null
	$(PYTHON) -m repro.cli figure2 --runtime 0.2 --seed 7 \
		--trace-detail attempts --trace trace-attempts.json > /dev/null
	$(PYTHON) tools/validate_trace.py trace.json trace-attempts.json

dashboard-smoke: ## tiny attacked YCSB run + series/dashboard validation
	$(PYTHON) -m repro.cli ycsb --warmup 1 --attack 1.5 --recovery 1 \
		--records 150 --slo 'p99<25ms,avail>=99.9' \
		--series-out series.jsonl --dashboard-out dashboard.html > /dev/null
	$(PYTHON) tools/validate_trace.py series.jsonl dashboard.html

fleet-smoke: ## small sharded fleet campaign + series validation
	$(PYTHON) -m repro.cli fleet --racks 2 --towers 5 --duration 12 \
		--rate 40 --workers 2 --series-out fleet-series.jsonl > /dev/null
	$(PYTHON) tools/validate_trace.py fleet-series.jsonl

e2e-smoke:  ## 1 s traced e2ebench runs of both KV workloads: digests, pinned counts, wrapper coverage
	$(PYTHON) e2ebench/run.py --workload kv-read --seconds 1 --trace 1
	$(PYTHON) e2ebench/run.py --workload kv-readwrite --seconds 1 --trace 1
