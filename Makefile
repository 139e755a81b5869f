GO ?= go

# Tier-1 gate: the whole tree must build, pass vet, every test must pass,
# and the seeded chaos soak must pass System.WaitIdle's idle laws. go test
# ./... runs the structural checks (internal/lint) with the rest. bench/ is
# a module of its own, which ./... never builds, so it is vetted and tested
# by name: a kernel API change that breaks the benchmark fails here.
.PHONY: tier1
tier1: lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) -C bench vet . && $(GO) -C bench test -count=1 .
	$(GO) test -short -run 'Chaos' -count=1 ./internal/workload/
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/hw/
	$(GO) test -run xxx -bench . -benchtime 1x .
# The race pass runs every test of the tree, at its -short size.
	$(GO) test -race -short -count=1 ./...

# Chaos: the full seeded fault-injection soak (deterministic per seed).
.PHONY: chaos
chaos:
	$(GO) test -run 'Chaos' -count=1 -v ./internal/workload/
	$(GO) test -run 'TestFault|TestRestart' -count=1 -v ./internal/kernel/

# Lint: go vet. The structural invariants live in internal/lint, which go test runs.
.PHONY: lint
lint:
	$(GO) vet ./...

# Fuzz: mutate checkpoint images past the seed corpus (which every plain
# go test already runs) — whatever Decode accepts must validate and
# re-encode to the bytes it was given. Not part of tier1.
.PHONY: fuzz
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeRoundTrip -fuzztime 30s ./internal/ckpt/

.PHONY: vet
vet:
	$(GO) vet ./...

# Race-detector pass over the whole tree at full size; slower than tier1's
# -short pass.
.PHONY: race
race:
	$(GO) test -race -count=1 ./...

.PHONY: bench
bench:
	$(GO) test -run xxx -bench . -benchtime 100x .
	$(GO) test -run xxx -bench . -benchtime 300000x ./internal/hw/

.PHONY: tables
tables:
	$(GO) run ./cmd/benchtab -quick
