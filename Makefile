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
# The -race pass selects tests by name. A test that must run under the race
# detector is named …StormRace, …SelfCheck or …Model, or takes a name that
# an alternation below already matches; a new alternation is a last resort.
# internal/lint (TestRacePassSelectsTests) fails on an alternation that
# matches no test of the packages listed, and on a test named by the rule
# that the regex does not select.
	$(GO) test -race -short -run 'FaultStorm|COWBreak|StormRace|WritePage|ChecksumMatches|Bulk|WriteBytesEdges|CopyFrameUnder|Decode|Allocs|Spawn|CreationCharges|RestoreFailure|ShareMaskTable|Carve|Poll|PublishedReadiness|InterestSet|StandingWaiter|Netserver|SelfCheck|SgtopRuns|BenchtabPreforkRuns|Model|PostInterruptsSleep|SemaStaleWake|EnvdiagRuns|KtraceRuns|QuickstartRuns|ParallelRuns|AsyncioRuns|MakeparRuns|NonVMMember|FailedPipe|EagerSyncCharges|FdUpdate|FdFlagSurvives|Space' -count=1 ./internal/percpu/ ./internal/hw/ ./internal/ckpt/ ./internal/vm/ ./internal/workload/ ./internal/uspin/ ./internal/ipc/ ./internal/core/ ./internal/kernel/ ./internal/fs/ ./internal/sched/ ./internal/klock/ ./internal/proc/ ./examples/netserver/ ./examples/asyncio/ ./examples/makepar/ ./examples/parallel/ ./examples/quickstart/ ./cmd/sgtop/ ./cmd/benchtab/ ./cmd/envdiag/ ./cmd/ktrace/

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

# Race-detector pass over the de-serialized MP substrates and everything
# that drives them; slower than tier1 but catches sharding bugs.
.PHONY: race
race:
	$(GO) test -race ./internal/percpu/... ./internal/hw/... ./internal/ckpt/... ./internal/vm/... ./internal/klock/... ./internal/core/... ./internal/sched/... ./internal/trace/... ./internal/workload/... ./internal/kernel/... ./internal/uspin/... ./internal/ipc/... ./internal/fs/...

.PHONY: bench
bench:
	$(GO) test -run xxx -bench . -benchtime 100x .
	$(GO) test -run xxx -bench . -benchtime 300000x ./internal/hw/

.PHONY: tables
tables:
	$(GO) run ./cmd/benchtab -quick
