GO ?= go

# Tier-1 gate: the whole tree must build, pass lint, every test must pass,
# and the seeded chaos soak must hold the conservation invariants.
.PHONY: tier1
tier1: lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -short -run 'Chaos' -count=1 ./internal/workload/
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/hw/
	$(GO) test -run xxx -bench . -benchtime 1x .
	$(GO) test -race -short -run 'FaultStorm|COWBreak|StormRace|WritePage|ChecksumMatches|Bulk|WriteBytesEdges|CopyFrameUnder|Decode|Allocs|Spawn|CreationCharges|RestoreFailure|ShareMaskTable|Carve|Poll|PublishedReadiness|InterestSet|StandingWaiter|SelectSame|Netserver|SelfCheck|SgtopRuns|BenchtabPreforkRuns|SleepProtocolModel|PostInterruptsSleep|SemaStaleWake|EnvdiagRuns|KtraceRuns|SgdumpRuns|VshRuns|QuickstartRuns|ParallelRuns|AsyncioRuns|MakeparRuns|NonVMMember|FailedPipe|EagerSyncCharges|FdUpdate|FdFlagSurvives|Space' -count=1 ./internal/percpu/ ./internal/hw/ ./internal/ckpt/ ./internal/vm/ ./internal/workload/ ./internal/uspin/ ./internal/ipc/ ./internal/core/ ./internal/kernel/ ./internal/fs/ ./internal/sched/ ./internal/klock/ ./internal/proc/ ./examples/netserver/ ./examples/asyncio/ ./examples/makepar/ ./examples/parallel/ ./examples/quickstart/ ./cmd/sgtop/ ./cmd/benchtab/ ./cmd/envdiag/ ./cmd/ktrace/ ./cmd/sgdump/ ./cmd/vsh/

# Chaos: the full seeded fault-injection soak (deterministic per seed).
.PHONY: chaos
chaos:
	$(GO) test -run 'Chaos' -count=1 -v ./internal/workload/
	$(GO) test -run 'TestFault|TestRestart' -count=1 -v ./internal/kernel/

# Lint: vet, plus structural invariants the compiler cannot hold — the
# resident-fault fast path stays lock-free, exhaustion surfaces as an
# errno, never a kernel panic (panic is reserved for the exit/exec
# control-flow unwinds), user code spins only through uspin, and every
# syscall number has a descriptor-table entry.
.PHONY: lint
lint: lint-pregion lint-lazydup lint-ckpt
	$(GO) vet ./...
	@if grep -nE '\.Lock\(\)|\.RLock\(\)|\.Unlock\(\)|\bsync\.' internal/vm/fillfast.go; then \
		echo "lint: fillfast.go is the lock-free fault fast path — no mutex or sync primitive may appear there (slow cases belong in region.go)" >&2; \
		exit 1; \
	fi
	@if grep -nE 'panic\(' internal/kernel/syscalls_*.go | grep -vE 'panic\(process(Exit|Exec)\{'; then \
		echo "lint: syscalls_*.go must return *SysError on exhaustion, not panic (only processExit/processExec unwinds may panic)" >&2; \
		exit 1; \
	fi
	@if grep -rnE '\.SpinWait32\(|\.SpinWaitBounded\(' --include='*.go' . | grep -vE '^\./(internal/uspin/|internal/kernel/)'; then \
		echo "lint: raw SpinWait32/SpinWaitBounded outside internal/uspin and internal/kernel — user code must spin through the uspin primitives (interruptible, spin-then-block)" >&2; \
		exit 1; \
	fi
	@for s in $$(grep -oE '^	Sys[A-Z][A-Za-z0-9]*' internal/kernel/systab.go); do \
		if ! grep -q "sysDesc{$$s," internal/kernel/systab.go; then \
			echo "lint: $$s has no sysDesc descriptor in systab.go — every syscall number must have a table entry (name, class, charge, flags) or the gateway cannot dispatch or account it" >&2; \
			exit 1; \
		fi; \
	done

# lint-pregion: a pregion list is an ordered interval index (sorted by
# base, binary-searched) that only vm.Space holds — the field is unexported,
# so the compiler keeps kernel-side code from walking or editing one. What
# is left to check is inside internal/vm: the child image of a Dup is built
# through MapAt (ordered insert, overlap check), never appended to.
.PHONY: lint-pregion
lint-pregion:
	@if awk '/^func \(img \*Space\) dupFrom/,/^}/' internal/vm/space.go | grep -nE '\bappend\('; then \
		echo "lint: bare append in the dupFrom body — the child image index is rebuilt through MapAt so it stays ordered" >&2; \
		exit 1; \
	fi

# lint-lazydup: the O(1) creation protocol (DESIGN.md §16) keeps its
# moving part in a fixed place. The deferred duplication walk lives in
# internal/vm — kernel code clones whole images through Space.Dup, never
# region-by-region with DupLazy. (That the
# lazy-creation and checkpoint counters stay in the Stats snapshot is held
# by the compiler: cmd/sgtop prints every one.)
.PHONY: lint-lazydup
lint-lazydup:
	@if grep -rnE '\.DupLazy\(' --include='*.go' internal/ cmd/ examples/ *.go 2>/dev/null | grep -v '^internal/vm/'; then \
		echo "lint: DupLazy outside internal/vm — kernel code duplicates images through vm.Space.Dup" >&2; \
		exit 1; \
	fi

# lint-ckpt: a checkpoint image is content-level state (DESIGN.md §17).
# internal/ckpt stays a leaf package — no repro/ imports, so it can never
# see a PTE word, a frame number, or kernel state, and image determinism
# cannot come to depend on frame placement. (That the kernel's
# checkpoint code serializes memory only through the vm page API is held
# by the compiler: the PTE slots and pte* helpers are unexported in vm.)
.PHONY: lint-ckpt
lint-ckpt:
	@if grep -nE '"repro(/|")' internal/ckpt/*.go; then \
		echo "lint: internal/ckpt must stay a leaf serialization layer — no repro/ imports (the kernel hands it plain bytes through the vm page-read API)" >&2; \
		exit 1; \
	fi

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
