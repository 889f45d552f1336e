#!/usr/bin/env sh
# Tier-1 verification: gofmt + vet + the full test suite under the race
# detector. CI-style, make-free; referenced from ROADMAP.md.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt would reformat:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# Custom analyzer passes (internal/analyzers): mustrecover, seededrand,
# unrecoveredgo, closecheck and diagreg (the caplint CAPLnnnn code
# registry must stay unique, cataloged and emitted). The environment is
# offline, so this is a go/parser driver instead of `go vet -vettool`.
echo "==> repolint ./..."
go run ./cmd/repolint ./...

echo "==> caplcheck (CAPL corpus must be lint-clean)"
go run ./cmd/caplcheck -severity warning -dbc testdata/ota.dbc \
    testdata/ecu.can testdata/flawed_ecu.can testdata/vmg.can testdata/vmg_timer.can

echo "==> caplcheck (seeded defects must trip the gate)"
if go run ./cmd/caplcheck -dbc testdata/ota.dbc examples/caplcheck/flawed_gateway.can >/dev/null; then
    echo "caplcheck failed to reject examples/caplcheck/flawed_gateway.can" >&2
    exit 1
fi
if go run ./cmd/caplcheck -dbc testdata/ota.dbc examples/caplcheck/ill_typed.can >/dev/null; then
    echo "caplcheck failed to reject examples/caplcheck/ill_typed.can" >&2
    exit 1
fi

echo "==> learncheck (fixed seed, byte-identical vs committed baseline)"
LEARNCHECK_OUT=$(mktemp)
go run ./cmd/learncheck -seed 1 -format json > "$LEARNCHECK_OUT"
cmp "$LEARNCHECK_OUT" testdata/learncheck_baseline.json
rm -f "$LEARNCHECK_OUT"

# Under a fault profile the teacher simulates every word on its own
# (its faults are seeded from the whole word), so the drop campaign
# must match its baseline at any worker count.
echo "==> learncheck -profile drop (byte-identical vs committed baseline at -workers 1 and 4)"
for workers in 1 4; do
    LEARNCHECK_OUT=$(mktemp)
    go run ./cmd/learncheck -seed 1 -profile drop -format json -workers "$workers" > "$LEARNCHECK_OUT"
    cmp "$LEARNCHECK_OUT" testdata/learncheck_drop_baseline.json
    rm -f "$LEARNCHECK_OUT"
done

# The extractor's output is held byte for byte: the paper report (up to
# the timed Scalability table) and the generated-program soak.
echo "==> otacheck -sizes 2,4 (byte-identical vs committed baseline)"
OTACHECK_OUT=$(mktemp)
go run ./cmd/otacheck -sizes 2,4 | sed '/^Scalability/,$d' > "$OTACHECK_OUT"
cmp "$OTACHECK_OUT" testdata/otacheck_baseline.txt
rm -f "$OTACHECK_OUT"

echo "==> caplgen -seed 1 -n 200 (byte-identical vs committed baseline)"
CAPLGEN_OUT=$(mktemp)
go run ./cmd/caplgen -seed 1 -n 200 -o "$CAPLGEN_OUT" > /dev/null
cmp "$CAPLGEN_OUT" testdata/caplgen_baseline.json
rm -f "$CAPLGEN_OUT"

# The simulation path is held byte for byte too: the conformance soak
# (bounded runs, replay tap, projection) and the fault campaign.
echo "==> soak -seed 42 -n 4 -horizon-ms 12 (byte-identical vs committed baseline)"
SOAK_OUT=$(mktemp)
go run ./cmd/soak -seed 42 -n 4 -horizon-ms 12 -format json > "$SOAK_OUT"
cmp "$SOAK_OUT" testdata/soak_baseline.json
rm -f "$SOAK_OUT"

echo "==> faultcheck -seed 42 -reps 1 -horizon-ms 500 (byte-identical vs committed baseline)"
FAULTCHECK_OUT=$(mktemp)
go run ./cmd/faultcheck -seed 42 -reps 1 -horizon-ms 500 -format json > "$FAULTCHECK_OUT"
cmp "$FAULTCHECK_OUT" testdata/faultcheck_baseline.json
rm -f "$FAULTCHECK_OUT"

echo "==> go test -race ./..."
go test -race ./...

# benchmark/ is a module of its own, so ./... above never compiles it.
# Vet it and build its tests here (running them replays every workload,
# ~40 s; CI does that).
echo "==> benchmark module (vet + test build)"
(cd benchmark && go vet ./... && go test -count=1 -run '^$' ./...)

echo "OK"
