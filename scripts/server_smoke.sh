#!/usr/bin/env sh
# Server smoke: boot the fdrserve daemon, check the OTA corpus through
# the HTTP API (verdicts diffed against the in-process library oracle by
# serveload -smoke), require the assertions of a request to have shared
# explorations (a non-zero lts.cache.hits counter), then SIGTERM it and
# require a clean drain (exit 0). The removed model-store flags must be
# rejected.
# Then the crash leg: boot a durable daemon, submit the corpus as jobs,
# SIGKILL it mid-run, restart over the same data dir and require every
# resumed job to finish with oracle-identical verdicts.
# Referenced from .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18462"

go build -o /tmp/fdrserve ./cmd/fdrserve
go build -o /tmp/serveload ./cmd/serveload

echo "==> removed model-store flags are rejected"
FLAG_STATUS=0
/tmp/fdrserve -cache-states 1 > /tmp/fdrserve-flag.log 2>&1 || FLAG_STATUS=$?
if [ "$FLAG_STATUS" -eq 0 ] || ! grep -q "flag provided but not defined" /tmp/fdrserve-flag.log; then
    echo "fdrserve -cache-states 1 exited $FLAG_STATUS, want a non-zero undefined-flag error" >&2
    cat /tmp/fdrserve-flag.log >&2
    exit 1
fi

/tmp/fdrserve -addr "$ADDR" -drain-timeout 30s > /tmp/fdrserve.log 2>&1 &
SRV_PID=$!
trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT

# Wait for readiness.
i=0
until curl -fsS "http://$ADDR/readyz" > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "fdrserve never became ready" >&2
        cat /tmp/fdrserve.log >&2
        exit 1
    fi
    sleep 0.1
done

echo "==> serveload -smoke (OTA corpus verdicts vs in-process oracle)"
/tmp/serveload -smoke -addr "http://$ADDR"

echo "==> metrics endpoint"
curl -fsS "http://$ADDR/metrics" > /tmp/fdrserve-metrics.txt
grep -q "serve.accepted" /tmp/fdrserve-metrics.txt
# Within-request sharing, end to end: the corpus scripts check one
# SYSTEM under several assertions, so some exploration must have hit.
grep -Eq '^counter +lts\.cache\.hits +[1-9][0-9]*$' /tmp/fdrserve-metrics.txt || {
    echo "no lts.cache.hits after the OTA corpus" >&2
    cat /tmp/fdrserve-metrics.txt >&2
    exit 1
}

echo "==> SIGTERM drain"
kill -TERM "$SRV_PID"
DRAIN_STATUS=0
wait "$SRV_PID" || DRAIN_STATUS=$?
trap - EXIT
if [ "$DRAIN_STATUS" -ne 0 ]; then
    echo "fdrserve exited $DRAIN_STATUS after SIGTERM, want 0" >&2
    cat /tmp/fdrserve.log >&2
    exit 1
fi
grep -q "drained, exiting" /tmp/fdrserve.log

echo "==> serveload chaos soak (fixed seed)"
/tmp/serveload -seed 42 -requests 16

echo "==> SIGKILL / restart / resume (durable jobs, verdicts must not change)"
DATA_DIR="$(mktemp -d /tmp/fdrserve-data.XXXXXX)"
/tmp/fdrserve -addr "$ADDR" -data-dir "$DATA_DIR" -checkpoint-levels 1 \
    > /tmp/fdrserve-crash.log 2>&1 &
SRV_PID=$!
trap 'kill -9 "$SRV_PID" 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT
i=0
until curl -fsS "http://$ADDR/readyz" > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "fdrserve (durable) never became ready" >&2
        cat /tmp/fdrserve-crash.log >&2
        exit 1
    fi
    sleep 0.1
done
/tmp/serveload -submit -addr "http://$ADDR"
# Kill the daemon outright while the jobs run — no drain, no warning.
sleep 0.2
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true

/tmp/fdrserve -addr "$ADDR" -data-dir "$DATA_DIR" -checkpoint-levels 1 \
    >> /tmp/fdrserve-crash.log 2>&1 &
SRV_PID=$!
i=0
until curl -fsS "http://$ADDR/readyz" > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "fdrserve never came back after SIGKILL" >&2
        cat /tmp/fdrserve-crash.log >&2
        exit 1
    fi
    sleep 0.1
done
/tmp/serveload -collect -addr "http://$ADDR"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
    echo "fdrserve exited non-zero after the resume leg" >&2
    cat /tmp/fdrserve-crash.log >&2
    exit 1
}
trap - EXIT
rm -rf "$DATA_DIR"

echo "==> serveload crash schedule (in-process kill/restart/resume)"
/tmp/serveload -crash -seed 42 -kills 4

echo "server smoke OK"
