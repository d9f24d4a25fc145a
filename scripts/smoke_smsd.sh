#!/usr/bin/env sh
# Smoke test for the smsd async job API and its observability surface:
# start the daemon, submit a job and poll it to completion, validate the
# Prometheus exposition on /metrics (format-checked by internal/obs/
# obscheck) and that the job counters moved, then cancel a second (long)
# job while tailing its live SSE event stream, and finally check that
# smsim -trace-out emits a loadable Chrome trace. Run from the
# repository root; needs curl.
#
# Each daemon binds -addr 127.0.0.1:0 and the script reads the
# kernel-assigned port back from the startup log line, so concurrent
# smoke runs (or a developer's own smsd on :8344) never collide.
set -eu

BIN=${BIN:-./smsd-smoke-bin}

say() { echo "smoke: $*"; }
fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

go build -o "$BIN" ./cmd/smsd

FAST_PID=""
SLOW_PID=""
TMP=""
cleanup() {
    [ -n "$FAST_PID" ] && kill "$FAST_PID" 2>/dev/null || true
    [ -n "$SLOW_PID" ] && kill "$SLOW_PID" 2>/dev/null || true
    rm -f "$BIN"
    [ -n "$TMP" ] && rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# json_field FILE KEY → the first "KEY": "value" in the (indented) JSON.
json_field() {
    sed -n "s/^.*\"$2\": \"\([^\"]*\)\".*$/\1/p" "$1" | head -n 1
}

# wait_port LOGFILE → the port from the structured startup line
# msg="smsd listening" addr=127.0.0.1:PORT, polled until the daemon
# writes it. A daemon that dies before binding would hang this loop, so
# the timeout path dumps the log — the failure reason (bad flag, port
# exhaustion, panic) is in there, not here.
wait_port() {
    i=0
    while :; do
        port=$(sed -n 's/.*msg="smsd listening" addr=[^ ]*:\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1)
        [ -n "$port" ] && { echo "$port"; return 0; }
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke: FAIL: daemon never logged its listen address; log follows" >&2
            sed 's/^/smoke:   | /' "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
}

wait_healthy() {
    i=0
    while ! curl -fsS "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke: FAIL: daemon on :$1 never became healthy; log follows" >&2
            sed 's/^/smoke:   | /' "$2" >&2
            exit 1
        fi
        sleep 0.1
    done
}

TMP=$(mktemp -d)

# --- Job to completion, against a fast daemon ------------------------------
"$BIN" -addr 127.0.0.1:0 -cpus 1 -length 120000 >"$TMP/fast.log" 2>&1 &
FAST_PID=$!
PORT_FAST=$(wait_port "$TMP/fast.log")
wait_healthy "$PORT_FAST" "$TMP/fast.log"
say "fast daemon on :$PORT_FAST"

# Baseline scrape: the exposition must be valid before any job ran, and
# the job counters must start at zero.
curl -fsS "http://127.0.0.1:$PORT_FAST/metrics" >"$TMP/metrics0.txt"
go run ./internal/obs/obscheck metrics "$TMP/metrics0.txt" ||
    fail "baseline /metrics is not valid Prometheus exposition"
grep -q '^smsd_jobs_completed_total 0$' "$TMP/metrics0.txt" ||
    fail "jobs_completed not zero before any job"
say "baseline /metrics passes the exposition checker"

curl -fsS -X POST "http://127.0.0.1:$PORT_FAST/v1/runs" \
    -d '{"workload":"sparse","prefetcher":"sms"}' >"$TMP/submit.json"
JOB=$(json_field "$TMP/submit.json" id)
[ -n "$JOB" ] || fail "no job id in submit response: $(cat "$TMP/submit.json")"
say "submitted job $JOB"

i=0
while :; do
    curl -fsS "http://127.0.0.1:$PORT_FAST/v1/jobs/$JOB" >"$TMP/poll.json"
    STATE=$(json_field "$TMP/poll.json" state)
    case "$STATE" in
    done) break ;;
    failed | cancelled) fail "job settled as $STATE: $(cat "$TMP/poll.json")" ;;
    esac
    i=$((i + 1))
    [ "$i" -gt 300 ] && fail "job stuck in state $STATE"
    sleep 0.2
done
grep -q '"workload": "sparse"' "$TMP/poll.json" || fail "done job carries no result"
grep -q '"phases"' "$TMP/poll.json" || fail "done job carries no phase timings"
say "job $JOB completed with a result and phase timings"

# The counters must have moved across the job, and the exposition must
# still parse with the new series (histograms, engine bridges) present.
curl -fsS "http://127.0.0.1:$PORT_FAST/metrics" >"$TMP/metrics1.txt"
go run ./internal/obs/obscheck metrics "$TMP/metrics1.txt" ||
    fail "post-job /metrics is not valid Prometheus exposition"
grep -q '^smsd_jobs_created_total 1$' "$TMP/metrics1.txt" ||
    fail "jobs_created did not increment across the job"
grep -q '^smsd_jobs_completed_total 1$' "$TMP/metrics1.txt" ||
    fail "jobs_completed did not increment across the job"
grep -q '^smsd_simulations_total 1$' "$TMP/metrics1.txt" ||
    fail "simulations_total did not count the run"
grep -q 'smsd_run_duration_seconds_count 1' "$TMP/metrics1.txt" ||
    fail "run duration histogram did not observe the run"
say "job counters incremented and /metrics still parses"

# A region wider than a spatial pattern under SMS is a bad request, and
# the daemon keeps serving after it.
CODE=$(curl -sS -o "$TMP/wide.json" -w '%{http_code}' -X POST "http://127.0.0.1:$PORT_FAST/v1/runs" \
    -d '{"workload":"sparse","prefetcher":"sms","region_size":16384}')
[ "$CODE" = 400 ] || fail "16 kB-region sms run answered $CODE, want 400: $(cat "$TMP/wide.json")"
curl -fsS "http://127.0.0.1:$PORT_FAST/healthz" >/dev/null || fail "daemon down after a wide-region request"
say "16 kB-region sms run refused with 400; daemon still healthy"

# --- Sampled run: the job API's sampling field end to end ------------------
curl -fsS -X POST "http://127.0.0.1:$PORT_FAST/v1/runs" \
    -d '{"workload":"sparse","prefetcher":"sms","sampling":{"WindowRecords":500,"IntervalRecords":4000}}' \
    >"$TMP/submit_s.json"
JOBS=$(json_field "$TMP/submit_s.json" id)
[ -n "$JOBS" ] || fail "no job id in sampled submit: $(cat "$TMP/submit_s.json")"
i=0
while :; do
    curl -fsS "http://127.0.0.1:$PORT_FAST/v1/jobs/$JOBS" >"$TMP/poll_s.json"
    STATE=$(json_field "$TMP/poll_s.json" state)
    case "$STATE" in
    done) break ;;
    failed | cancelled) fail "sampled job settled as $STATE: $(cat "$TMP/poll_s.json")" ;;
    esac
    i=$((i + 1))
    [ "$i" -gt 300 ] && fail "sampled job stuck in state $STATE"
    sleep 0.2
done
grep -q '"Sampling"' "$TMP/poll_s.json" || fail "sampled job result carries no Sampling block"
say "sampled job $JOBS completed with confidence intervals"

# --- Cancellation, against a daemon with a very long trace -----------------
"$BIN" -addr 127.0.0.1:0 -cpus 1 -length 200000000 >"$TMP/slow.log" 2>&1 &
SLOW_PID=$!
PORT_SLOW=$(wait_port "$TMP/slow.log")
wait_healthy "$PORT_SLOW" "$TMP/slow.log"
say "slow daemon on :$PORT_SLOW"

curl -fsS -X POST "http://127.0.0.1:$PORT_SLOW/v1/runs" \
    -d '{"workload":"ocean","prefetcher":"sms"}' >"$TMP/submit2.json"
JOB2=$(json_field "$TMP/submit2.json" id)
[ -n "$JOB2" ] || fail "no job id in second submit"
say "submitted long job $JOB2, tailing its event stream"

# Tail the live SSE stream in the background before cancelling: the
# stream must deliver the initial state frame and then the final
# cancelled state, closing on its own (bounded by --max-time in case it
# wedges).
curl -sN --max-time 30 "http://127.0.0.1:$PORT_SLOW/v1/jobs/$JOB2/events" >"$TMP/events.txt" &
SSE_PID=$!
sleep 0.5
say "cancelling job $JOB2"

curl -fsS -X DELETE "http://127.0.0.1:$PORT_SLOW/v1/jobs/$JOB2" >/dev/null
i=0
while :; do
    curl -fsS "http://127.0.0.1:$PORT_SLOW/v1/jobs/$JOB2" >"$TMP/poll2.json"
    STATE=$(json_field "$TMP/poll2.json" state)
    [ "$STATE" = "cancelled" ] && break
    [ "$STATE" = "done" ] || [ "$STATE" = "failed" ] && fail "long job settled as $STATE instead of cancelled"
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "cancelled job stuck in state $STATE"
    sleep 0.1
done
say "job $JOB2 settled as cancelled"

# The SSE stream must have closed on settlement with the frames intact.
wait "$SSE_PID" 2>/dev/null || true
grep -q '^event: state$' "$TMP/events.txt" || fail "event stream carries no state frame"
grep -q '"state":"cancelled"' "$TMP/events.txt" ||
    fail "event stream never reported the cancelled state"
say "event stream delivered the state frames and closed"

curl -fsS "http://127.0.0.1:$PORT_SLOW/metrics" >"$TMP/metrics.txt"
go run ./internal/obs/obscheck metrics "$TMP/metrics.txt" ||
    fail "slow daemon /metrics is not valid Prometheus exposition"
grep -q '^smsd_jobs_cancelled_total 1$' "$TMP/metrics.txt" ||
    fail "metrics do not count the cancellation"

# --- smsim -trace-out emits a loadable Chrome trace ------------------------
go run ./cmd/smsim -workload sparse -cpus 1 -length 50000 \
    -sample-window 500 -sample-interval 5000 \
    -trace-out "$TMP/trace.json" >/dev/null
go run ./internal/obs/obscheck trace "$TMP/trace.json" \
    gap warm window run trace-generate ||
    fail "smsim -trace-out did not produce a valid Chrome trace with the run phases"
say "smsim -trace-out produced a loadable Chrome trace"

say "PASS"
