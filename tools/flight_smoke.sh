#!/usr/bin/env bash
# End-to-end smoke check for the black-box flight recorder: start
# tempspec_serve with the crash-dump handler enabled, run a few statements
# over POST /query, scrape /debug/events and /debug/traces off the live
# process, then kill it with SIGABRT and validate the JSONL dump the
# fatal-signal handler wrote with tools/check_flight_json.py. This proves the
# whole chain — engine instrumentation -> ring -> signal handler -> parseable
# black box — on a real dying process, which no unit test can.
#
# Usage: tools/flight_smoke.sh [build_dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/tools/tempspec_serve"
CHECKER="$(dirname "$0")/check_flight_json.py"

if [ ! -x "$SERVE" ]; then
  echo "no tempspec_serve binary at $SERVE (build with the default CMake config first)" >&2
  exit 2
fi

OUT_DIR="$(mktemp -d)"
PORT_FILE="$OUT_DIR/port"
DUMP_FILE="$OUT_DIR/flight.jsonl"
cleanup() {
  [ -n "${SERVE_PID:-}" ] && kill -9 "$SERVE_PID" 2>/dev/null
  rm -rf "$OUT_DIR"
}
trap cleanup EXIT

TEMPSPEC_FLIGHT_DUMP="$DUMP_FILE" \
    "$SERVE" --port=0 --portfile="$PORT_FILE" --data-dir="$OUT_DIR/data" \
    > "$OUT_DIR/serve.out" 2>&1 &
SERVE_PID=$!

port=""
for _ in $(seq 1 100); do
  if [ -s "$PORT_FILE" ]; then
    port="$(cat "$PORT_FILE")"
    break
  fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "tempspec_serve exited before binding:" >&2
    cat "$OUT_DIR/serve.out" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "tempspec_serve never wrote its port file" >&2
  exit 1
fi

# Durable statements leave WAL and server events in the ring.
for statement in \
    "CREATE EVENT RELATION doomed (sensor INT64 KEY, kelvin DOUBLE) GRANULARITY 1s" \
    "INSERT INTO doomed OBJECT 1 VALUES (1, 550.0) VALID AT '1992-02-05 00:00:00'" \
    "INSERT INTO doomed OBJECT 1 VALUES (1, 551.0) VALID AT '1992-02-05 00:00:10'" \
    "TIMESLICE doomed AT '1992-02-05 00:00:10'"; do
  if ! curl -sf -X POST --data-binary "$statement" \
      "http://127.0.0.1:$port/query" > /dev/null; then
    echo "POST /query failed: $statement" >&2
    exit 1
  fi
done

# A flight-recorder-OFF tree has nothing to dump; report and pass so the
# script is safe to run in any build configuration.
flight_on="$(curl -sf "http://127.0.0.1:$port/varz" |
  python3 -c "import json,sys; print(json.load(sys.stdin)['build']['flightrecorder_enabled'])")"
if [ "$flight_on" != "1" ]; then
  echo "flight smoke: SKIP (flightrecorder_enabled=$flight_on in this build)"
  exit 0
fi

failures=0

# The live-process surfaces: both /debug endpoints must serve line-delimited
# JSON, and the statements must have left events in the ring.
if ! curl -sf "http://127.0.0.1:$port/debug/events" -o "$OUT_DIR/events.jsonl"; then
  echo "/debug/events: FAIL: curl error"
  failures=$((failures + 1))
else
  python3 "$CHECKER" --min-events 1 "$OUT_DIR/events.jsonl" \
    || failures=$((failures + 1))
fi

if ! curl -sf "http://127.0.0.1:$port/debug/traces" -o "$OUT_DIR/traces.jsonl"; then
  echo "/debug/traces: FAIL: curl error"
  failures=$((failures + 1))
elif ! python3 - "$OUT_DIR/traces.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    for lineno, line in enumerate(f, start=1):
        t = json.loads(line)
        assert "trace_id" in t and "trace" in t, f"line {lineno}: bad shape"
print("traces: OK")
EOF
then
  echo "/debug/traces: FAIL: invalid JSONL"
  failures=$((failures + 1))
fi

# Kill the live instance and demand a parseable black box.
kill -ABRT "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""
if [ ! -s "$DUMP_FILE" ]; then
  echo "crash dump: FAIL: handler wrote no dump at $DUMP_FILE"
  failures=$((failures + 1))
else
  python3 "$CHECKER" --min-events 1 "$DUMP_FILE" || failures=$((failures + 1))
fi

if [ $failures -ne 0 ]; then
  echo "flight smoke: $failures failure(s)"
  exit 1
fi
echo "flight smoke: live /debug endpoints and the SIGABRT dump all validate"
