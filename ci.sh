#!/usr/bin/env bash
# Full local CI gate: formatting, lints (deny warnings), every test once
# (the root package's tier-1 tests, then the rest of the workspace), then
# the smokes that drive the real binaries as processes. `set -e` stops at
# the first failure, and the failing test or smoke names what broke. The
# build is fully offline (see README "Troubleshooting offline builds");
# --offline makes that explicit.
set -euo pipefail
cd "$(dirname "$0")"

# The concurrency tests exercise real thread interleavings; an inherited
# RUST_TEST_THREADS=1 must not serialize them.
unset RUST_TEST_THREADS

# Each `==` step's wall seconds go to the log when the next step starts
# (and, for the last, before the closing line).
step_name=""
step_start=$SECONDS
step_done() {
  [ -z "$step_name" ] || echo "-- $((SECONDS - step_start)) s: $step_name"
}
step() {
  step_done
  step_name=$1
  step_start=$SECONDS
  echo "== $1"
}

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo doc (deny warnings: every intra-doc link resolves to a public item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "cargo test (root package, tier-1)"
cargo test -q --offline

step "cargo test (workspace; the root package ran above)"
cargo test -q --workspace --offline --exclude uindex-oodb

step "results are what the code prints (release experiment binaries at their defaults)"
# The binaries are deterministic, so each published table in results/ must
# be byte for byte what its binary prints now; the environment knobs that
# shrink or repeat a run are cleared.
cargo build -q --release --offline -p bench --bins
for bin in table1 compare nixcmp fig5 fig6 fig7 fig8; do
  env -u REPS -u OBJECTS -u VEHICLES "target/release/$bin" | cmp - "results/$bin.txt" \
    || { echo "results: target/release/$bin does not print results/$bin.txt"; exit 1; }
done

step "explain smoke (CLI EXPLAIN ANALYZE end to end)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cat > "$tmpdir/smoke.uschema" <<'EOF'
class Employee { Age: int }
class Company { Name: str, President: ref Employee }
class Vehicle { Color: str, MadeBy: ref Company }
class Automobile < Vehicle {}
index color = hierarchy Vehicle Color
index age = path Vehicle.MadeBy.President Age
EOF
cat > "$tmpdir/smoke.udata" <<'EOF'
e1 = Employee Age=50
c1 = Company Name='Fiat' President=@e1
v1 = Vehicle Color='Red' MadeBy=@c1
v2 = Automobile Color='Red' MadeBy=@c1
v3 = Automobile Color='Blue' MadeBy=@c1
EOF
cargo run -q --release --offline -p uindex-cli -- \
  new "$tmpdir/db" "$tmpdir/smoke.uschema" "$tmpdir/smoke.udata"
# The definitions as a fresh process reads them back from disk: every
# section of `info` but the B-tree line (a bulk-loaded tree is shaped
# differently), compared again after `repair` below.
definitions() {
  cargo run -q --release --offline -p uindex-cli -- info "$tmpdir/db" | grep -v '^B-tree:'
}
info_new=$(definitions)
echo "$info_new" | grep -q '^classes:' && echo "$info_new" | grep -q '^indexes:' \
  || { echo "info smoke: no classes or indexes section: $info_new"; exit 1; }
explain_json=$(cargo run -q --release --offline -p uindex-cli -- \
  explain "$tmpdir/db" "explain analyze color: Color = 'Red'" --json)
echo "$explain_json" | grep -q '"plan"' || { echo "explain smoke: no plan in JSON"; exit 1; }
echo "$explain_json" | grep -q '"trace"' || { echo "explain smoke: no trace in JSON"; exit 1; }
echo "$explain_json" | grep -q '"index": "color"' || { echo "explain smoke: empty plan"; exit 1; }
explain_text=$(cargo run -q --release --offline -p uindex-cli -- \
  explain "$tmpdir/db" "color: Color = 'Red'")
echo "$explain_text" | grep -q '^Execution' || { echo "explain smoke: no Execution section"; exit 1; }

step "one distinct (forward and parallel agree; explain counts the rows query prints)"
# Every vehicle is made by c1, whose president is e1: three entries for
# Age = 50, and one row once distinct through Company.
# `query` prints its rows on stdout and a summary line on stderr.
rows() {
  cargo run -q --release --offline -p uindex-cli -- query "$tmpdir/db" "$1" 2> /dev/null
}
forward_rows=$(rows "age: Age = 50 distinct Company forward")
parallel_rows=$(rows "age: Age = 50 distinct Company")
[ -n "$parallel_rows" ] && [ "$(echo "$parallel_rows" | wc -l)" -eq 1 ] \
  || { echo "distinct smoke: parallel printed not one row: $parallel_rows"; exit 1; }
[ "$forward_rows" = "$parallel_rows" ] \
  || { echo "distinct smoke: forward printed $forward_rows, parallel $parallel_rows"; exit 1; }
for stmt in "age: Age = 50" "age: Age = 50 distinct Company forward" "color: Color = 'Red'"; do
  printed=$(rows "$stmt" | wc -l)
  counted=$(cargo run -q --release --offline -p uindex-cli -- explain "$tmpdir/db" "$stmt" --json \
    | sed -n 's/.*"hits": \([0-9][0-9]*\).*/\1/p')
  [ "$counted" = "$printed" ] \
    || { echo "distinct smoke: explain counts $counted hits for '$stmt', query prints $printed"; exit 1; }
done

step "integrity check smoke (CLI check/repair on the smoke db)"
check_out=$(cargo run -q --release --offline -p uindex-cli -- check "$tmpdir/db")
echo "$check_out" | grep -q 'status:  clean' || { echo "check smoke: db not clean"; exit 1; }
repair_out=$(cargo run -q --release --offline -p uindex-cli -- repair "$tmpdir/db")
echo "$repair_out" | grep -q 'rebuilt index' || { echo "repair smoke: no rebuild"; exit 1; }
[ "$(definitions)" = "$info_new" ] \
  || { echo "repair smoke: definitions differ after repair: $(definitions)"; exit 1; }
cargo run -q --release --offline -p uindex-cli -- check "$tmpdir/db" > /dev/null \
  || { echo "repair smoke: post-repair check failed"; exit 1; }

step "crash smoke (SIGKILL a writer mid-commit, reopen, check)"
# Run the binary directly (not via cargo) so the SIGKILL hits the writer
# itself; kill it as soon as commits are flowing, i.e. mid-commit-stream.
churn_bin=target/release/uindex-cli
"$churn_bin" churn "$tmpdir/db" Vehicle Color 100000 > "$tmpdir/churn.log" 2>&1 &
churn_pid=$!
for _ in $(seq 1 200); do
  grep -q "commit 5" "$tmpdir/churn.log" 2>/dev/null && break
  sleep 0.05
done
kill -9 "$churn_pid" 2>/dev/null || true
wait "$churn_pid" 2>/dev/null || true
check_out=$(cargo run -q --release --offline -p uindex-cli -- check "$tmpdir/db")
echo "$check_out" | grep -q 'status:  clean' \
  || { echo "crash smoke: post-SIGKILL check failed"; exit 1; }

step "refusals (a directory that is not a database; the retired tier flag)"
mkdir "$tmpdir/nodb"
for nodb in "$tmpdir/nodb" "$tmpdir/missing"; do
  if nodb_err=$("$churn_bin" query "$nodb" "color: Color = 'Red'" 2>&1); then
    echo "refusals: query on $nodb succeeded"; exit 1
  fi
  echo "$nodb_err" | grep -q "$nodb is not a database directory: no pages.db" \
    || { echo "refusals: wrong message for $nodb: $nodb_err"; exit 1; }
done
retired_flag=--disk
if flag_err=$("$churn_bin" new "$tmpdir/flagdb" "$tmpdir/smoke.uschema" "$tmpdir/smoke.udata" \
    "$retired_flag" 2>&1); then
  echo "refusals: the retired flag was accepted"; exit 1
fi
echo "$flag_err" | grep -q 'unknown argument "--disk"' \
  || { echo "refusals: wrong message for the retired flag: $flag_err"; exit 1; }
[ ! -e "$tmpdir/flagdb" ] || { echo "refusals: the refused new left a directory"; exit 1; }

step "serve smoke (wire protocol server + oracle-checked load generator)"
cargo run -q --release --offline -p bench --bin loadgen -- --save-db "$tmpdir/servedb"
serve_bin=target/release/uindex-cli
"$serve_bin" serve "$tmpdir/servedb" --port 0 --shutdown-file "$tmpdir/serve.stop" \
  > "$tmpdir/serve.log" 2> "$tmpdir/serve.err" &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q "listening on " "$tmpdir/serve.log" 2>/dev/null && break
  sleep 0.1
done
serve_addr=$(sed -n 's/^listening on //p' "$tmpdir/serve.log")
[ -n "$serve_addr" ] || { echo "serve smoke: server did not start"; kill "$serve_pid" 2>/dev/null; exit 1; }
# Drive the load in the background and introspect the live server while
# it runs: `top --once --json` must answer with a parseable stats doc
# showing real traffic (windowed qps > 0). The 60 s window keeps recent
# queries visible even if the smoke-sized run quiesces between polls.
cargo run -q --release --offline -p bench --bin loadgen -- \
  --addr "$serve_addr" > "$tmpdir/loadgen.log" 2>&1 &
loadgen_pid=$!
top_ok=""
for _ in $(seq 1 100); do
  top_json=$("$serve_bin" top "$serve_addr" --window 60 --once --json 2>/dev/null) || { sleep 0.1; continue; }
  qps=$(echo "$top_json" | sed -n 's/.*"qps": \([0-9.][0-9.]*\).*/\1/p' | head -n 1)
  if [ -n "$qps" ] && awk "BEGIN{exit !($qps > 0)}"; then top_ok=1; break; fi
  sleep 0.1
done
[ -n "$top_ok" ] || { echo "serve smoke: top never saw qps > 0"; kill "$serve_pid" "$loadgen_pid" 2>/dev/null; exit 1; }
wait "$loadgen_pid" \
  || { echo "serve smoke: loadgen failed"; cat "$tmpdir/loadgen.log"; kill "$serve_pid" 2>/dev/null; exit 1; }
# The slow-query log (threshold 0 by default: every query competes) must
# have entries, and each dump line must come with its full Trace.
slow_out=$("$serve_bin" slow "$serve_addr")
echo "$slow_out" | grep -q "slow-query log: [1-9]" \
  || { echo "serve smoke: slow-query log empty"; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "$slow_out" | grep -q '"scan_stats"' \
  || { echo "serve smoke: slow dump has no trace"; kill "$serve_pid" 2>/dev/null; exit 1; }
touch "$tmpdir/serve.stop"
wait "$serve_pid" || { echo "serve smoke: server exited non-zero"; exit 1; }
grep -q "^served " "$tmpdir/serve.log" || { echo "serve smoke: no shutdown summary"; exit 1; }

step "SIGTERM drain smoke (signal -> drain -> shutdown summary)"
"$serve_bin" serve "$tmpdir/servedb" --port 0 \
  > "$tmpdir/drain.log" 2> "$tmpdir/drain.err" &
drain_pid=$!
for _ in $(seq 1 100); do
  grep -q "listening on " "$tmpdir/drain.log" 2>/dev/null && break
  sleep 0.1
done
kill -TERM "$drain_pid"
wait "$drain_pid" || { echo "drain smoke: server exited non-zero"; cat "$tmpdir/drain.err"; exit 1; }
grep -q "signal received; draining" "$tmpdir/drain.err" \
  || { echo "drain smoke: no drain log line"; cat "$tmpdir/drain.err"; exit 1; }
grep -q "^served " "$tmpdir/drain.log" \
  || { echo "drain smoke: no shutdown summary"; cat "$tmpdir/drain.log"; exit 1; }

step "chaos drill (SIGKILL a real serve process mid-load, restart, repoint)"
drill_out=$(timeout 300 cargo run -q --release --offline -p bench --bin loadgen -- \
  --chaos-drill --cli-bin "$serve_bin")
echo "$drill_out" | grep -q "after restart" \
  || { echo "chaos drill: no restart ledger"; echo "$drill_out"; exit 1; }

step "benchmark smoke (benchmark/ is its own workspace: keep its frozen product surface compiling and correct)"
bash benchmark/run.sh --smoke > /dev/null

step_done
echo "CI green."
