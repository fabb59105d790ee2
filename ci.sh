#!/usr/bin/env bash
# Full local CI gate: formatting, lints (deny warnings), every test in the
# workspace, then the named invariants and process-level smokes one by one
# so a failure says which broke. The build is fully offline (see README
# "Troubleshooting offline builds"); --offline makes that explicit.
set -euo pipefail
cd "$(dirname "$0")"

# The concurrency tests exercise real thread interleavings; an inherited
# RUST_TEST_THREADS=1 must not serialize them.
unset RUST_TEST_THREADS

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (root package, tier-1)"
cargo test -q --offline

echo "== cargo test (workspace)"
cargo test -q --workspace --offline

echo "== one measurement layer (the retired bench files, their format doc and the shim stay gone)"
if grep -rnI --exclude-dir=benchmark --exclude-dir=target --exclude-dir=.bench_build --exclude-dir=.git \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md \
    -e 'BENCH_[a-z]*\.json' -e 'bench-forma[t]' -e 'criterio[n]' .; then
  echo "retired measurement layer referenced again (see above)"; exit 1
fi

echo "== one way to keep a database in files (the snapshot tier, its decoder and its CLI flag stay gone)"
if grep -rnI --exclude-dir=benchmark --exclude-dir=target --exclude-dir=.bench_build --exclude-dir=.git \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md \
    -e 'objects\.bi[n]' -e 'specs\.bi[n]' -e 'Database::sav[e]' -e 'ObjectStore::from_byte[s]' \
    -e 'new .*--dis[k]' .; then
  echo "retired snapshot tier referenced again (see above)"; exit 1
fi

echo "== one count per read-path event (the pool's and the cursor's shadow stats structs stay gone)"
if grep -rnI \
    -e 'PoolStat[s]' -e 'SeekStat[s]' -e 'seek_stat[s]' -e 'reset_stat[s]' \
    crates src tests examples docs DESIGN.md README.md ci.sh; then
  echo "retired per-query stats struct referenced again (see above)"; exit 1
fi

echo "== one count per serve event (the server's, the gate's and the plan cache's shadow tallies and the per-query fold stay gone)"
if grep -rnI \
    -e 'ServeStat[s]' -e 'LiveStat[s]' -e 'StatCell[s]' -e 'fold_telemetr[y]' -e 'telemetry::rese[t]' -e 'telemetry::absor[b]' \
    crates src tests examples docs DESIGN.md README.md ci.sh; then
  echo "retired serve tally referenced again (see above)"; exit 1
fi

echo "== every public surface earns a caller (the advisor, the anchor walk, the sorted-loop batch delete and the quarantine-flag accessor stay gone; no fault layer in the in-memory product stack)"
if grep -rnI \
    -e 'uindex::adviso[r]' -e 'WorkloadQuer[y]' -e 'anchors_affecte[d]' -e 'delete_batc[h]' -e 'quarantine_fla[g]' \
    crates src tests examples docs DESIGN.md README.md ci.sh; then
  echo "deleted public item referenced again (see above)"; exit 1
fi
if grep -rnI -e 'FaultStore<MemStor[e]>' crates/uindex/src; then
  echo "the in-memory product stack carries a fault layer again (see above)"; exit 1
fi

echo "== one read path, no test-only machinery (the reader's twin evaluators and parser, the parallel executor and the background checkpointer stay gone)"
if grep -rnI \
    -e 'parallel_quer[y]' -e 'eval_wit[h]' -e 'all_entries_wit[h]' -e 'parse_with_spec[s]' \
    -e 'query_guarded_a[t]' -e 'enable_background_checkpoint[s]' -e 'checkpoint_if_quiescen[t]' \
    crates src tests examples docs DESIGN.md README.md ci.sh; then
  echo "deleted read-path twin or test-only mechanism referenced again (see above)"; exit 1
fi

echo "== registries any thread can read (a group sums live and departed members exactly; no reading goes down under a running writer)"
cargo test -q --offline -p telemetry group_

echo "== scan-path invariants (Parallel / Forward: same hits, registry == ScanStats, matches - carried == (key, set) groups)"
cargo test -q --offline -p bench --test scan_invariants parallel_and_forward_agree_on_hits_counters_and_carry

echo "== node codec (hostile-bytes corpus; arena decoder == reference decoder, encode(decode(page)) == page; leaf walk == decode, seek == binary search; the in-place leaf editor opens exactly the pages the encoder writes and edits them byte for byte as decode -> edit -> encode does)"
cargo test -q --offline -p btree --test decode_fuzz
cargo test -q --offline -p btree --lib differential
cargo test -q --offline -p btree --test leaf_edit

echo "== no read decodes a leaf (after read-only scans and lookups only interior frames hold a decode)"
cargo test -q --offline -p btree --test node_cache

echo "== WAL replay (hostile-bytes corpus: valid-CRC records of any shape, spliced lengths; Ok or a typed error, whole pages only)"
cargo test -q --offline -p pagestore --test wal_replay_fuzz

echo "== UQL parser (hostile-input corpus: arbitrary strings, token soup, every truncation/deletion/duplication; Ok, BadQuery or UnknownIndex, never a panic)"
cargo test -q --offline -p uindex --test uql_fuzz

echo "== allocation budget (0 per entry examined, <= 2 per hit, 0 per carried hit, 0 per served row, 0 per leaf visited, 2 per write-path decode; counting allocator)"
cargo test -q --offline -p uindex --test alloc_budget

echo "== wire decode allocates per frame, not per row (a decoded row views its frame: 1 and 512 rows cost the same; a reply allocates per batch; hostile RowBatch bytes give BadPayload)"
cargo test -q --offline -p serve --test decode_alloc
cargo test -q --offline -p serve --test proto_prop malformed_sweep_decoder

echo "== canonical keys (whatever EntryKey::decode accepts re-encodes to the same bytes: the wire sends stored keys; every hit is EntryKey::decode of its row key and the degraded answer, and a cluster's carried hits share one string)"
cargo test -q --offline -p uindex --test key_prop
cargo test -q --offline -p uindex --test hit_prop

echo "== telemetry JSON round-trip (export -> vendored parser -> verify)"
cargo test -q --offline -p telemetry json_round_trip

echo "== explain smoke (CLI EXPLAIN ANALYZE end to end)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cat > "$tmpdir/smoke.uschema" <<'EOF'
class Employee { Age: int }
class Company { Name: str, President: ref Employee }
class Vehicle { Color: str, MadeBy: ref Company }
class Automobile < Vehicle {}
index color = hierarchy Vehicle Color
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
explain_json=$(cargo run -q --release --offline -p uindex-cli -- \
  explain "$tmpdir/db" "explain analyze color: Color = 'Red'" --json)
echo "$explain_json" | grep -q '"plan"' || { echo "explain smoke: no plan in JSON"; exit 1; }
echo "$explain_json" | grep -q '"trace"' || { echo "explain smoke: no trace in JSON"; exit 1; }
echo "$explain_json" | grep -q '"index": "color"' || { echo "explain smoke: empty plan"; exit 1; }
explain_text=$(cargo run -q --release --offline -p uindex-cli -- \
  explain "$tmpdir/db" "color: Color = 'Red'")
echo "$explain_text" | grep -q '^Execution' || { echo "explain smoke: no Execution section"; exit 1; }

echo "== corruption sweep (checksums, scrub, quarantine, salvage)"
cargo test -q --offline -p uindex --test corruption_sweep

echo "== one durability domain: crash sweep (every log prefix, every page-file op of every checkpoint, every page-file op of every commit-triggered checkpoint)"
cargo test -q --offline -p uindex --test crash_sweep

echo "== one durability domain: salvage sweep (every page x every fault kind; crash anywhere in repair)"
cargo test -q --offline -p uindex --test salvage_sweep

echo "== commit cost as counts (flat from 2 000 to 20 000 vehicles; nothing but wal.log written; a recolour makes 3 leaf edits in place and re-encodes no leaf; catalog only when changed; a checkpointing commit: 1 marker, 1 log fsync before its page writes, 1 page-file fsync, no manifest write unless a page was allocated or freed)"
cargo test -q --offline -p uindex --test commit_cost

echo "== an update consults only the indexes its attribute feeds; a commit rebuilds the catalog only after a definition changed"
cargo test -q --offline -p uindex --test update_scope
cargo test -q --offline -p uindex --test definition_durability
cargo test -q --offline -p uindex --test commit_cost definitions_are_encoded_only_after_a_definition_changed
cargo test -q --offline -p schema stamp

echo "== object decoders (hostile-bytes corpus: schema section, records, on-page entries)"
cargo test -q --offline -p objstore --test prop
cargo test -q --offline -p uindex --lib objtree

echo "== concurrency torture smoke (4 scanners racing 1 mutator, both tiers)"
timeout 300 cargo test -q --offline -p uindex --test concurrent_torture

echo "== reader clones on 1/2/4/8 threads (per-query hits and stats identical to one thread, both tiers)"
cargo test -q --offline -p uindex --test concurrent_torture reader_clones_on_1_2_4_8_threads_agree_on_both_tiers

echo "== integrity check smoke (CLI check/repair on the smoke db)"
check_out=$(cargo run -q --release --offline -p uindex-cli -- check "$tmpdir/db")
echo "$check_out" | grep -q 'status:  clean' || { echo "check smoke: db not clean"; exit 1; }
repair_out=$(cargo run -q --release --offline -p uindex-cli -- repair "$tmpdir/db")
echo "$repair_out" | grep -q 'rebuilt index' || { echo "repair smoke: no rebuild"; exit 1; }
cargo run -q --release --offline -p uindex-cli -- check "$tmpdir/db" > /dev/null \
  || { echo "repair smoke: post-repair check failed"; exit 1; }

echo "== crash smoke (SIGKILL a writer mid-commit, reopen, check)"
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

echo "== refusals (a directory that is not a database; the retired tier flag)"
mkdir "$tmpdir/nodb"
for nodb in "$tmpdir/nodb" "$tmpdir/missing"; do
  if nodb_err=$("$churn_bin" query "$nodb" "color: Color = 'Red'" 2>&1); then
    echo "refusals: query on $nodb succeeded"; exit 1
  fi
  echo "$nodb_err" | grep -q "$nodb is not a database directory: no meta.bin" \
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

echo "== mem vs cold-reopened file tier (identical query streams, brute-force sweep agrees, no fsync on reads)"
cargo test -q --offline -p bench --test scan_invariants mem_and_cold_reopened_disk_answer_identically

echo "== serve smoke (wire protocol server + oracle-checked load generator)"
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

echo "== chaos ledger (calm -> network chaos -> storage faults -> heal -> calm, oracle-checked, both tiers)"
timeout 300 cargo test -q --offline -p bench --test chaos_phases

echo "== SIGTERM drain smoke (signal -> drain -> shutdown summary)"
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

echo "== chaos drill (SIGKILL a real serve process mid-load, restart, repoint)"
drill_out=$(timeout 300 cargo run -q --release --offline -p bench --bin loadgen -- \
  --chaos-drill --cli-bin "$serve_bin")
echo "$drill_out" | grep -q "after restart" \
  || { echo "chaos drill: no restart ledger"; echo "$drill_out"; exit 1; }

echo "== serve protocol battery (malformed sweep + admission + torture)"
timeout 300 cargo test -q --offline -p serve

echo "== benchmark smoke (benchmark/ is its own workspace: keep its frozen product surface compiling and correct)"
bash benchmark/run.sh --smoke > /dev/null

echo "CI green."
