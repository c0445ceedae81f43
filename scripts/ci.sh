#!/usr/bin/env bash
# Offline CI: format check, release build, full test suite, and a bench
# smoke run. Everything here works with no network access and an empty
# cargo registry cache — the workspace has no external dependencies.
#
#   scripts/ci.sh            # the full gate
#   BENCH_CYCLES=50000 scripts/ci.sh   # heavier bench smoke
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_CYCLES="${BENCH_CYCLES:-5000}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release (workspace)"
cargo build --release --workspace

echo "==> cargo test (workspace)"
cargo test --workspace --release -q

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> cargo doc (deny rustdoc warnings: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> verify smoke (paper + generated kernels under deny)"
cargo run --release --example verify_sweep
verify_src="$(mktemp -t verify_smoke.XXXXXX.c)"
cat >"${verify_src}" <<'EOF'
void acc(int a, int b, int* q) {
  *q = a * 3 + b;
}
EOF
# The CLI gate: --deny-warnings must pass on a clean kernel ...
./target/release/roccc "${verify_src}" --function acc --deny-warnings \
  --emit stats >/dev/null
# ... including with the range analysis on (every W0xx check under deny),
# and the range report must actually carry interval claims.
./target/release/roccc "${verify_src}" --function acc --deny-warnings \
  --range-narrow --emit stats >/dev/null
./target/release/roccc "${verify_src}" --function acc --range-narrow \
  --emit ranges | grep -q 'ir ranges' \
  || { echo "verify smoke: --emit ranges produced no report" >&2; exit 1; }
# ... and --emit timings must report a per-phase breakdown.
./target/release/roccc "${verify_src}" --function acc --emit timings \
  | grep -q '^total' \
  || { echo "verify smoke: --emit timings produced no breakdown" >&2; exit 1; }
# ... and unknown flags must be rejected with a nonzero exit.
if ./target/release/roccc "${verify_src}" --function acc --no-such-flag \
    >/dev/null 2>&1; then
  echo "verify smoke: unknown flag was not rejected" >&2
  exit 1
fi
rm -f "${verify_src}"
# C names that differ only in case must become distinct VHDL identifiers
# (VHDL is case-insensitive): the V006 lint fails this under deny if two
# ports collapse into one.
case_src="$(mktemp -t case_smoke.XXXXXX.c)"
cat >"${case_src}" <<'EOF'
void f(int A, int a, int* o) { *o = A - a; }
EOF
./target/release/roccc "${case_src}" --function f --emit vhdl --deny-warnings \
  >/dev/null
rm -f "${case_src}"

echo "==> bench smoke (${BENCH_CYCLES} cycles, 3 runs)"
out="$(mktemp -t bench_sim_smoke.XXXXXX.json)"
cargo run --release -p roccc-bench --bin bench_sim -- \
  --cycles "${BENCH_CYCLES}" --runs 3 --out "${out}"
grep -q '"benchmark"' "${out}" || { echo "bench smoke: bad JSON" >&2; exit 1; }
rm -f "${out}"

echo "==> table1 smoke"
cargo run --release -p roccc-bench --bin table1 >/dev/null

echo "==> bench_width smoke (range-driven narrowing on Table 1)"
width_out="$(mktemp -t bench_width_smoke.XXXXXX.json)"
cargo run --release -p roccc-bench --bin bench_width -- --out "${width_out}" \
  >/dev/null
grep -q '"benchmark": "width-narrowing"' "${width_out}" \
  || { echo "bench_width smoke: bad JSON" >&2; exit 1; }
rm -f "${width_out}"

echo "==> deps smoke (MinII artifacts, L-code gating, bench_ii)"
# Every paper kernel's dependence report must render deny-clean with a
# MinII line, through the real CLI.
deps_src="$(mktemp -t deps_smoke.XXXXXX.c)"
cat >"${deps_src}" <<'EOF'
void fir(int16 A[36], int16 Y[32]) {
  int i;
  for (i = 0; i < 32; i = i + 1) {
    Y[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 5*A[i+3] + 3*A[i+4];
  }
}
EOF
./target/release/roccc "${deps_src}" --function fir --deny-warnings \
  --emit deps | grep -q 'min II:' \
  || { echo "deps smoke: --emit deps lacks the MinII line" >&2; exit 1; }
./target/release/roccc "${deps_src}" --function fir --deny-warnings \
  --emit deps-json | grep -q '"schema":"roccc-deps-v1"' \
  || { echo "deps smoke: bad deps JSON schema" >&2; exit 1; }
# A planted overlapping-write collision must be refused with the stable
# L-code, never compiled.
bad_deps_src="$(mktemp -t deps_smoke_bad.XXXXXX.c)"
bad_deps_log="$(mktemp -t deps_smoke_bad.XXXXXX.log)"
cat >"${bad_deps_src}" <<'EOF'
void k(int A[20], int B[20]) {
  int i;
  for (i = 0; i < 16; i = i + 1) {
    B[i] = A[i] * 3;
    B[i + 1] = A[i] - 7;
  }
}
EOF
if ./target/release/roccc "${bad_deps_src}" --function k --emit stats \
    >/dev/null 2>"${bad_deps_log}"; then
  echo "deps smoke: overlapping write lanes were not rejected" >&2
  exit 1
fi
grep -q 'L012-overlapping-writes' "${bad_deps_log}" \
  || { echo "deps smoke: rejection lacks the L012 code" >&2; exit 1; }
rm -f "${deps_src}" "${bad_deps_src}" "${bad_deps_log}"
ii_out="$(mktemp -t bench_ii_smoke.XXXXXX.json)"
cargo run --release -p roccc-bench --bin bench_ii -- --out "${ii_out}" >/dev/null
grep -q '"benchmark": "min-ii"' "${ii_out}" \
  || { echo "bench_ii smoke: bad JSON" >&2; exit 1; }
grep -q '"min_ii"' "${ii_out}" \
  || { echo "bench_ii smoke: missing min_ii field" >&2; exit 1; }
rm -f "${ii_out}"

echo "==> schedule smoke (modulo scheduling, M-code gating)"
# A scheduled fir must achieve II == MinII == 1 through the real CLI,
# deny-clean, and the JSON artifact must carry the stable schema.
sched_src="$(mktemp -t sched_smoke.XXXXXX.c)"
cat >"${sched_src}" <<'EOF'
void fir(int16 A[36], int16 Y[32]) {
  int i;
  for (i = 0; i < 32; i = i + 1) {
    Y[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 5*A[i+3] + 3*A[i+4];
  }
}
EOF
./target/release/roccc "${sched_src}" --function fir --deny-warnings \
  --pipeline-ii auto --emit schedule \
  | grep -q 'achieved II      : 1 (min 1, rec 1, res 1)' \
  || { echo "schedule smoke: fir did not achieve II 1" >&2; exit 1; }
./target/release/roccc "${sched_src}" --function fir --deny-warnings \
  --emit schedule-json | grep -q '"schema":"roccc-schedule-v1"' \
  || { echo "schedule smoke: bad schedule JSON schema" >&2; exit 1; }
# A corrupted schedule artifact must be rejected by the M-code family
# with a nonzero exit (the example tampers with a committed schedule and
# re-runs the verifier from the artifacts alone).
sched_log="$(mktemp -t sched_smoke.XXXXXX.log)"
if cargo run --release --example schedule_smoke corrupt \
    >/dev/null 2>"${sched_log}"; then
  echo "schedule smoke: corrupted schedule was not rejected" >&2
  exit 1
fi
grep -q 'M001-malformed-schedule' "${sched_log}" \
  || { echo "schedule smoke: rejection lacks the M001 code" >&2; exit 1; }
cargo run --release --example schedule_smoke >/dev/null
rm -f "${sched_src}" "${sched_log}"

echo "==> diagnostic registry drift (source codes vs DESIGN.md)"
# Every diagnostic code the source can emit must have a DESIGN.md registry
# mention, and every code DESIGN.md mentions must still exist in source —
# drift in either direction fails the gate.
code_re='[SDNWLMPVE][0-9]{3}-[a-z0-9][a-z0-9-]*'
src_codes="$(grep -rhoE "${code_re}" crates src --include='*.rs' | sort -u)"
doc_codes="$(grep -ohE "${code_re}" DESIGN.md | sort -u)"
undocumented="$(comm -23 <(printf '%s\n' "${src_codes}") <(printf '%s\n' "${doc_codes}"))"
stale="$(comm -13 <(printf '%s\n' "${src_codes}") <(printf '%s\n' "${doc_codes}"))"
if [ -n "${undocumented}" ]; then
  echo "diagnostic registry drift: emitted but not in DESIGN.md:" >&2
  printf '%s\n' "${undocumented}" >&2
  exit 1
fi
if [ -n "${stale}" ]; then
  echo "diagnostic registry drift: in DESIGN.md but not emitted anywhere:" >&2
  printf '%s\n' "${stale}" >&2
  exit 1
fi

echo "==> prove smoke (translation validation, E-code gating)"
# A proved dct must certify EQUAL through the real CLI, deny-clean, and
# the JSON artifact must carry the stable schema.
prove_src="$(mktemp -t prove_smoke.XXXXXX.c)"
cat >"${prove_src}" <<'EOF'
void acc(int a, int b, int* q) {
  *q = a * 3 + b;
}
EOF
./target/release/roccc "${prove_src}" --function acc --deny-warnings \
  --prove --emit prove | grep -q '^prove: acc — EQUAL' \
  || { echo "prove smoke: acc did not certify EQUAL" >&2; exit 1; }
./target/release/roccc "${prove_src}" --function acc --deny-warnings \
  --emit prove-json | grep -q '"schema": "roccc-prove-v1"' \
  || { echo "prove smoke: bad certificate JSON schema" >&2; exit 1; }
# The E-family filter must be accepted (and a bogus family rejected).
./target/release/roccc "${prove_src}" --function acc --prove \
  --verify-families E --emit stats >/dev/null \
  || { echo "prove smoke: --verify-families E rejected" >&2; exit 1; }
if ./target/release/roccc "${prove_src}" --function acc \
    --verify-families Q --emit stats >/dev/null 2>&1; then
  echo "prove smoke: bogus verify family was not rejected" >&2
  exit 1
fi
# A corrupted certificate must be rejected by the E-code family with a
# nonzero exit (the example tampers with a real certificate and re-runs
# the verifier from the artifact alone).
prove_log="$(mktemp -t prove_smoke.XXXXXX.log)"
if cargo run --release --example prove_smoke corrupt \
    >/dev/null 2>"${prove_log}"; then
  echo "prove smoke: corrupted certificate was not rejected" >&2
  exit 1
fi
grep -q 'E004-malformed-certificate' "${prove_log}" \
  || { echo "prove smoke: rejection lacks the E004 code" >&2; exit 1; }
cargo run --release --example prove_smoke >/dev/null
rm -f "${prove_src}" "${prove_log}"

echo "==> bench_prove smoke (certification cost on Table 1)"
prove_out="$(mktemp -t bench_prove_smoke.XXXXXX.json)"
cargo run --release -p roccc-bench --bin bench_prove -- --out "${prove_out}" \
  >/dev/null
grep -q '"benchmark": "prove"' "${prove_out}" \
  || { echo "bench_prove smoke: bad JSON" >&2; exit 1; }
grep -q '"proved_sat"' "${prove_out}" \
  || { echo "bench_prove smoke: missing proved_sat field" >&2; exit 1; }
rm -f "${prove_out}"

echo "==> roccc-serve smoke (daemon + client + metrics + shutdown)"
serve_log="$(mktemp -t roccc_serve_smoke.XXXXXX.log)"
./target/release/roccc-serve --port 0 >"${serve_log}" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^roccc-serve listening on //p' "${serve_log}")"
  [ -n "${addr}" ] && break
  sleep 0.1
done
if [ -z "${addr}" ]; then
  echo "serve smoke: server never announced its address" >&2
  kill "${serve_pid}" 2>/dev/null || true
  exit 1
fi
smoke_src="$(mktemp -t serve_smoke.XXXXXX.c)"
cat >"${smoke_src}" <<'EOF'
void acc(int a, int b, int* q) {
  *q = a * 3 + b;
}
EOF
# Cold compile, then the identical request again: the second must be a
# cache hit (the client reports it on stderr).
./target/release/roccc "${smoke_src}" --function acc --connect "${addr}" \
  --emit stats >/dev/null
hit_note="$(./target/release/roccc "${smoke_src}" --function acc \
  --connect "${addr}" --emit stats 2>&1 >/dev/null)"
case "${hit_note}" in
  *"served from cache"*) ;;
  *) echo "serve smoke: repeat compile was not served from cache" >&2; exit 1 ;;
esac
./target/release/roccc --connect "${addr}" --metrics \
  | grep -q '^roccc_cache_hits_total 1$' \
  || { echo "serve smoke: metrics missing the cache hit" >&2; exit 1; }
./target/release/roccc --connect "${addr}" --shutdown >/dev/null
wait "${serve_pid}"
rm -f "${serve_log}" "${smoke_src}"

echo "==> explore smoke (fir, tiny space, table + json)"
explore_src="$(mktemp -t explore_smoke.XXXXXX.c)"
cat >"${explore_src}" <<'EOF'
void fir(int16 A[36], int16 Y[32]) {
  int i;
  for (i = 0; i < 32; i = i + 1) {
    Y[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 5*A[i+3] + 3*A[i+4];
  }
}
EOF
./target/release/roccc "${explore_src}" --function fir --explore \
  --unroll-factors 1,2 --strip-widths 0,2 \
  | grep -q '^frontier: [1-9]' \
  || { echo "explore smoke: empty frontier" >&2; exit 1; }
./target/release/roccc "${explore_src}" --function fir --explore \
  --unroll-factors 1,2 --strip-widths 0 --emit json \
  | grep -q '"schema": "roccc-explore-v1"' \
  || { echo "explore smoke: bad JSON artifact" >&2; exit 1; }
rm -f "${explore_src}"

echo "==> bench_dse smoke (quick space)"
dse_out="$(mktemp -t bench_dse_smoke.XXXXXX.json)"
cargo run --release -p roccc-bench --bin bench_dse -- \
  --quick --out "${dse_out}" >/dev/null
grep -q '"benchmark": "dse-sweep"' "${dse_out}" \
  || { echo "bench_dse smoke: bad JSON" >&2; exit 1; }
grep -q '"rerun_hit_rate": 1.0000' "${dse_out}" \
  || { echo "bench_dse smoke: memo re-run did not hit" >&2; exit 1; }
rm -f "${dse_out}"

echo "==> pipeline smoke (streaming process network)"
# The wavelet | threshold | encode demo: deny-clean compile, bit-exact
# co-simulation, and the derived-vs-empirical FIFO depth audit.
cargo run --release --example wavelet_pipeline >/dev/null
pipe_src="$(mktemp -t pipe_smoke.XXXXXX.c)"
cat >"${pipe_src}" <<'EOF'
void scale(int A[32], int B[32]) {
  for (int i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; }
}
void offset(int B[32], int C[32]) {
  for (int i = 0; i < 32; i = i + 1) { C[i] = B[i] + 7; }
}
EOF
pipe_spec="$(mktemp -t pipe_smoke.XXXXXX.spec)"
cat >"${pipe_spec}" <<'EOF'
name duo
pipeline scale | offset
EOF
# Deny-clean compile + bit-exact co-simulation through the CLI.
./target/release/roccc "${pipe_src}" --pipeline "${pipe_spec}" --deny-warnings \
  --emit cosim | grep -q 'bit-exact vs chained single-kernel golden: yes' \
  || { echo "pipeline smoke: cosim not bit-exact" >&2; exit 1; }
# The generated pipeline VHDL must be lint-clean under --deny-warnings.
./target/release/roccc "${pipe_src}" --pipeline "${pipe_spec}" --deny-warnings \
  --emit vhdl | grep -q 'entity duo_pipeline is' \
  || { echo "pipeline smoke: no top-level pipeline entity" >&2; exit 1; }
# A deliberately deadlocking topology (FIFO below the deadlock-free
# minimum) must be rejected statically with the stable P-code.
bad_spec="$(mktemp -t pipe_smoke_bad.XXXXXX.spec)"
bad_log="$(mktemp -t pipe_smoke_bad.XXXXXX.log)"
cat >"${bad_spec}" <<'EOF'
pipeline scale | offset
fifo offset.B depth=0
EOF
if ./target/release/roccc "${pipe_src}" --pipeline "${bad_spec}" --verify \
    >/dev/null 2>"${bad_log}"; then
  echo "pipeline smoke: undersized FIFO was not rejected" >&2
  exit 1
fi
grep -q 'P003-undersized-fifo' "${bad_log}" \
  || { echo "pipeline smoke: rejection lacks the P003 code" >&2; exit 1; }
rm -f "${pipe_src}" "${pipe_spec}" "${bad_spec}" "${bad_log}"

echo "==> bench_stream smoke (quick pipeline)"
stream_out="$(mktemp -t bench_stream_smoke.XXXXXX.json)"
cargo run --release -p roccc-bench --bin bench_stream -- \
  --quick --out "${stream_out}" >/dev/null
grep -q '"benchmark": "stream-pipeline"' "${stream_out}" \
  || { echo "bench_stream smoke: bad JSON" >&2; exit 1; }
grep -q '"overlap_speedup"' "${stream_out}" \
  || { echo "bench_stream smoke: missing overlap_speedup" >&2; exit 1; }
# The full wavelet | threshold | encode pipeline must reproduce every
# cycle, firing, stall, starve, depth and peak figure of the committed
# artifact; only the wall-clock fields may differ.
cargo run --release -p roccc-bench --bin bench_stream -- \
  --out "${stream_out}" >/dev/null
if ! diff <(grep -v '"wall_' BENCH_stream.json) <(grep -v '"wall_' "${stream_out}") >&2; then
  echo "bench_stream: pipeline figures drifted from BENCH_stream.json" >&2
  exit 1
fi
rm -f "${stream_out}"

echo "==> batched-sim differential smoke"
cargo test --release -q --test batched_sim

echo "==> explore parallel smoke (worker pool must not lose to sequential)"
host_cpus="$(nproc 2>/dev/null || echo 1)"
if [ "${host_cpus}" -ge 2 ]; then
  par_out="$(mktemp -t bench_dse_par.XXXXXX.json)"
  cargo run --release -p roccc-bench --bin bench_dse -- \
    --kernels fir --factors 1,2,3,4 --strips 0,2 --out "${par_out}" >/dev/null
  # First parallel_speedup in the file is the aggregate (per-kernel rows
  # follow it).
  speedup="$(sed -n 's/^  "parallel_speedup": \([0-9.]*\),$/\1/p' "${par_out}" | head -1)"
  awk "BEGIN { exit !(${speedup:-0} >= 1.0) }" \
    || { echo "explore parallel smoke: speedup ${speedup} < 1.0 on a ${host_cpus}-CPU host" >&2; exit 1; }
  rm -f "${par_out}"
else
  echo "    (single-CPU host: 8 workers on 1 core only add contention; gate skipped)"
fi

echo "==> loadgen smoke (4 clients x 8 requests, in-process server)"
lg_out="$(mktemp -t bench_serve_smoke.XXXXXX.json)"
cargo run --release -p roccc-bench --bin loadgen -- \
  --threads 4 --requests 8 --out "${lg_out}" >/dev/null
grep -q '"dropped": 0' "${lg_out}" \
  || { echo "loadgen smoke: dropped requests" >&2; exit 1; }
rm -f "${lg_out}"

echo "CI OK"
