#!/usr/bin/env bash
# Offline CI: format check, release build, full test suite, CLI smokes,
# and a perfbench count gate. Everything here works with no network
# access and an empty cargo registry cache — the workspace has no
# external dependencies.
#
#   scripts/ci.sh            # the full gate
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "==> table1 smoke"
cargo run --release --example table1 >/dev/null

echo "==> deps smoke (MinII artifacts, L-code gating)"
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

echo "==> one owner per diagnostic code"
# A code string literal ("S004-multiple-def") may appear in the non-test
# source of one crate only (each file cut at its first `#[cfg(test)]`):
# the crate whose check emits it. A second crate emitting or matching it
# would be a second implementation. Prose mentions in docs are free.
owned="$(for f in $(find crates/*/src src -name '*.rs' | sort); do
  case "${f}" in
    crates/*) crate="${f#crates/}"; crate="${crate%%/*}" ;;
    *) crate=root ;;
  esac
  awk '/#\[cfg\(test\)\]/ { exit } { print }' "${f}" \
    | { grep -oE "\"${code_re}\"" || true; } | tr -d '"' | sed "s|\$| ${crate}|"
done | sort -u)"
shared="$(printf '%s\n' "${owned}" | awk 'NF { n[$1]++ } END { for (c in n) if (n[c] > 1) print c }')"
if [ -n "${shared}" ]; then
  echo "diagnostic code owned by more than one crate:" >&2
  for c in ${shared}; do
    printf '%s\n' "${owned}" | awk -v c="${c}" '$1 == c { print "  " $0 }' >&2
  done
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
# A NaN or zero clock period must be rejected, not silently built.
for bad_period in NaN 0; do
  if ./target/release/roccc "${prove_src}" --function acc \
      --period "${bad_period}" --emit stats >/dev/null 2>&1; then
    echo "prove smoke: --period ${bad_period} was not rejected" >&2
    exit 1
  fi
done
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
# The narrowed, scheduled udiv (Table 1's restoring divider) must certify
# by rewriting alone: no obligation may fall back to SAT.
udiv_src="$(mktemp -t prove_smoke_udiv.XXXXXX.c)"
{
  echo 'void udiv(uint8 n, uint8 d, uint8* q) {'
  echo '  int rem = 0;'
  echo '  int quo = 0;'
  for k in 7 6 5 4 3 2 1 0; do
    echo "  rem = (rem << 1) | ((n >> ${k}) & 1);"
    echo '  quo = quo << 1;'
    echo '  if (rem >= d) { rem = rem - d; quo = quo | 1; }'
  done
  echo '  *q = quo;'
  echo '}'
} >"${udiv_src}"
./target/release/roccc "${udiv_src}" --function udiv --range-narrow \
  --pipeline-ii auto --emit prove | grep -q ' 0 sat, 0 refuted, 0 unknown;' \
  || { echo "prove smoke: udiv needed the SAT fallback" >&2; exit 1; }
# So must Table 1's square root (the `crates/ipcores` source): the
# largest certificate, and the compile that sets compile-table1's
# worst_ms.
sqrt_src="$(mktemp -t prove_smoke_sqrt.XXXXXX.c)"
{
  echo 'void square_root(uint24 x, uint12* r) {'
  echo '  int rem = 0;'
  echo '  int root = 0;'
  echo '  int test = 0;'
  for i in 0 1 2 3 4 5 6 7 8 9 10 11; do
    echo "  rem = (rem << 2) | (((x >> $((2 * (11 - i) + 1))) & 1) << 1) | ((x >> $((2 * (11 - i)))) & 1);"
    echo '  test = (root << 2) | 1;'
    echo '  root = root << 1;'
    echo '  if (rem >= test) { rem = rem - test; root = root | 1; }'
  done
  echo '  *r = root;'
  echo '}'
} >"${sqrt_src}"
./target/release/roccc "${sqrt_src}" --function square_root --range-narrow \
  --pipeline-ii auto --emit prove | grep -q ' 0 sat, 0 refuted, 0 unknown;' \
  || { echo "prove smoke: square_root needed the SAT fallback" >&2; exit 1; }
rm -f "${prove_src}" "${prove_log}" "${udiv_src}" "${sqrt_src}"

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
# The CLI and the daemon render through one artifact table: a local
# render and a served one must be the same bytes.
local_out="$(mktemp -t serve_smoke_local.XXXXXX)"
served_out="$(mktemp -t serve_smoke_served.XXXXXX)"
for kind in deps-json table-row ir; do
  ./target/release/roccc "${smoke_src}" --function acc --emit "${kind}" >"${local_out}"
  ./target/release/roccc "${smoke_src}" --function acc --connect "${addr}" \
    --emit "${kind}" >"${served_out}" 2>/dev/null
  if [ ! -s "${local_out}" ] || ! diff "${local_out}" "${served_out}" >&2; then
    echo "serve smoke: --emit ${kind} differs between a local and a served compile" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
done
rm -f "${local_out}" "${served_out}"
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
# A stage override can modulo-schedule one stage (the spec takes every
# compile option key); the network must stay bit-exact.
ii_spec="$(mktemp -t pipe_smoke_ii.XXXXXX.spec)"
cat >"${ii_spec}" <<'EOF'
pipeline scale | offset
stage offset pipeline-ii=auto
EOF
./target/release/roccc "${pipe_src}" --pipeline "${ii_spec}" --deny-warnings \
  --emit cosim | grep -q 'bit-exact vs chained single-kernel golden: yes' \
  || { echo "pipeline smoke: pipeline-ii=auto stage not bit-exact" >&2; exit 1; }
# A stage forced to II 2 whose body is deeper than two cycles launches on
# its own initiation-interval grid inside the network: the stats row must
# read II 2 and the co-simulation must stay bit-exact.
ii2_src="$(mktemp -t pipe_smoke_ii2.XXXXXX.c)"
cat >"${ii2_src}" <<'EOF'
void scale(int A[32], int B[32]) {
  for (int i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; }
}
void cubic(int B[32], int C[32]) {
  for (int i = 0; i < 32; i = i + 1) { C[i] = ((B[i] * B[i] + 5) * B[i] + 9) * B[i] + 11; }
}
EOF
ii2_spec="$(mktemp -t pipe_smoke_ii2.XXXXXX.spec)"
cat >"${ii2_spec}" <<'EOF'
pipeline scale | cubic
stage cubic pipeline-ii=2
EOF
./target/release/roccc "${ii2_src}" --function cubic --pipeline-ii 2 --emit schedule \
  | awk '/body latency/ { exit !($4 > 2) }' \
  || { echo "pipeline smoke: II-2 stage body latency is not above 2" >&2; exit 1; }
[ "$(./target/release/roccc "${ii2_src}" --pipeline "${ii2_spec}" --deny-warnings \
  --emit stats | awk '$1 == "cubic" { print $4 }')" = 2 ] \
  || { echo "pipeline smoke: stats row of the II-2 stage does not read II 2" >&2; exit 1; }
./target/release/roccc "${ii2_src}" --pipeline "${ii2_spec}" --deny-warnings \
  --emit cosim | grep -q 'bit-exact vs chained single-kernel golden: yes' \
  || { echo "pipeline smoke: II-2 stage not bit-exact" >&2; exit 1; }
# Two words per beat, on the external BRAMs and the channels alike: both
# networks must stay bit-exact.
bus_spec="$(mktemp -t pipe_smoke_bus.XXXXXX.spec)"
for spec in "${pipe_spec}" "${ii2_spec}"; do
  src="${pipe_src}"
  [ "${spec}" = "${ii2_spec}" ] && src="${ii2_src}"
  { cat "${spec}"; echo 'bus 2'; } >"${bus_spec}"
  ./target/release/roccc "${src}" --pipeline "${bus_spec}" --deny-warnings \
    --emit cosim | grep -q 'bit-exact vs chained single-kernel golden: yes' \
    || { echo "pipeline smoke: $(head -n 1 "${spec}") at bus 2 not bit-exact" >&2; exit 1; }
done
rm -f "${bus_spec}"
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
rm -f "${pipe_src}" "${pipe_spec}" "${ii_spec}" "${ii2_src}" "${ii2_spec}" "${bad_spec}" \
  "${bad_log}"

echo "==> batched-sim differential smoke"
cargo test --release -q --test batched_sim

echo "==> perfbench count gate (compile-table1 IR sizes and hardware quality, simulated cycles, explore-sweep candidates)"
# A short traced run of the compile benchmark, a short run of the
# simulation benchmark and a short traced run of the explore sweep. Their
# count and quality metrics repeat exactly from run to run and seed to
# seed, so any drift is a change in what the compiler generates, in which
# sweep candidates it accepts, or in how many cycles the system driver and
# the co-simulator take, not in how fast any of them runs.
pb_out="$(mktemp -t perfbench_counts.XXXXXX.txt)"
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml \
  --bin bench -- --workload compile-table1 --seed 1 --seconds 2 --trace 1 \
  >"${pb_out}"
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml \
  --bin bench -- --workload simulate-system --seed 1 --seconds 1 \
  >>"${pb_out}"
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml \
  --bin bench -- --workload explore-sweep --seed 1 --seconds 2 --trace 1 \
  >>"${pb_out}"
pinned_lines() {
  awk 'NR == FNR { want[$1 " " $2]; next } ($1 " " $2) in want' \
    scripts/perfbench_counts.txt "$1"
}
if ! diff scripts/perfbench_counts.txt <(pinned_lines "${pb_out}") >&2; then
  echo "perfbench count gate: counts drifted from scripts/perfbench_counts.txt" >&2
  exit 1
fi
# The sweep's candidate counts do not depend on the seed either.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml \
  --bin bench -- --workload explore-sweep --seed 2 --seconds 2 --trace 1 \
  >"${pb_out}"
if ! diff <(grep '^explore-sweep ' scripts/perfbench_counts.txt) \
    <(pinned_lines "${pb_out}") >&2; then
  echo "perfbench count gate: explore-sweep counts differ at --seed 2" >&2
  exit 1
fi
rm -f "${pb_out}"

echo "CI OK"
