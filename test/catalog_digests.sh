#!/usr/bin/env bash
# The reproduction contract as MD5 digests: for every entry of
# `list experiments` at seed pqtls and --jobs 2, the report and the
# metrics artifact of a plain run and of a run with one injected failed
# cell (--keep-going), then the Chrome trace of `run table2a` and the
# capture of one kyber768 x dilithium3 handshake. 56 lines.
#
#   bash test/catalog_digests.sh _build/default/bin/pqtls_bench.exe > test/catalog.md5
#
# CI regenerates the file and diffs it against the committed one, so a
# change that moves a byte names each entry it moved.
set -euo pipefail

bench=$(realpath "${1:?usage: catalog_digests.sh <pqtls-bench>}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

md5 () { md5sum "$1" | cut -d' ' -f1; }

# the failed cell of each entry: a label substring that matches at least
# one of its cells
needle () {
  case "$1" in
    level5) echo 'kyber1024 x dilithium5 @' ;;
    level5-perf) echo 'kyber1024 x dilithium5' ;;
    level3-perf) echo 'kyber768 x dilithium3' ;;
    all-sphincs) echo 'sphincs128s' ;;
    ablation-buffer) echo '(default-buffered)' ;;
    ablation-hrr) echo 'x25519 x rsa:2048 @ 5g' ;;
    *) echo 'x25519 x rsa:2048' ;;
  esac
}

for exp in $("$bench" list experiments | cut -d' ' -f1); do
  "$bench" run "$exp" --seed pqtls --jobs 2 -q --metrics "$exp.json" > "$exp.txt" \
    2> "$exp.log"
  echo "$exp plain $(md5 "$exp.txt") $(md5 "$exp.json")"
  PQTLS_FAIL_CELL=$(needle "$exp") "$bench" run "$exp" --seed pqtls --jobs 2 \
    -q --keep-going --metrics "$exp.fail.json" > "$exp.fail.txt" 2> "$exp.fail.log"
  echo "$exp failed $(md5 "$exp.fail.txt") $(md5 "$exp.fail.json")"
done

"$bench" run table2a --seed pqtls --jobs 2 -q --trace table2a.trace.json \
  > /dev/null 2>&1
echo "trace table2a $(md5 table2a.trace.json)"
"$bench" handshake --seed pqtls --kem kyber768 --sig dilithium3 --pcap hs.pcap \
  > /dev/null
echo "pcap kyber768-dilithium3 $(md5 hs.pcap)"
