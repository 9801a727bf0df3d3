#!/usr/bin/env bash
# fmacheck.sh — fail if the compiler fuses any floating-point multiply-add
# in the repository's own code.
#
# Go may compile x*y + z into one fused multiply-add, which rounds once
# instead of twice, on every architecture that has the instruction. amd64
# fuses only explicit math.FMA, so goldens captured there are blind to it;
# elsewhere a fused site can change the bytes of an answer. An explicit
# float64(x*y) conversion forces the rounding and prevents fusion (the Go
# spec's rule), so every such site is pinned and this check requires zero
# fused ops. It cross-compiles the packages for four architectures with
# fused multiply-add instructions and greps the assembly listings; it needs
# no emulator and runs nothing (about half a minute per architecture).
set -euo pipefail

cd "$(dirname "$0")/.."

bad=0
for arch in arm64 ppc64le s390x riscv64; do
    # -a: a package served from the build cache prints no listing.
    asm="$(GOARCH=$arch go build -a -gcflags=-S ./internal/... ./cmd/... 2>&1 >/dev/null)"
    if ! grep -qE '^\s+0x[0-9a-f]+ [0-9]+ \(' <<<"$asm"; then
        echo "fmacheck: no assembly listing from the $arch build" >&2
        exit 1
    fi
    hits="$(grep -E '^\s+0x[0-9a-f]+ [0-9]+ \([^)]+\)\s+FN?M(ADD|SUB)[DS]?\s' <<<"$asm" |
        sed -E 's/.*\(([^)]+)\)\s+(\S+).*/\1 \2/' | sort -u || true)"
    if [ -n "$hits" ]; then
        echo "fmacheck: $arch fuses multiply-adds at:" >&2
        echo "$hits" >&2
        bad=1
    else
        echo "fmacheck: $arch: no fused multiply-adds"
    fi
done
exit $bad
