#!/usr/bin/env bash
# Regenerates every figure of the paper: runs each bench/fig* harness and
# renders its CSV to SVG (GFlop/s chart, plus a transfers chart for the
# transfer figures). Usage:
#
#   ./scripts/make_figures.sh [build-dir] [output-dir] [extra harness flags]
#
# e.g. ./scripts/make_figures.sh build figures --full --jobs 8
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-figures}"
shift $(( $# > 2 ? 2 : $# )) || true

mkdir -p "$OUT_DIR"

for bench in "$BUILD_DIR"/bench/fig[0-9]*; do
  name="$(basename "$bench")"
  csv="$OUT_DIR/$name.csv"
  echo "== $name"
  "$bench" --out "$csv" "$@"
  "$BUILD_DIR"/examples/plot_figure "$csv" --metric=gflops \
      --out="$OUT_DIR/$name.gflops.svg" --title="$name"
  case "$name" in
    *transfers*|fig12*|fig13*)
      "$BUILD_DIR"/examples/plot_figure "$csv" --metric=transfers_mb \
          --out="$OUT_DIR/$name.transfers.svg" --title="$name (transfers)"
      ;;
  esac
done

echo "figures written to $OUT_DIR/"
