#!/usr/bin/env bash
# Tier-1 verification: exactly the command from ROADMAP.md.
# Configure, build everything (library, 38 test suites, 18 benches,
# 4 examples), then run the full ctest tree — unit suites plus the
# bench/example smoke tests.
set -euo pipefail
cd "$(dirname "$0")"

cmake -B build -S .
cmake --build build -j
cd build
# Valueless `ctest -j` only works on CMake >= 3.29 (older ctest silently
# drops it, or swallows the next flag as its value) — pass a count.
ctest --output-on-failure -j "$(nproc)"
