#!/usr/bin/env bash
exec cargo run --release --offline --quiet --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
