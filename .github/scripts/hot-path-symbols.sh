#!/usr/bin/env bash
# Checks that the simulator's per-cycle hooks are inlined into a built
# binary's tick loop.
#
#   .github/scripts/hot-path-symbols.sh BIN
#
# `System::tick`, `advance_event` and `run_instructions` call the hooks
# below on every ticked cycle or transfer. Each is `#[inline]`: a binary
# built from another workspace without LTO, such as the `benchmark/`
# package's `bench`, otherwise calls them across crates out of line, and
# rustc's automatic cross-crate inlining covers only the smallest
# functions. A hook that `nm -C --defined-only BIN` lists as a text
# symbol was not inlined; the script names each one and exits 1. It
# exits 2 when BIN defines no `System::run_instructions`, the anchor
# that shows its symbols are there to read (a stripped binary, or not
# the simulator).
#
# A new per-cycle hook needs `#[inline]` and a line here. The bodies
# that do work stay out of line on purpose and are not listed: the
# cache's port loop (`Cache::tick_ports`), `Controller::tick_full`,
# `Core::complete`, `Cache::{deliver_fill, eager_candidate,
# eager_probe_span, head_stalled_on_mshrs}` and
# `Controller::{try_read, try_write, try_eager}`.
set -euo pipefail

HOOKS=(
  mellow_cache::line_of
  mellow_cache::cache::Cache::tick
  mellow_cache::cache::Cache::next_event
  mellow_cache::cache::Cache::input_idle
  mellow_cache::cache::Cache::input_full
  mellow_cache::cache::Cache::has_pending_transfers
  mellow_cache::cache::Cache::try_push
  mellow_cache::cache::Cache::try_demand
  mellow_cache::cache::Cache::try_fetch
  mellow_cache::cache::Cache::try_writeback
  mellow_cache::cache::Cache::pop_completion
  mellow_cache::cache::Cache::pop_fill_up
  mellow_cache::cache::Cache::peek_miss_down
  mellow_cache::cache::Cache::pop_miss_down
  mellow_cache::cache::Cache::peek_writeback_down
  mellow_cache::cache::Cache::pop_writeback_down
  mellow_memctrl::controller::Controller::tick
  mellow_memctrl::controller::Controller::next_event
  mellow_memctrl::controller::Controller::eager_has_room
  mellow_memctrl::controller::Controller::pop_read_done
  mellow_cpu::core_model::Core::stall
  mellow_cpu::core_model::Core::retire
  mellow_cpu::core_model::Core::dispatch
  mellow_cpu::core_model::Core::walk_start
  mellow_cpu::core_model::Core::index
  mellow_cpu::core_model::Core::retired_instructions
)
ANCHOR=mellow_sim::system::System::run_instructions

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BIN" >&2
  exit 2
fi

# The demangled names of BIN's text symbols, one per line.
text=$(nm -C --defined-only "$1" | awk '$2 == "t" || $2 == "T" { sub(/^[^ ]+ [^ ]+ /, ""); print }')

if ! grep -qxF "$ANCHOR" <<<"$text"; then
  echo "$1 defines no $ANCHOR: no symbols to check" >&2
  exit 2
fi

found=0
for hook in "${HOOKS[@]}"; do
  if grep -qxF "$hook" <<<"$text"; then
    echo "not inlined: $hook" >&2
    found=$((found + 1))
  fi
done
if ((found)); then
  echo "$found of ${#HOOKS[@]} per-cycle hooks are defined functions in $1" >&2
  exit 1
fi
echo "all ${#HOOKS[@]} per-cycle hooks are inlined in $1"
