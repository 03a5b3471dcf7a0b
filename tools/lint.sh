#!/usr/bin/env sh
# Source-hygiene lint for the library tree (run via `dune build @lint`).
#
# The library layer must stay free of constructs that undermine the
# simulator's reproducibility and type-safety story:
#
#   Obj.magic          — defeats the type system; none of the shadow-state
#                        tricks in the sanitizer need it.
#   Unix.gettimeofday  — steps backwards under NTP adjustment; all timing
#                        must use the monotonic clock (Hsgc_sim.Kernel,
#                        Monotonic_clock).
#   Printf.printf      — bare stdout formatting from library code bypasses
#                        the Report/Table rendering layer and corrupts
#                        artifact output; only bin/ and test/ may print
#                        directly (Table.print is the one sanctioned
#                        stdout sink).
#
# Exit status: 0 clean, 1 any offender found.

set -u

root="$(dirname "$0")/.."
status=0

ban() {
  pattern="$1"
  why="$2"
  hits=$(grep -rnE "$pattern" "$root/lib" --include='*.ml' --include='*.mli' 2>/dev/null)
  if [ -n "$hits" ]; then
    echo "lint: banned construct in lib/ ($why):" >&2
    echo "$hits" >&2
    status=1
  fi
}

ban 'Obj\.magic' 'Obj.magic defeats the type system'
ban 'Unix\.gettimeofday' 'non-monotonic clock; use Monotonic_clock'
ban 'Printf\.printf' 'bare stdout formatting from library code'

# The cycle-stepped hot-path modules additionally ban closure literals:
# under classic ocamlopt (no flambda) a [fun () -> ...] that captures
# anything heap-allocates at every evaluation, and the compiled engine's
# contract is a zero-allocation stepping loop (gated by the perf suite's
# compiled_words_per_cycle budget). Thunks belong in the setup layer,
# not in per-cycle code. The sync block and the header FIFO are on that
# path too: both run every cycle, and the spinner-parking wake checks
# read the sync block after every core step. So are the instruments:
# the tracer, the profiler and the metrics registry they feed run on
# every traced cycle and inside the parked fast path's wake credits.
# Release builds inline across modules (lib/dune), which puts the fault
# injector's hooks, the heap accessors and the stall counters inside
# the cycle too: a closure literal there would allocate per cycle.
ban_hot() {
  file="$1"
  hits=$(grep -nE 'fun \(\) ->' "$root/$file" 2>/dev/null)
  if [ -n "$hits" ]; then
    echo "lint: closure literal in hot-path module $file (allocates per evaluation under classic ocamlopt):" >&2
    echo "$hits" >&2
    status=1
  fi
}

ban_hot lib/coproc/coprocessor.ml
ban_hot lib/sim/kernel.ml
ban_hot lib/sim/wake_queue.ml
ban_hot lib/memsim/port.ml
ban_hot lib/memsim/memsys.ml
ban_hot lib/memsim/header_fifo.ml
ban_hot lib/hwsync/sync_block.ml
ban_hot lib/obs/tracer.ml
ban_hot lib/obs/profiler.ml
ban_hot lib/obs/metrics.ml
ban_hot lib/fault/injector.ml
ban_hot lib/heap/heap.ml
ban_hot lib/coproc/counters.ml

# Atomics allowlist. Every Atomic.* site in lib/ is shared mutable state
# the model checker (lib/model) and the dynamic sanitizer cannot see:
# the checker verifies interleavings of sync-block operations, and the
# sanitizer's hooks fire on modeled accesses only, so a stray atomic is
# a synchronization channel outside both nets. The domain-parallel
# engines that legitimately need atomics are enumerated below; anything
# else must either route through the sync block or extend the
# model/sanitizer story first (see docs/MODELCHECK.md).
atomics_allowed='^lib/swgc/|^lib/sim/mailbox\.mli?:|^lib/sim/domain_pool\.ml:|^lib/coproc/bsp\.ml:'
atomics_hits=$(cd "$root" && grep -rn 'Atomic\.' lib --include='*.ml' --include='*.mli' 2>/dev/null \
  | grep -vE "($atomics_allowed)")
if [ -n "$atomics_hits" ]; then
  echo "lint: Atomic.* outside the allowlist (invisible to the model checker and sanitizer):" >&2
  echo "$atomics_hits" >&2
  echo "lint: allowed: lib/swgc/, lib/sim/mailbox.ml{,i}, lib/sim/domain_pool.ml, lib/coproc/bsp.ml" >&2
  echo "lint: route new synchronization through the sync block, or extend lib/model + the sanitizer first (docs/MODELCHECK.md)." >&2
  status=1
fi

exit $status
