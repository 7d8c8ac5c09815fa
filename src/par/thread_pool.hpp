// Deterministic shard execution for campaign phases.
//
// The campaign layer splits its work list into *shards* keyed by simulation
// structure (one Netalyzr shard per ISP, one ping shard per root routing
// subtree) and hands them to run_shards(). The contract that makes an
// N-thread campaign bit-identical to the 1-thread one:
//
//  * The shard decomposition never depends on the worker count — callers
//    shard by topology, not by N.
//  * Shards are claimed dynamically from a shared work queue (one atomic
//    fetch_add per shard, the classic self-scheduling loop), so a slow
//    shard no longer stalls the fixed round-robin lane it used to be
//    pinned to. Which worker runs a shard is a scheduling accident — and
//    is allowed to be, because everything a shard computes is a function
//    of the *shard id* alone:
//  * Each shard derives its own RNG substream (sim::Rng::fork(seed, shard))
//    and runs under its own virtual clock (sim::ThreadClockScope), so no
//    shard observes another's randomness or time.
//  * Reduction is ordered: callers merge per-shard results in ascending
//    shard order after the barrier. Stealing therefore changes wall-clock
//    only, never a byte of output.
//  * Workers come from a process-wide persistent pool (WorkerPool) that is
//    spawned once and parked between campaigns; a run_shards call wakes
//    `workers - 1` pool threads and the calling thread works the queue
//    alongside them. Pool thread w permanently owns obs thread slot w + 1
//    (obs::ThreadSlotScope); the caller keeps its own slot (0 on the main
//    thread), so metric cells stay single-writer and merge exactly.
//  * run_shards() is a barrier: all shards finish before it returns.
//  * Shard bodies do not throw. par only runs shards; what a failed shard
//    means (retry, quarantine) is decided by super::ShardSupervisor, which
//    catches every failure inside the body it hands to run_shards().
//
// With one worker (or one shard) everything runs inline on the calling
// thread — same sharded code path, no pool interaction — so the worker
// count only changes wall-clock time, never results.
#pragma once

#include <cstddef>
#include <functional>

namespace cgn::par {

/// Worker count from the CGN_THREADS environment variable, clamped to
/// [1, obs::kMaxThreadSlots - 1]; 1 (serial) when unset. The value must be
/// a plain decimal number: malformed input (trailing garbage like "4x",
/// signs, empty digits) is *rejected* — the campaign runs serial and a
/// one-time warning is printed, rather than half-parsing the prefix.
/// Clamping an oversized value is also logged once.
[[nodiscard]] std::size_t configured_threads();

/// Runs `shard_fn(shard)` for every shard in [0, shard_count) across
/// `threads` workers (0 -> configured_threads()) via the self-scheduling
/// queue described above, and blocks until all shards complete. With one
/// worker (or one shard, or when called from inside a running shard body
/// — nested fan-outs never touch the busy pool) everything runs inline
/// on the calling thread — same code path, no threads woken.
/// Precondition: shard_fn does not throw. A body that does terminates the
/// process (std::terminate) on the thread that ran it. shard_fn must not
/// touch state shared with other shards unless that state is internally
/// synchronized.
void run_shards(std::size_t shard_count,
                const std::function<void(std::size_t)>& shard_fn,
                std::size_t threads = 0);

/// Introspection for tests and diagnostics: how many persistent pool
/// threads are currently spawned. Grows on demand up to
/// obs::kMaxThreadSlots - 1 and never shrinks; two campaigns at the same
/// worker count reuse the same threads instead of paying create/join per
/// campaign.
[[nodiscard]] std::size_t pool_thread_count();

}  // namespace cgn::par
