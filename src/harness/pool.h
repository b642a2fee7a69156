// Persistent worker pool for the experiment harness.
//
// The Monte-Carlo driver used to spawn and join a fresh std::thread set for
// every sweep point; once the simulation kernel itself became cheap (PR 1's
// reusable SimWorkspace) that orchestration cost started to dominate short
// points. WorkerPool keeps one set of workers alive for the whole process
// (see process_pool()) and hands them *chunked index ranges* claimed from a
// single atomic counter, so load balances itself across chunks of uneven
// cost and across overlapped sweep points — no strided partitioning, no
// per-point thread churn.
//
// Besides chunked loops the pool runs fire-and-forget tasks (submit): the
// serve daemon hands each request group to it as one task, so independent
// groups simulate concurrently on the workers.
//
// Slots. Every background worker owns one fixed *participant slot* for its
// lifetime (1 + its index); every other thread is slot 0. The profiler
// cells and tracer tracks of obs/ are indexed by that slot
// (participant_slot()), so whatever runs on a worker — a chunk, a task,
// or a harness call nested inside either — charges its own cells and
// track. parallel_chunks additionally hands each body a *local* slot in
// [0, max_workers) for per-call scratch arrays.
//
// Determinism contract: the pool guarantees only that every chunk index in
// [0, chunk_count) is executed exactly once, by some participant, with a
// stable slot id. Callers that need bit-identical outputs (the experiment
// harness does) must make each chunk's work depend only on its index — the
// harness derives every run's RNG stream from (seed, run index) and
// accumulates results in run order, so which worker ran which chunk, in
// which order, is unobservable in the output.
#pragma once

#include <functional>

namespace paserta {

struct PoolTelemetry;  // obs/metrics.h

/// A persistent pool of worker threads executing chunked parallel loops and
/// fire-and-forget tasks. One loop runs at a time (concurrent
/// parallel_chunks calls from different threads serialize; nested calls
/// from inside a body or task degrade to inline serial execution).
/// Thread-safe.
class WorkerPool {
 public:
  /// Starts `threads` background workers (>= 0; the pool also uses the
  /// calling thread of parallel_chunks, so `threads == 0` still works).
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Current number of background worker threads.
  int thread_count() const;

  /// Grows the pool to at least `threads` background workers (bounded by
  /// kMaxThreads). Never shrinks.
  void ensure_threads(int threads);

  /// Executes body(chunk, slot) for every chunk in [0, chunk_count)
  /// exactly once. At most `max_workers` participants run concurrently:
  /// the calling thread is always local slot 0, background workers claim
  /// local slots 1..max_workers-1. A local slot is owned by one thread for
  /// the whole call, so callers can keep per-slot scratch state
  /// (workspaces, policies) without locks; shared sinks take
  /// participant_slot() instead. Chunks are claimed from one atomic
  /// counter, in batches of `claim_batch` (>= 1) consecutive chunks per
  /// claim: a participant that claims [c, c + claim_batch) runs those
  /// chunks back to back, so callers with very fine chunks can amortize
  /// the shared counter without changing chunk semantics (coverage, slot
  /// ownership and determinism are unaffected; only claim frequency and
  /// tail balance change). The first exception thrown by a body aborts
  /// remaining chunks and is rethrown here. With max_workers <= 1 (or no
  /// background threads) the loop runs inline, in increasing chunk order,
  /// touching no synchronization.
  ///
  /// When `telemetry` is non-null the pool records completed chunks,
  /// per-chunk wall latency, time inside bodies (busy) and time spent
  /// claiming/waiting (idle; the caller's wait for helpers to drain counts
  /// as the caller's), and charges the same stretches to the profiler's
  /// claim/busy/idle phases on each participant's slot
  /// (participant_slot(), not the local slot). Null telemetry leaves the
  /// claim loop untimed — not even a clock read.
  void parallel_chunks(int chunk_count, int max_workers,
                       const std::function<void(int chunk, int slot)>& body,
                       const PoolTelemetry* telemetry = nullptr,
                       int claim_batch = 1);

  /// Runs the same loop inline on the calling thread (local slot 0,
  /// profiler charges on participant_slot()), with the same telemetry
  /// accounting as parallel_chunks — including idle time for the claim
  /// loop itself (the stretches between bodies), so busy/idle fractions
  /// are directly comparable between the serial and pooled modes. This is
  /// the shared serial path: parallel_chunks degrades to it, and callers
  /// that decide serial-vs-pooled themselves (the experiment harness's
  /// single-threaded bypass) use it directly so serial runs report the
  /// same metrics without instantiating the process pool.
  static void serial_chunks(int chunk_count,
                            const std::function<void(int chunk, int slot)>& body,
                            const PoolTelemetry* telemetry = nullptr);

  /// Queues task(slot) to run once on an idle background worker, on that
  /// worker's fixed slot, and returns at once. Tasks start in submission
  /// order as workers free up (a published parallel_chunks loop is joined
  /// first); inside a task, harness calls run their loops inline. The pool
  /// drains queued tasks before its destructor returns. A task must not
  /// throw (an escaping exception terminates the process). Requires at
  /// least one background worker.
  void submit(std::function<void(int slot)> task);

  /// The calling thread's participant slot: a background worker's fixed
  /// slot (1 + its index in its pool), 0 on every other thread.
  static int participant_slot();

  /// The process-wide pool, created on first use with one background
  /// worker per hardware thread and grown on demand (ensure_threads) when
  /// a caller asks for more participants than it has.
  static WorkerPool& process_pool();

  static constexpr int kMaxThreads = 64;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace paserta
