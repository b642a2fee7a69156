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
// lifetime (1 + its index); every other thread is slot 0. It is the one
// slot index: the profiler cells and tracer tracks of obs/ and the
// harness's per-call scratch are indexed by it (participant_slot()), so
// whatever runs on a worker — a chunk, a task, or a harness call nested
// inside either — uses its own cells, track and scratch.
//
// Determinism contract: the pool guarantees only that every chunk index in
// [0, chunk_count) is executed exactly once, by some participant. Callers
// that need bit-identical outputs (the experiment harness does) must make
// each chunk's work depend only on its index — the harness derives every
// run's RNG stream from (seed, run index) and accumulates results in run
// order, so which worker ran which chunk, in which order, is unobservable
// in the output.
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

  /// Executes body(chunk) for every chunk in [0, chunk_count) exactly
  /// once. At most `max_workers` participants run concurrently, each on
  /// its participant_slot(): the calling thread and up to max_workers - 1
  /// background workers. A worker starts loops only inside a body or
  /// task, where they run inline, so no two participants of a call share
  /// a slot and callers can keep per-slot scratch state (workspaces,
  /// samplers) without locks. Each claim takes one chunk from one atomic
  /// counter.
  /// The first exception thrown by a body aborts remaining chunks and is
  /// rethrown here. With max_workers <= 1 (or no background threads) the
  /// loop runs inline, in increasing chunk order, touching no
  /// synchronization.
  ///
  /// When `telemetry` is non-null the pool records completed chunks,
  /// per-chunk wall latency, time inside bodies (busy) and time spent
  /// claiming/waiting (idle; the caller's wait for helpers to drain counts
  /// as the caller's), and charges the same stretches to the profiler's
  /// claim/busy/idle phases on each participant's slot. Null telemetry
  /// leaves the claim loop untimed — not even a clock read.
  void parallel_chunks(int chunk_count, int max_workers,
                       const std::function<void(int chunk)>& body,
                       const PoolTelemetry* telemetry = nullptr);

  /// Runs the same loop inline on the calling thread (profiler charges on
  /// its participant_slot()), with the same telemetry accounting as
  /// parallel_chunks — including idle time for the claim loop itself (the
  /// stretches between bodies), so busy/idle fractions are directly
  /// comparable between the serial and pooled modes. This is the shared
  /// serial path: parallel_chunks degrades to it, and callers that decide
  /// serial-vs-pooled themselves (the experiment harness's
  /// single-threaded bypass) use it directly so serial runs report the
  /// same metrics without instantiating the process pool.
  static void serial_chunks(int chunk_count,
                            const std::function<void(int chunk)>& body,
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
