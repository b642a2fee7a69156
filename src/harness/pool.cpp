#include "harness/pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace paserta {

// Slot 0 plus one fixed slot per background worker, each owning one
// profiler cell and trace track; keep the two constants from drifting
// apart.
static_assert(WorkerPool::kMaxThreads + 1 <= Profiler::kSlots,
              "Profiler::kSlots must cover every pool participant slot");

namespace {

/// Set while a thread executes a parallel_chunks body or a task; a nested
/// call from inside one would deadlock on the run mutex (or wait on the
/// worker running it), so it degrades to inline serial execution instead.
thread_local bool t_inside_body = false;

/// The calling thread's participant slot (WorkerPool::participant_slot):
/// set once by each background worker, 0 on every other thread.
thread_local int t_slot = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accounts one completed chunk, whose body ran over [t0, t1) on
/// participant slot `slot`, into every non-null telemetry sink.
void record_chunk(const PoolTelemetry& tel, int slot, std::int64_t t0,
                  std::int64_t t1) {
  const std::int64_t body_ns = t1 - t0;
  if (tel.chunks) tel.chunks->add();
  if (tel.busy_ns) tel.busy_ns->add(static_cast<std::uint64_t>(body_ns));
  if (tel.chunk_seconds)
    tel.chunk_seconds->record(static_cast<double>(body_ns) * 1e-9);
  if (tel.prof != nullptr) tel.prof->charge(tel.ph_busy, slot, t0, t1);
}

/// Accounts the stretch [from, until) of `slot` spent outside bodies:
/// idle time for the registry, `phase` (claim or idle) for the profiler.
/// Empty stretches are not charged.
void record_gap(const PoolTelemetry& tel, int phase, int slot,
                std::int64_t from, std::int64_t until) {
  if (until <= from) return;
  if (tel.idle_ns) tel.idle_ns->add(static_cast<std::uint64_t>(until - from));
  if (tel.prof != nullptr) tel.prof->charge(phase, slot, from, until);
}

}  // namespace

struct WorkerPool::Impl {
  /// One parallel loop in flight. Participant/active bookkeeping is
  /// guarded by `m`; only the chunk counter and abort flag are lock-free,
  /// because they sit on the claim path of every chunk.
  struct Job {
    const std::function<void(int)>* body = nullptr;
    const PoolTelemetry* telemetry = nullptr;
    int chunks = 0;
    int max_workers = 1;
    // 64-bit: each participant's final failed claim still bumps the
    // counter, so an int counter could wrap past INT_MAX on chunk spaces
    // near the int limit.
    std::atomic<std::int64_t> next_chunk{0};
    std::atomic<bool> abort{false};
    int participants = 1;  // guarded by m (the caller is one)
    int active = 0;        // helpers currently between claim and exit
    std::exception_ptr error;  // first body exception (guarded by m)
  };

  std::mutex m;
  std::condition_variable wake;   // workers: a new job was published
  std::condition_variable done;   // caller: a participant finished
  Job* job = nullptr;             // guarded by m
  std::uint64_t generation = 0;   // guarded by m; bumped per published job
  bool stop = false;              // guarded by m
  std::vector<std::thread> threads;  // guarded by spawn_m
  std::mutex spawn_m;
  std::atomic<int> thread_count{0};
  std::mutex run_m;  // serializes parallel loops
  std::deque<std::function<void(int)>> tasks;  // guarded by m

  /// The claim loop of one participant, whose telemetry goes to its
  /// participant slot. With telemetry, time inside a body is busy and
  /// everything else between entering and leaving the loop (claims, the
  /// final failed claim) is idle: one time mark splits the loop into
  /// stretches, and each is charged once to the registry counters and the
  /// profiler alike. With a profiler the stretch up to each claim is its
  /// own pool.claim stretch (counter contention vs genuine waiting), paid
  /// for by one extra clock read per claim. Without telemetry the loop
  /// reads no clock.
  void run_chunks(Job& job_ref) {
    const PoolTelemetry* const tel = job_ref.telemetry;
    const int pslot = t_slot;
    const int ph_idle = tel != nullptr ? tel->ph_idle : -1;
    const bool split_claims = tel != nullptr && tel->prof != nullptr;
    std::int64_t mark = tel != nullptr ? now_ns() : 0;  // last charged end
    // Charges [mark, now) to `phase` and moves the mark; untimed, a no-op.
    const auto gap = [&](int phase) {
      if (tel == nullptr) return;
      const std::int64_t now = now_ns();
      record_gap(*tel, phase, pslot, mark, now);
      mark = now;
    };
    for (;;) {
      const std::int64_t c =
          job_ref.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (split_claims) gap(tel->ph_claim);
      if (c >= job_ref.chunks) break;
      gap(ph_idle);
      if (job_ref.abort.load(std::memory_order_relaxed)) return;
      const std::int64_t t0 = mark;  // the body's start when timed
      t_inside_body = true;
      try {
        (*job_ref.body)(static_cast<int>(c));
        t_inside_body = false;
      } catch (...) {
        t_inside_body = false;
        if (tel != nullptr) record_chunk(*tel, pslot, t0, now_ns());
        std::lock_guard<std::mutex> lock(m);
        if (!job_ref.error) job_ref.error = std::current_exception();
        job_ref.abort.store(true, std::memory_order_relaxed);
        return;
      }
      if (tel != nullptr) {
        mark = now_ns();
        record_chunk(*tel, pslot, t0, mark);
      }
    }
    gap(ph_idle);
  }

  void worker_main(int slot) {
    t_slot = slot;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
      wake.wait(lock, [&] {
        return stop || generation != seen || !tasks.empty();
      });
      if (generation != seen) {
        seen = generation;
        Job* j = job;
        // Job pointer reads, admissions and the active count all happen
        // under `m`, so a job cleared by the caller can never be entered
        // late and the caller can never observe active == 0 while a
        // helper is between its admission and its exit.
        if (j != nullptr && j->participants < j->max_workers) {
          ++j->participants;
          ++j->active;
          lock.unlock();
          run_chunks(*j);
          lock.lock();
          if (--j->active == 0) done.notify_all();
          continue;
        }
      }
      if (!tasks.empty()) {
        std::function<void(int)> task = std::move(tasks.front());
        tasks.pop_front();
        lock.unlock();
        t_inside_body = true;
        try {
          task(slot);
        } catch (...) {
          std::terminate();  // tasks must not throw (pool.h)
        }
        t_inside_body = false;
        task = nullptr;  // release the task's captures off the lock
        lock.lock();
        continue;
      }
      if (stop) return;  // only once the task queue is drained
    }
  }

  void spawn(int target) {
    std::lock_guard<std::mutex> lock(spawn_m);
    target = std::min(target, WorkerPool::kMaxThreads);
    while (static_cast<int>(threads.size()) < target) {
      const int slot = static_cast<int>(threads.size()) + 1;
      threads.emplace_back([this, slot] { worker_main(slot); });
      thread_count.store(static_cast<int>(threads.size()),
                         std::memory_order_relaxed);
    }
  }
};

WorkerPool::WorkerPool(int threads) : impl_(new Impl) {
  PASERTA_REQUIRE(threads >= 0, "worker count must be non-negative");
  impl_->spawn(threads);
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

int WorkerPool::thread_count() const {
  return impl_->thread_count.load(std::memory_order_relaxed);
}

void WorkerPool::ensure_threads(int threads) { impl_->spawn(threads); }

void WorkerPool::parallel_chunks(int chunk_count, int max_workers,
                                 const std::function<void(int chunk)>& body,
                                 const PoolTelemetry* telemetry) {
  PASERTA_REQUIRE(chunk_count >= 0, "chunk count must be non-negative");
  if (chunk_count == 0) return;
  max_workers = std::clamp(max_workers, 1, chunk_count);

  const int helpers = std::min(max_workers - 1, thread_count());
  if (helpers <= 0 || t_inside_body) {
    // Serial path: no pool involvement, chunks in increasing order. Also
    // the nested-call fallback (a body starting its own loop).
    serial_chunks(chunk_count, body, telemetry);
    return;
  }

  std::lock_guard<std::mutex> run_lock(impl_->run_m);
  Impl::Job job;
  job.body = &body;
  job.telemetry = telemetry;
  job.chunks = chunk_count;
  job.max_workers = max_workers;
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->job = &job;
    ++impl_->generation;
  }
  impl_->wake.notify_all();

  impl_->run_chunks(job);  // the caller is a participant too

  const std::int64_t wait_start = telemetry != nullptr ? now_ns() : 0;
  {
    // All chunks have been handed out (or the job aborted), so any late
    // worker runs zero body calls; wait for in-flight participants only.
    std::unique_lock<std::mutex> lock(impl_->m);
    impl_->done.wait(lock, [&] { return job.active == 0; });
    impl_->job = nullptr;
  }
  // The caller's wait for helpers to drain is its own idle time.
  if (telemetry != nullptr)
    record_gap(*telemetry, telemetry->ph_idle, t_slot, wait_start, now_ns());
  if (job.error) std::rethrow_exception(job.error);
}

void WorkerPool::serial_chunks(int chunk_count,
                               const std::function<void(int chunk)>& body,
                               const PoolTelemetry* telemetry) {
  PASERTA_REQUIRE(chunk_count >= 0, "chunk count must be non-negative");
  const bool was_inside = t_inside_body;
  t_inside_body = true;
  try {
    // The same accounting as run_chunks: time inside bodies is busy,
    // everything else in the loop (the serial stand-in for claims,
    // including the trailing exit) is idle, so per-slot busy/idle
    // fractions compare 1:1 between the serial and pooled modes. Serial
    // mode has no claim counter, so the whole between-body stretch is the
    // profiler's idle phase. Without telemetry no clock is read.
    const PoolTelemetry* const tel = telemetry;
    const int pslot = t_slot;
    std::int64_t mark = tel != nullptr ? now_ns() : 0;
    for (int c = 0; c < chunk_count; ++c) {
      const std::int64_t t0 = tel != nullptr ? now_ns() : 0;
      if (tel != nullptr) record_gap(*tel, tel->ph_idle, pslot, mark, t0);
      body(c);
      if (tel != nullptr) {
        mark = now_ns();
        record_chunk(*tel, pslot, t0, mark);
      }
    }
    if (tel != nullptr) record_gap(*tel, tel->ph_idle, pslot, mark, now_ns());
  } catch (...) {
    t_inside_body = was_inside;
    throw;
  }
  t_inside_body = was_inside;
}

void WorkerPool::submit(std::function<void(int slot)> task) {
  PASERTA_REQUIRE(thread_count() > 0, "a task needs a background worker");
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->tasks.push_back(std::move(task));
  }
  impl_->wake.notify_one();
}

int WorkerPool::participant_slot() { return t_slot; }

WorkerPool& WorkerPool::process_pool() {
  static WorkerPool pool(std::max(
      1, static_cast<int>(std::thread::hardware_concurrency())));
  return pool;
}

}  // namespace paserta
