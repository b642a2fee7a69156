#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "common/error.h"
#include "core/offline.h"
#include "harness/ordered_fold.h"
#include "harness/pool.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/fingerprint.h"
#include "sim/power_trace.h"
#include "sim/sampler.h"
#include "sim/scenario.h"
#include "sim/verify.h"

namespace paserta {

const SchemeStats& SweepPoint::of(Scheme s) const {
  for (const auto& st : stats)
    if (st.scheme == s) return st;
  PASERTA_REQUIRE(false, "scheme " << to_string(s) << " not in sweep point");
  return stats.front();  // unreachable
}

namespace {

// ---- Scenario-dedup outcome memoization (DESIGN.md §15) -----------------
//
// The simulation consumes no randomness: a drawn scenario fully determines
// every output bit of every scheme. So when two runs draw bit-identical
// scenarios (equal fingerprints — see ScenarioSampler's key-emitting
// draw_into), the second run's complete record — NPM energy, degenerate
// flag, every SchemeOutcome row, every SimCounters cell including the
// integer attribution ledger — is *copied* from the first instead of
// re-simulated. The copy lands in the same run-major stage slot and the
// counters integer-add into the same slot cells, so sums, CSVs, metrics
// and ledgers stay bit-identical at every thread count and chunk size.
//
// Sharding mirrors the staging design of §13: each (point, slot) owns a
// single-threaded OutcomeShard (fingerprint table + id-major record
// arenas) that only its worker touches, so the per-run path takes no lock.
// Slots never share records: each simulates a distinct scenario at most
// once per point, and which slot simulated it never reaches an output bit.

/// Whether `cfg` resolves to dedup for a point whose compiled sampler
/// reports `space` distinct scenarios (0 = unbounded).
bool dedup_for(const ExperimentConfig& cfg, std::uint64_t space) {
  // Replayed runs perform no engine work, so configurations whose purpose
  // is per-run engine work keep the uncached path: verify_traces walks
  // every run's trace and audit re-accounts every run three ways.
  if (cfg.verify_traces || cfg.audit) return false;
  switch (cfg.dedup) {
    case DedupMode::kOff:
      return false;
    case DedupMode::kOn:
      return true;
    case DedupMode::kAuto:
      break;
  }
  // Auto: only when the scenario space is provably finite and no larger
  // than the run count, so replay is guaranteed to pay and the cache is
  // bounded by the space, not the draw count.
  return space != 0 && space <= static_cast<std::uint64_t>(cfg.runs);
}

/// Cached outcome records of one (point, slot). Strictly single-threaded:
/// only the owning slot's worker ever touches it. Records are stored
/// id-major in flat arenas parallel to the fingerprint table's dense ids.
struct OutcomeShard {
  FingerprintTable table;
  std::vector<double> npm_energy;        // one per record
  std::vector<std::uint8_t> degenerate;  // one per record
  std::vector<SchemeOutcome> rows;       // id-major x nschemes
  std::vector<SimCounters> cells;        // id-major x (nschemes+1); metrics
  std::uint64_t hits = 0;    // runs replayed from a cached record
  std::uint64_t misses = 0;  // scenarios this shard actually simulated

  explicit OutcomeShard(std::size_t key_words) : table(key_words) {}

  std::uint32_t record_count() const {
    return static_cast<std::uint32_t>(npm_energy.size());
  }

  /// Approximate heap footprint (flat arenas + table; the ledger vectors
  /// inside cached SimCounters are counted at header size only).
  std::uint64_t bytes() const {
    return table.bytes() + npm_energy.capacity() * sizeof(double) +
           degenerate.capacity() +
           rows.capacity() * sizeof(SchemeOutcome) +
           cells.capacity() * sizeof(SimCounters);
  }
};

/// Replays cached record `id` into stage position `i`: copies the staged
/// values and integer-adds the cached counter cells into the slot cells —
/// exactly the writes re-simulating the scenario would have produced
/// (copies are bitwise, counter adds are integer and order-independent).
void replay_record(const OutcomeShard& sh, std::uint32_t id,
                   ChunkStage& stage, std::size_t i, std::size_t nschemes,
                   SimCounters* slot_cells, std::size_t ncells) {
  stage.npm_energy[i] = sh.npm_energy[id];
  stage.degenerate[i] = sh.degenerate[id];
  std::copy_n(sh.rows.data() + static_cast<std::size_t>(id) * nschemes,
              nschemes, stage.schemes.data() + i * nschemes);
  if (slot_cells != nullptr) {
    const SimCounters* cell =
        sh.cells.data() + static_cast<std::size_t>(id) * ncells;
    for (std::size_t c = 0; c < ncells; ++c) slot_cells[c].add(cell[c]);
  }
}

/// Lanes per simulate_batch call. The value is output-invisible (the
/// batched engine is bit-identical to the scalar one run for run), so it
/// is the measured sweet spot: large enough to amortize the per-call setup
/// (derived tables, devirtualized policy reset) over many runs, small
/// enough that a lane group's state stays cache-resident on one core.
constexpr int kBatchLanes = 32;

/// Observability context of one chunk, filled by the worker that owns the
/// slot. Everything may be null/defaulted: a zero-initialized ChunkObs
/// makes the chunk observation-free.
struct ChunkObs {
  int slot = 0;
  std::int64_t point = -1;  // span arg of the per-engine-call scopes
  /// Slot-owned telemetry cells for this (point, slot): one SimCounters
  /// per scheme in config order, then one for the NPM baseline. Null =
  /// counting off.
  SimCounters* cells = nullptr;
  /// Phase profiler + pre-registered phase ids (run_point_specs resolves
  /// them once per call). Null prof = every scope is a pointer test.
  Profiler* prof = nullptr;
  int ph_sample = -1;    // scenario drawing (nested under pool.busy)
  int ph_simulate = -1;  // engine simulation (nested under pool.busy)
  int ph_batch_setup = -1;  // batch-engine setup (nested under simulate)
  int ph_batch_drain = -1;  // batch-engine drain (nested under simulate)
};

/// Audit cross-check of one finished run (ExperimentConfig::audit): the
/// exported attribution ledger must fold back to the engine's energy split
/// exactly (same fold over the same integers — see attribution_energy),
/// and the power-trace reconstruction must integrate to the same total
/// within 1e-9 relative. `c` must hold this run's counters alone and `r`
/// must carry its trace.
void audit_run(const Application& app, const OfflineResult& off,
               const PowerModel& pm, const Overheads& ovh,
               const SimCounters& c, const SimResult& r, Scheme scheme) {
  const EnergySplit split = attribution_energy(c, pm, ovh);
  PASERTA_REQUIRE(split.busy == r.busy_energy &&
                      split.overhead == r.overhead_energy &&
                      split.idle == r.idle_energy,
                  "audit(" << to_string(scheme)
                           << "): attribution counters rebuild ("
                           << split.busy << ", " << split.overhead << ", "
                           << split.idle << ") J but the engine reported ("
                           << r.busy_energy << ", " << r.overhead_energy
                           << ", " << r.idle_energy << ") J");
  const PowerTrace trace = build_power_trace(app, off, pm, ovh, r);
  const Energy integral = trace.total_energy();
  const Energy total = r.total_energy();
  const double tol = 1e-9 * std::max(1.0, std::abs(total));
  PASERTA_REQUIRE(std::abs(integral - total) <= tol,
                  "audit(" << to_string(scheme)
                           << "): power-trace integral " << integral
                           << " J deviates from engine total " << total
                           << " J");
}

/// One scheme's outcome of one run, from the scheme's engine result and
/// the run's NPM baseline. A degenerate workload (no computation and zero
/// idle power) yields a zero baseline; dividing by it would poison
/// RunningStat with NaN/Inf, so such runs carry no normalized energy.
/// Every field is assigned, so the result may overwrite a reused (stale)
/// staging entry. The pooled path and the unpooled reference both build
/// their outcomes here, which is what makes their staged values
/// bit-identical on bit-identical engine outputs.
SchemeOutcome scheme_outcome(const SimResult& r, double npm_energy,
                             bool degenerate, SimTime deadline) {
  SchemeOutcome so;
  if (!degenerate) {
    so.norm_energy = r.total_energy() / npm_energy;
    so.has_norm = true;
  }
  so.speed_changes = static_cast<double>(r.speed_changes);
  so.finish_frac = static_cast<double>(r.finish_time.ps) /
                   static_cast<double>(deadline.ps);
  const Energy total = r.total_energy();
  if (total > 0.0) {
    so.busy_frac = r.busy_energy / total;
    so.overhead_frac = r.overhead_energy / total;
    so.idle_frac = r.idle_energy / total;
    so.has_fracs = true;
  }
  so.missed = !r.deadline_met;
  return so;
}

/// The unpooled reference's evaluation of one drawn scenario: the NPM
/// baseline, then every scheme, each through the scalar engine with its
/// own policy object, into the caller's output cells. Audit and
/// verify_traces apply as on the pooled path, and verify_traces also keeps
/// the scalar engine's completeness traversal on.
void evaluate_scenario(const Application& app, const ExperimentConfig& cfg,
                       const OfflineResult& off, const PowerModel& pm,
                       SimTime deadline,
                       std::vector<std::unique_ptr<SpeedPolicy>>& policies,
                       SpeedPolicy& npm, SimWorkspace& ws,
                       const RunScenario& sc, double& npm_energy_out,
                       std::uint8_t& degenerate_out, SchemeOutcome* row) {
  SimOptions sim_opt;
  sim_opt.record_trace = cfg.verify_traces || cfg.audit;
  sim_opt.check_completeness = cfg.verify_traces;
  sim_opt.audit = cfg.audit;
  // Audit exports each simulation into a run-local cell, so
  // attribution_energy sees exactly one run's ledger.
  SimCounters audit_cell;
  if (cfg.audit) sim_opt.counters = &audit_cell;

  npm.reset(off, pm);
  const SimResult npm_r =
      simulate(app, off, pm, cfg.overheads, npm, sc, ws, sim_opt);
  if (cfg.audit)
    audit_run(app, off, pm, cfg.overheads, audit_cell, npm_r, Scheme::NPM);
  npm_energy_out = npm_r.total_energy();
  const bool degenerate = !(npm_energy_out > 0.0);
  degenerate_out = degenerate ? 1 : 0;

  for (std::size_t s = 0; s < cfg.schemes.size(); ++s) {
    SpeedPolicy& policy = *policies[s];
    policy.reset(off, pm);
    if (cfg.audit) audit_cell = SimCounters{};
    const SimResult r =
        simulate(app, off, pm, cfg.overheads, policy, sc, ws, sim_opt);
    if (cfg.audit)
      audit_run(app, off, pm, cfg.overheads, audit_cell, r, cfg.schemes[s]);
    SchemeOutcome so = scheme_outcome(r, npm_energy_out, degenerate, deadline);
    if (cfg.verify_traces) so.verify_failed = !verify_trace(app, off, sc, r).ok;
    row[s] = so;
  }
}

/// Worker-local state, one set per pool slot, reused across every chunk
/// (and every point) that slot processes. Lazily constructed by the slot's
/// own thread on its first chunk, so every buffer a worker touches per run
/// is allocated by (and stays local to) that worker. `samplers` holds the
/// slot's private copies of the shared compiled ScenarioSamplers, cloned
/// on first use per distinct application: scenario drawing then reads no
/// memory another thread is also streaming through, which keeps the per-
/// run path free of any cross-thread cache traffic (the shared masters
/// are read-only, but private copies also dodge capacity fights on a
/// busy socket and make the no-shared-state property mechanical).
struct WorkerCtx {
  std::unique_ptr<ChunkStage> stage;  // null until OrderedFold::acquire
  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  // Batched-engine state (sim/batch_engine.h), sized on first use.
  BatchWorkspace batch_ws;
  ScenarioBatch batch_sc;
  std::vector<SimResult> batch_results;
  std::vector<SimCounters> batch_cells;  // audit/dedup: one cell per lane
  RunScenario sc;  // verify_traces: one lane's scenario row, copied out
  // Dedup scratch (DESIGN.md §15), sized on first use.
  std::vector<std::uint64_t> key;  // one fingerprint (op_count words)
  std::vector<std::pair<int, std::uint32_t>> fill;  // (stage idx, record id)

  explicit WorkerCtx(std::size_t sampler_count)
      : samplers(sampler_count), batch_results(kBatchLanes) {}
};

/// Where simulate_lanes writes lane l's record: npm_energy[l],
/// degenerate[l], rows[l * nschemes + s] and, when `cells` is set, the
/// lane's own counters at cells[l * (nschemes + 1) + c] (schemes in config
/// order, NPM last).
struct LaneRecords {
  double* npm_energy = nullptr;
  std::uint8_t* degenerate = nullptr;
  SchemeOutcome* rows = nullptr;
  SimCounters* cells = nullptr;
};

/// Simulates lanes [0, nlanes) of ctx.batch_sc — the NPM baseline first
/// (its energies normalize the others), then every scheme — with one
/// simulate_batch call each, and builds every lane's SchemeOutcome into
/// `out`. Counters go per lane into out.cells when it is set (a dedup
/// record caches exactly one run's worth), else into the slot cells
/// obs.cells. Audit exports each lane into its own cell so
/// attribution_energy sees one run's ledger; verify_traces checks every
/// lane's trace against its scenario. Each simulate_batch call is one
/// harness.simulate charge whose span is named by the scheme and carries
/// the point and `first_run`, the group's first run (-1 = none).
void simulate_lanes(const Application& app, const ExperimentConfig& cfg,
                    const OfflineResult& off, const PowerModel& pm,
                    SimTime deadline, std::size_t nlanes, int first_run,
                    WorkerCtx& ctx, const ChunkObs& obs,
                    const LaneRecords& out) {
  const std::size_t nschemes = cfg.schemes.size();
  const std::size_t ncells = nschemes + 1;
  const bool lane_cells = cfg.audit || out.cells != nullptr;

  // `c` indexes the counter cells: schemes in config order, NPM last.
  const auto run_scheme = [&](Scheme scheme, std::size_t c) {
    ProfScope ps(obs.prof, obs.ph_simulate, obs.slot, to_string(scheme),
                 obs.point, first_run);
    BatchSimOptions bo;
    bo.record_trace = cfg.audit || cfg.verify_traces;
    bo.audit = cfg.audit;
    bo.prof = obs.prof;
    bo.ph_setup = obs.ph_batch_setup;
    bo.ph_drain = obs.ph_batch_drain;
    bo.slot = obs.slot;
    SimCounters* const slot_cell =
        obs.cells != nullptr ? obs.cells + c : nullptr;
    if (lane_cells) {
      ctx.batch_cells.assign(nlanes, SimCounters{});
      bo.lane_cells = ctx.batch_cells.data();
    } else {
      bo.shared_cell = slot_cell;
    }
    simulate_batch(app, off, pm, cfg.overheads, scheme, cfg.policy_options,
                   ctx.batch_sc, nlanes, ctx.batch_ws,
                   ctx.batch_results.data(), bo);
    if (!lane_cells) return;
    for (std::size_t l = 0; l < nlanes; ++l) {
      if (cfg.audit)
        audit_run(app, off, pm, cfg.overheads, ctx.batch_cells[l],
                  ctx.batch_results[l], scheme);
      if (out.cells != nullptr)
        out.cells[l * ncells + c] = ctx.batch_cells[l];
      else if (slot_cell != nullptr)
        slot_cell->add(ctx.batch_cells[l]);
    }
  };

  run_scheme(Scheme::NPM, nschemes);
  for (std::size_t l = 0; l < nlanes; ++l) {
    const double npm_energy = ctx.batch_results[l].total_energy();
    out.npm_energy[l] = npm_energy;
    out.degenerate[l] = !(npm_energy > 0.0) ? 1 : 0;
  }
  const std::size_t nodes = ctx.batch_sc.nodes();
  for (std::size_t s = 0; s < nschemes; ++s) {
    run_scheme(cfg.schemes[s], s);
    for (std::size_t l = 0; l < nlanes; ++l) {
      const SimResult& r = ctx.batch_results[l];
      SchemeOutcome so = scheme_outcome(r, out.npm_energy[l],
                                        out.degenerate[l] != 0, deadline);
      if (cfg.verify_traces) {
        const SimTime* actual = ctx.batch_sc.lane_actual(l);
        const int* choice = ctx.batch_sc.lane_choice(l);
        ctx.sc.actual.assign(actual, actual + nodes);
        ctx.sc.or_choice.assign(choice, choice + nodes);
        so.verify_failed = !verify_trace(app, off, ctx.sc, r).ok;
      }
      out.rows[l * nschemes + s] = so;
    }
  }
}

/// Evaluates runs [first, first + count) of one point into ctx.stage. Each
/// run is drawn from its own seed-derived stream into the next free lane
/// of ctx.batch_sc, and every full lane group (and the last, partial one)
/// is simulated by simulate_lanes straight into the stage rows.
///
/// With a dedup `shard` (DESIGN.md §15) each draw also emits its
/// fingerprint, and only a first encounter keeps its lane; every run of
/// the group is then replayed from the shard once the group's records
/// exist. Replay writes exactly the stage values and counter sums that
/// simulating the run would have.
void evaluate_chunk(const Application& app, const ExperimentConfig& cfg,
                    const OfflineResult& off, const PowerModel& pm,
                    SimTime deadline, const ScenarioSampler& sampler,
                    int first, int count, WorkerCtx& ctx, const ChunkObs& obs,
                    OutcomeShard* shard) {
  const std::size_t nschemes = cfg.schemes.size();
  const std::size_t ncells = nschemes + 1;
  const bool metrics = obs.cells != nullptr;
  ChunkStage& stage = *ctx.stage;
  ctx.batch_sc.ensure(static_cast<std::size_t>(std::min(kBatchLanes, count)),
                      app.graph.size());
  if (shard != nullptr) ctx.key.resize(sampler.op_count());
  int k = 0;    // next run of the chunk to draw
  int cur = 0;  // lanes taken in the open group

  while (k < count) {
    {
      // Fill the open group. harness.sample covers the draws and, on a
      // dedup point, their fingerprint lookups.
      ProfScope ps(obs.prof, obs.ph_sample, obs.slot);
      for (; k < count && cur < kBatchLanes; ++k) {
        Rng run_rng(
            Rng::stream_seed(cfg.seed, static_cast<std::uint64_t>(first + k)));
        const auto lane = static_cast<std::size_t>(cur);
        if (shard == nullptr) {
          sampler.draw_into(run_rng, ctx.batch_sc, lane);
          ++cur;
          continue;
        }
        sampler.draw_into(run_rng, ctx.batch_sc, lane, ctx.key.data());
        bool inserted = false;
        const std::uint32_t id = shard->table.intern(ctx.key.data(), inserted);
        if (inserted)
          ++cur;  // lane `cur` holds this scenario until the group runs
        else
          ++shard->hits;
        ctx.fill.emplace_back(k, id);
      }
    }

    if (shard == nullptr) {
      const auto i = static_cast<std::size_t>(k - cur);
      simulate_lanes(app, cfg, off, pm, deadline,
                     static_cast<std::size_t>(cur), first + k - cur, ctx, obs,
                     {stage.npm_energy.data() + i, stage.degenerate.data() + i,
                      stage.schemes.data() + i * nschemes, nullptr});
      cur = 0;
      continue;
    }
    if (cur > 0) {
      // Lane l's record id is record_count() + l: intern assigned the
      // group's ids densely in lane order.
      const auto nlanes = static_cast<std::size_t>(cur);
      const std::size_t base = shard->record_count();
      shard->npm_energy.resize(base + nlanes);
      shard->degenerate.resize(base + nlanes);
      shard->rows.resize((base + nlanes) * nschemes);
      if (metrics) shard->cells.resize((base + nlanes) * ncells);
      // A dedup group's lanes are not consecutive runs, so its spans carry
      // no first-run arg.
      simulate_lanes(app, cfg, off, pm, deadline, nlanes, -1, ctx, obs,
                     {shard->npm_energy.data() + base,
                      shard->degenerate.data() + base,
                      shard->rows.data() + base * nschemes,
                      metrics ? shard->cells.data() + base * ncells
                              : nullptr});
      shard->misses += nlanes;
      cur = 0;
    }
    for (const auto& [idx, id] : ctx.fill)
      replay_record(*shard, id, stage, static_cast<std::size_t>(idx),
                    nschemes, obs.cells, ncells);
    ctx.fill.clear();
  }
}

/// One prepared sweep point: the (application, offline result, deadline)
/// triple the Monte-Carlo loop needs. Pointees must outlive the call.
struct PointSpec {
  const Application* app = nullptr;
  const OfflineResult* off = nullptr;
  SimTime deadline{};
  double x = 0.0;
};

int chunk_size_for(const ExperimentConfig& cfg, int workers) {
  if (cfg.chunk_runs > 0) return cfg.chunk_runs;
  // Auto: batch enough runs per claim that the shared counter and the
  // point's fold lock are touched O(workers) times per point, not O(runs)
  // — about 8 chunks per worker per point. Floored at 16 so short points
  // still balance, capped so progress ticks and tail imbalance stay
  // bounded. Any value is output-identical; this is purely a scheduling
  // knob.
  const std::int64_t target = static_cast<std::int64_t>(cfg.runs) /
                              (static_cast<std::int64_t>(workers) * 8);
  return static_cast<int>(std::clamp<std::int64_t>(target, 16, 2048));
}

/// Consecutive chunks per atomic claim (WorkerPool claim_batch): when a
/// caller forces very fine chunks (chunk_runs=1 makes one chunk per run),
/// claiming them one by one would put the shared counter back on the
/// per-run path; batching restores O(threads) claims without changing
/// chunk semantics. With auto-sized chunks this stays 1.
int claim_batch_for(std::int64_t total_chunks, int max_workers) {
  const std::int64_t target =
      total_chunks / (static_cast<std::int64_t>(std::max(1, max_workers)) * 32);
  return static_cast<int>(std::clamp<std::int64_t>(target, 1, 64));
}

void validate_config(const ExperimentConfig& cfg) {
  PASERTA_REQUIRE(cfg.runs >= 1, "need at least one run");
  PASERTA_REQUIRE(cfg.threads >= 1, "need at least one worker thread");
  PASERTA_REQUIRE(cfg.chunk_runs >= 0, "chunk_runs must be non-negative");
}

/// Latency buckets of the pool chunk histogram: ~log-spaced 10 us .. 10 s.
constexpr double kChunkSecondsBounds[] = {1e-5, 3e-5, 1e-4, 3e-4, 1e-3,
                                          3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
                                          1.0,  3.0,  10.0};

/// The registry `cfg` collects into; null with collect_metrics off.
MetricsRegistry* metrics_registry(const ExperimentConfig& cfg) {
  if (!cfg.collect_metrics) return nullptr;
  return cfg.registry != nullptr ? cfg.registry : &MetricsRegistry::global();
}

/// The registry handles of the pool telemetry and the dedup totals: each
/// set is resolved once per registry (MetricsRegistry::handles) when a
/// call first writes it, so every name appears exactly when it did with
/// per-call lookups.
struct PoolHandles final : MetricHandles {
  explicit PoolHandles(MetricsRegistry& reg)
      : chunks(reg.counter("pool.chunks_completed")),
        chunk_seconds(reg.histogram("pool.chunk_seconds", kChunkSecondsBounds)),
        busy_ns(reg.counter("pool.busy_ns")),
        idle_ns(reg.counter("pool.idle_ns")) {}
  Counter& chunks;
  Histogram& chunk_seconds;
  Counter& busy_ns;
  Counter& idle_ns;
};

struct DedupHandles final : MetricHandles {
  explicit DedupHandles(MetricsRegistry& reg)
      : hits(reg.counter("engine.dedup.hits")),
        misses(reg.counter("engine.dedup.misses")),
        bytes(reg.counter("engine.dedup.bytes")) {}
  Counter& hits;
  Counter& misses;
  Counter& bytes;
};

template <class T>
T& handles_of(MetricsRegistry& reg, const char* key) {
  return reg.handles<T>(key, [&] { return std::make_unique<T>(reg); });
}

/// A point's header fields and empty accumulators, one SchemeStats per
/// configured scheme; the runs are folded in afterwards.
SweepPoint point_header(const ExperimentConfig& cfg, const PointSpec& spec) {
  SweepPoint point;
  point.x = spec.x;
  point.deadline = spec.deadline;
  point.worst_makespan = spec.off->worst_makespan();
  point.stats.resize(cfg.schemes.size());
  for (std::size_t s = 0; s < cfg.schemes.size(); ++s)
    point.stats[s].scheme = cfg.schemes[s];
  return point;
}

/// The shared Monte-Carlo loop: evaluates every (point, run) pair of
/// `specs` by claiming chunked run ranges from the worker pool. The flat
/// chunk space spans all points, point-interleaved: flat chunk c is chunk
/// c / P of point c % P (P points), so workers claiming consecutive chunks
/// evaluate different points, and each usually extends its own point's
/// folded prefix and folds the chunk it just evaluated (DESIGN.md §13).
std::vector<SweepPoint> run_point_specs(std::span<const PointSpec> specs,
                                        const ExperimentConfig& cfg) {
  validate_config(cfg);
  for (const PointSpec& spec : specs)
    PASERTA_REQUIRE(spec.deadline > SimTime::zero(),
                    "deadline must be positive");
  if (specs.empty()) return {};

  const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
  const int runs = cfg.runs;
  // The participants this call can use: the pool runs the caller plus at
  // most WorkerPool::kMaxThreads workers. The slot arrays below and the
  // chunk size follow this count, not the raw setting, so a huge `threads`
  // allocates nothing that no worker could use.
  const int workers = std::min(cfg.threads, WorkerPool::kMaxThreads + 1);
  const int chunk = chunk_size_for(cfg, workers);
  // The flat chunk space spans all points, so its size is the *product*
  // of two int-ranged quantities: do the arithmetic in 64 bits and reject
  // configurations whose chunk space does not fit the pool's int chunk
  // indices — before any per-run storage is allocated. (runs + chunk - 1
  // alone can overflow int for runs near INT_MAX.)
  const std::int64_t chunks_per_point64 =
      (static_cast<std::int64_t>(runs) + chunk - 1) / chunk;
  const std::int64_t total_chunks64 =
      chunks_per_point64 * static_cast<std::int64_t>(specs.size());
  PASERTA_REQUIRE(
      total_chunks64 <= std::numeric_limits<int>::max(),
      "chunk space overflows int: " << specs.size() << " points x "
                                    << chunks_per_point64
                                    << " chunks/point (runs=" << runs
                                    << ", chunk=" << chunk
                                    << ") — raise chunk_runs or split the "
                                       "sweep");
  const int total_chunks = static_cast<int>(total_chunks64);
  const int npoints = static_cast<int>(specs.size());
  const int max_workers = std::min(workers, total_chunks);
  const int claim_batch = claim_batch_for(total_chunks64, max_workers);

  // --- Observability. Everything in this block is write-only for the
  // simulation (see the determinism contract in obs/metrics.h): the
  // workers below behave identically whether it is active or not.
  // The calling thread's participant slot: the profiler cell and tracer
  // track of everything this call charges outside the pool loop (slot 0
  // unless the call runs inside a pool task or body).
  const int gslot = WorkerPool::participant_slot();
  MetricsRegistry* const reg = metrics_registry(cfg);
  ChunkObs obs_proto;
  PoolTelemetry tel;
  const PoolTelemetry* telp = nullptr;
  if (reg != nullptr) {
    PoolHandles& h = handles_of<PoolHandles>(*reg, "harness.pool");
    tel.chunks = &h.chunks;
    tel.chunk_seconds = &h.chunk_seconds;
    tel.busy_ns = &h.busy_ns;
    tel.idle_ns = &h.idle_ns;
  }
  // Phase profiler: resolve every phase id once, before the workers start
  // (the hot paths then index by id). The pool.* phases are top-level —
  // together with harness.setup/compile/finalize they tile this call's
  // wall time; the harness.* run and fold phases and batch.* are nested
  // inside pool.busy. This call's chunks register against pool.busy,
  // which the pool charges once per chunk: that is the profiler's
  // progress view.
  Profiler* const prof = cfg.prof;
  int ph_setup = -1, ph_compile = -1, ph_fold = -1, ph_finalize = -1;
  if (prof != nullptr) {
    tel.prof = prof;
    tel.ph_claim = prof->phase("pool.claim", /*top_level=*/true);
    tel.ph_busy = prof->phase("pool.busy", /*top_level=*/true);
    tel.ph_idle = prof->phase("pool.idle", /*top_level=*/true);
    ph_setup = prof->phase("harness.setup", /*top_level=*/true);
    obs_proto.prof = prof;
    obs_proto.ph_sample = prof->phase("harness.sample");
    obs_proto.ph_simulate = prof->phase("harness.simulate");
    ph_fold = prof->phase("harness.fold");
    obs_proto.ph_batch_setup = prof->phase("batch.setup");
    obs_proto.ph_batch_drain = prof->phase("batch.drain");
    ph_compile = prof->phase("harness.compile", /*top_level=*/true);
    ph_finalize = prof->phase("harness.finalize", /*top_level=*/true);
    prof->expect(tel.ph_busy, static_cast<std::uint64_t>(total_chunks),
                 gslot);
  }
  if (reg != nullptr || prof != nullptr) telp = &tel;

  // Everything between here and the pool run that is not sampler
  // compilation is accumulator, counter-cell and dedup plumbing; charge it
  // as harness.setup (two scope entries, split around the compile) so the
  // top-level phases keep tiling the call.
  auto setup_scope = std::make_optional<ProfScope>(prof, ph_setup, gslot);

  // Engine-counter cells, one SimCounters row (schemes + NPM) per
  // (point, slot): each worker accumulates into its own slot's row without
  // synchronization, and the rows are summed in fixed slot order after the
  // join, so the totals are thread-count independent.
  const std::size_t nslots =
      static_cast<std::size_t>(std::max(1, max_workers));
  const std::size_t nschemes = cfg.schemes.size();
  const std::size_t ncells = nschemes + 1;  // + NPM baseline
  std::vector<SimCounters> cells(
      cfg.collect_metrics ? specs.size() * nslots * ncells : 0);

  // Each point's accumulators, fed chunk by chunk in run order as the
  // workers complete them (DESIGN.md §13): nothing per run is stored.
  std::vector<SweepPoint> headers;
  headers.reserve(specs.size());
  for (const PointSpec& spec : specs)
    headers.push_back(point_header(cfg, spec));
  OrderedFold fold(std::move(headers), runs, chunk);

  // One compiled sampler per distinct application: load-sweep points share
  // one graph, so a 10-point sweep compiles exactly one. Compiled up front
  // on the driving thread; workers clone their own private copies from
  // these masters (WorkerCtx::samplers) instead of reading them shared.
  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  std::vector<const Application*> sampler_apps;
  std::vector<std::size_t> spec_sampler_idx(specs.size());
  {
    setup_scope.reset();  // close the setup stretch around the compile
    ProfScope ps(prof, ph_compile, gslot);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::size_t j = 0;
      while (j < sampler_apps.size() && sampler_apps[j] != specs[i].app) ++j;
      if (j == sampler_apps.size()) {
        sampler_apps.push_back(specs[i].app);
        samplers.push_back(
            std::make_unique<ScenarioSampler>(specs[i].app->graph));
      }
      spec_sampler_idx[i] = j;
    }
  }
  setup_scope.emplace(prof, ph_setup, gslot);  // dedup plumbing + slots

  // Dedup resolution (DESIGN.md §15): the scenario space is a sampler
  // property, so resolve once per distinct application and fan out per
  // spec. When any point dedups, each (point, slot) pair gets a lazily
  // created single-threaded OutcomeShard.
  std::vector<std::uint8_t> spec_dedup(specs.size(), 0);
  bool any_dedup = false;
  {
    std::vector<std::uint8_t> sampler_dedup(samplers.size(), 0);
    for (std::size_t j = 0; j < samplers.size(); ++j)
      sampler_dedup[j] = dedup_for(cfg, samplers[j]->scenario_space()) ? 1 : 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      spec_dedup[i] = sampler_dedup[spec_sampler_idx[i]];
      any_dedup = any_dedup || spec_dedup[i] != 0;
    }
  }
  std::vector<std::unique_ptr<OutcomeShard>> shards(
      any_dedup ? specs.size() * nslots : 0);

  std::vector<std::unique_ptr<WorkerCtx>> ctxs(nslots);

  const auto body = [&](int c, int slot) {
    auto& ctx = ctxs[static_cast<std::size_t>(slot)];
    if (!ctx) ctx = std::make_unique<WorkerCtx>(samplers.size());
    const int p = c % npoints;
    const int k = c / npoints;  // the chunk's index within its point
    const int first = k * chunk;
    const int count = std::min(runs, first + chunk) - first;
    const PointSpec& spec = specs[static_cast<std::size_t>(p)];
    ChunkObs obs = obs_proto;
    obs.slot = WorkerPool::participant_slot();
    obs.point = p;
    if (!cells.empty())
      obs.cells = cells.data() +
                  (static_cast<std::size_t>(p) * nslots +
                   static_cast<std::size_t>(slot)) *
                      ncells;
    // The slot's private sampler copy for this point's application,
    // cloned from the shared master on first use.
    const std::size_t sidx = spec_sampler_idx[static_cast<std::size_t>(p)];
    if (!ctx->samplers[sidx])
      ctx->samplers[sidx] = std::make_unique<ScenarioSampler>(*samplers[sidx]);
    // Evaluate the whole chunk into the slot's private stage, then hand it
    // to the ordered fold: the per-run loop touches no shared mutable
    // memory at all.
    if (!ctx->stage) ctx->stage = fold.acquire();
    OutcomeShard* shard = nullptr;
    if (spec_dedup[static_cast<std::size_t>(p)] != 0) {
      // The shard is created by the owning slot's own thread, like the
      // rest of its worker-local state.
      auto& owned = shards[static_cast<std::size_t>(p) * nslots +
                           static_cast<std::size_t>(slot)];
      if (!owned)
        owned = std::make_unique<OutcomeShard>(ctx->samplers[sidx]->op_count());
      shard = owned.get();
    }
    evaluate_chunk(*spec.app, cfg, *spec.off, pm, spec.deadline,
                   *ctx->samplers[sidx], first, count, *ctx, obs, shard);
    // Folds this chunk (and any parked successors) when it extends the
    // point's folded prefix, else parks it; a parked stage leaves
    // ctx->stage null and the next chunk acquires another.
    ProfScope ps(prof, ph_fold, obs.slot);
    fold.complete(static_cast<std::size_t>(p), k, ctx->stage);
  };

  setup_scope.reset();
  if (max_workers <= 1) {
    // Fully serial: never touches (or instantiates) the process pool.
    WorkerPool::serial_chunks(total_chunks, body, telp);
  } else {
    WorkerPool& pool = WorkerPool::process_pool();
    pool.ensure_threads(max_workers - 1);
    pool.parallel_chunks(total_chunks, max_workers, body, telp, claim_batch);
  }

  // The runs are already folded; what remains is summing the per-slot
  // counter cells and dedup shards.
  std::vector<SweepPoint> points = fold.release();
  {
    ProfScope ps(prof, ph_finalize, gslot);
    for (std::size_t p = 0; p < specs.size(); ++p) {
      if (cfg.collect_metrics) {
        // Sum the slot cells in fixed slot order (integer adds: the order
        // would not matter anyway, but keep it canonical). The first
        // slot's row is moved in: adding it to empty totals would copy
        // its ledgers.
        PointMetrics& m = points[p].metrics;
        SimCounters* const row0 = cells.data() + p * nslots * ncells;
        m.schemes.assign(std::make_move_iterator(row0),
                         std::make_move_iterator(row0 + nschemes));
        m.npm = std::move(row0[nschemes]);
        for (std::size_t slot = 1; slot < nslots; ++slot) {
          const SimCounters* cell =
              cells.data() + (p * nslots + slot) * ncells;
          for (std::size_t s = 0; s < nschemes; ++s)
            m.schemes[s].add(cell[s]);
          m.npm.add(cell[nschemes]);
        }
      }
      if (spec_dedup[p] != 0) {
        DedupStats& d = points[p].dedup;
        d.enabled = true;
        for (std::size_t slot = 0; slot < nslots; ++slot) {
          const auto& shard = shards[p * nslots + slot];
          if (!shard) continue;
          d.hits += shard->hits;
          d.misses += shard->misses;
          d.bytes += shard->bytes();
        }
      }
    }
  }
  if (reg != nullptr) {
    // Counter flushing is part of wrapping the run up — second entry into
    // the finalize phase, so profile attribution covers the whole tail.
    ProfScope ps(prof, ph_finalize, gslot);
    for (const SweepPoint& pt : points) {
      for (std::size_t s = 0; s < nschemes; ++s) {
        const SimCounters& c = pt.metrics.schemes[s];
        SimCounterHandles::of(
            *reg, std::string("engine.") + to_string(cfg.schemes[s]), c.levels)
            .add(c);
      }
      SimCounterHandles::of(*reg, "engine.NPM", pt.metrics.npm.levels)
          .add(pt.metrics.npm);
    }
    if (any_dedup) {
      std::uint64_t hits = 0, misses = 0, bytes = 0;
      for (const SweepPoint& pt : points) {
        hits += pt.dedup.hits;
        misses += pt.dedup.misses;
        bytes += pt.dedup.bytes;
      }
      DedupHandles& h = handles_of<DedupHandles>(*reg, "harness.dedup");
      h.hits.add(hits);
      h.misses.add(misses);
      h.bytes.add(bytes);
    }
  }
  return points;
}

/// The id of top-level phase `name` on `prof`; -1 (no-op scopes) without
/// a profiler.
int top_phase(Profiler* prof, const char* name) {
  return prof != nullptr ? prof->phase(name, /*top_level=*/true) : -1;
}

}  // namespace

CanonicalOptions canonical_options(const ExperimentConfig& cfg) {
  CanonicalOptions opt;
  opt.cpus = cfg.cpus;
  opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
  opt.heuristic = cfg.heuristic;
  return opt;
}

int resolved_batch_lanes(const ExperimentConfig&) {
  return kBatchLanes;
}

bool resolved_dedup(const ExperimentConfig& config,
                    std::uint64_t scenario_space) {
  return dedup_for(config, scenario_space);
}

SweepPoint run_point(const Application& app, const ExperimentConfig& cfg,
                     SimTime deadline, double x_value,
                     const CanonicalAnalysis* canon) {
  validate_config(cfg);
  PASERTA_REQUIRE(deadline > SimTime::zero(), "deadline must be positive");

  Profiler* const prof = cfg.prof;
  const int ph_analyze = top_phase(prof, "offline.analyze");
  const int ph_apply = top_phase(prof, "offline.apply");
  const int slot = WorkerPool::participant_slot();
  OfflineResult off;
  if (canon != nullptr) {
    const CanonicalOptions want = canonical_options(cfg);
    PASERTA_REQUIRE(canon->valid() && &canon->application() == &app &&
                        canon->cpus() == want.cpus &&
                        canon->overhead_budget() == want.overhead_budget &&
                        canon->heuristic() == want.heuristic,
                    "run_point: the canonical analysis is not this point's "
                    "(application, cpus, overhead budget, heuristic)");
    ProfScope ps(prof, ph_apply, slot);
    off = apply_deadline(*canon, deadline);
  } else {
    OfflineOptions opt;
    opt.cpus = cfg.cpus;
    opt.deadline = deadline;
    opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
    opt.heuristic = cfg.heuristic;
    ProfScope ps(prof, ph_analyze, slot);
    off = analyze_offline(app, opt);
  }

  PointSpec spec;
  spec.app = &app;
  spec.off = &off;
  spec.deadline = deadline;
  spec.x = x_value;
  return run_point_specs({&spec, 1}, cfg).front();
}

SweepPoint run_point_unpooled(const Application& app,
                              const ExperimentConfig& cfg, SimTime deadline,
                              double x_value) {
  validate_config(cfg);
  PASERTA_REQUIRE(deadline > SimTime::zero(), "deadline must be positive");

  const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
  OfflineOptions opt;
  opt.cpus = cfg.cpus;
  opt.deadline = deadline;
  opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
  opt.heuristic = cfg.heuristic;
  const OfflineResult off = analyze_offline(app, opt);

  // The whole point's runs in one run-major stage, folded after the join:
  // the reference keeps the store the pooled path streams away.
  const std::size_t nschemes = cfg.schemes.size();
  ChunkStage outcomes;
  outcomes.ensure(cfg.runs, nschemes);

  auto worker = [&](int first, int step) {
    std::vector<std::unique_ptr<SpeedPolicy>> policies;
    for (Scheme s : cfg.schemes)
      policies.push_back(make_policy(s, cfg.policy_options));
    const std::unique_ptr<SpeedPolicy> npm = make_policy(Scheme::NPM);
    SimWorkspace ws;
    RunScenario sc;
    // The legacy per-run draw_scenario walk and the scalar engine make
    // this the bit-identity reference of both the sampler and the batched
    // engine (tests compare it against the pooled path). Outcomes are
    // written straight into the shared run-major store — the strided,
    // false-sharing-prone layout is part of the pre-pool behaviour this
    // baseline preserves.
    for (int run = first; run < cfg.runs; run += step) {
      const auto r = static_cast<std::size_t>(run);
      Rng run_rng(Rng::stream_seed(cfg.seed, static_cast<std::uint64_t>(run)));
      draw_scenario(app.graph, run_rng, sc);
      evaluate_scenario(app, cfg, off, pm, deadline, policies, *npm, ws, sc,
                        outcomes.npm_energy[r], outcomes.degenerate[r],
                        outcomes.schemes.data() + r * nschemes);
    }
  };

  const int threads = std::min(cfg.threads, cfg.runs);
  if (threads <= 1) {
    worker(0, 1);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t, threads);
    for (auto& th : pool) th.join();
  }

  PointSpec spec;
  spec.app = &app;
  spec.off = &off;
  spec.deadline = deadline;
  spec.x = x_value;
  SweepPoint point = point_header(cfg, spec);
  fold_runs(point, outcomes, cfg.runs);
  return point;
}

std::vector<SweepPoint> sweep_load(const Application& app,
                                   const ExperimentConfig& cfg,
                                   const std::vector<double>& loads) {
  validate_config(cfg);
  // One canonical (round-1) analysis for the whole sweep: only the
  // deadline varies across points, and the deadline enters the offline
  // data solely through the cheap round-2 shift.
  Profiler* const prof = cfg.prof;
  const int slot = WorkerPool::participant_slot();
  CanonicalAnalysis canon;
  {
    ProfScope ps(prof, top_phase(prof, "offline.analyze"), slot);
    canon = analyze_canonical(app, canonical_options(cfg));
  }

  const int ph_apply = top_phase(prof, "offline.apply");
  std::vector<OfflineResult> offs;
  std::vector<PointSpec> specs;
  offs.reserve(loads.size());
  specs.reserve(loads.size());
  for (double load : loads) {
    const SimTime deadline = deadline_at_load(canon.worst_makespan(), load);
    {
      ProfScope ps(prof, ph_apply, slot);
      offs.push_back(apply_deadline(canon, deadline));
    }
    PointSpec spec;
    spec.app = &app;
    spec.off = &offs.back();
    spec.deadline = deadline;
    spec.x = load;
    specs.push_back(spec);
  }

  return run_point_specs(specs, cfg);
}

std::vector<SweepPoint> sweep_alpha(const Application& app,
                                    const ExperimentConfig& cfg, double load,
                                    const std::vector<double>& alphas) {
  validate_config(cfg);
  // The deadline derives from WCETs only, so it is alpha-independent:
  // compute it once, before any ACET redraw.
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  const SimTime deadline = deadline_at_load(w, load);

  // One variant buffer reused across alphas: assign_alpha overwrites every
  // computation node's ACET from its (untouched) WCET, so successive
  // redraws into the same buffer are equivalent to fresh copies. Points
  // therefore run in sequence; their runs still use the worker pool, and
  // each alpha needs its own canonical analysis anyway (ACETs feed the
  // average-case profiles).
  Application variant = app;
  std::vector<SweepPoint> points;
  points.reserve(alphas.size());
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    const double alpha = alphas[i];
    Rng acet_rng(cfg.seed ^ (0x517CC1B727220A95ULL + i));
    assign_alpha(variant.graph, alpha, &acet_rng);
    points.push_back(run_point(variant, cfg, deadline, alpha));
  }
  return points;
}

std::vector<double> sweep_range(double from, double to, double step) {
  PASERTA_REQUIRE(step > 0.0 && from <= to, "invalid sweep range");
  // Integer step index: accumulating `x += step` in floating point drifts
  // across many steps and could emit the endpoint twice when the
  // accumulated value lands within the tolerance just above `to`. The
  // relative tolerance decides whether the endpoint itself sits on the
  // grid (e.g. (1.0 - 0.1) / 0.1 evaluates to 8.999...).
  const double raw = (to - from) / step;
  const auto steps =
      static_cast<std::int64_t>(raw + 1e-9 * std::max(1.0, raw));
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(steps) + 1);
  for (std::int64_t i = 0; i <= steps; ++i)
    xs.push_back(std::min(from + static_cast<double>(i) * step, to));
  return xs;
}

}  // namespace paserta
