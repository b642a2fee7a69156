#include "core/scheduler.h"

#include "common/error.h"
#include "sim/scenario.h"

namespace paserta {

PowerAwareScheduler::PowerAwareScheduler(Application app, const Config& cfg)
    : app_(std::move(app)),
      pm_(cfg.table, cfg.c_ef, cfg.idle_fraction),
      ovh_(cfg.overheads),
      scheme_(cfg.scheme),
      sampler_(app_.graph),
      policy_(make_policy(cfg.scheme)),
      track_npm_(cfg.track_npm_baseline),
      record_trace_(cfg.record_trace),
      collect_metrics_(cfg.collect_metrics),
      audit_(cfg.audit) {
  PASERTA_REQUIRE(cfg.deadline.has_value() != cfg.load.has_value(),
                  "set exactly one of Config::deadline and Config::load");

  OfflineOptions opt;
  opt.cpus = cfg.cpus;
  opt.overhead_budget = ovh_.worst_case_budget(pm_.table());
  if (cfg.deadline) {
    opt.deadline = *cfg.deadline;
  } else {
    PASERTA_REQUIRE(*cfg.load > 0.0 && *cfg.load <= 1.0,
                    "load must be in (0,1], got " << *cfg.load);
    opt.deadline = deadline_at_load(
        canonical_worst_makespan(app_, cfg.cpus, opt.overhead_budget),
        *cfg.load);
  }
  off_ = analyze_offline(app_, opt);
  PASERTA_REQUIRE(off_.feasible(),
                  "infeasible: canonical worst case "
                      << to_string(off_.worst_makespan())
                      << " exceeds the deadline "
                      << to_string(off_.deadline()));
  if (track_npm_) npm_ = make_policy(Scheme::NPM);
}

SimResult PowerAwareScheduler::run_frame(Rng& rng) {
  return run_frame(sampler_.draw(rng));
}

SimResult PowerAwareScheduler::run_frame(const RunScenario& scenario) {
  SimOptions sim_opt;
  sim_opt.record_trace = record_trace_;
  sim_opt.audit = audit_;
  if (collect_metrics_) sim_opt.counters = &summary_.counters;
  policy_->reset(off_, pm_);
  SimResult r = simulate(app_, off_, pm_, ovh_, *policy_, scenario, ws_,
                         sim_opt);

  ++summary_.frames;
  if (!r.deadline_met) ++summary_.deadline_misses;
  summary_.energy_joules.add(r.total_energy());
  summary_.speed_changes.add(static_cast<double>(r.speed_changes));
  summary_.finish_frac.add(static_cast<double>(r.finish_time.ps) /
                           static_cast<double>(off_.deadline().ps));
  if (track_npm_) {
    // The baseline run only feeds the summary, never a trace consumer.
    npm_->reset(off_, pm_);
    SimOptions base_opt;
    base_opt.record_trace = false;
    base_opt.audit = audit_;
    if (collect_metrics_) base_opt.counters = &summary_.npm_counters;
    const SimResult base =
        simulate(app_, off_, pm_, ovh_, *npm_, scenario, ws_, base_opt);
    const Energy base_total = base.total_energy();
    // A zero-energy baseline (degenerate workload) would make the
    // normalized energy NaN/Inf; count the frame instead of poisoning
    // the running statistics.
    if (base_total > 0.0)
      summary_.norm_energy.add(r.total_energy() / base_total);
    else
      ++summary_.degenerate_frames;
  }
  return r;
}

}  // namespace paserta
