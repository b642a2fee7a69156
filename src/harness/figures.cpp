#include "harness/figures.h"

#include <initializer_list>
#include <iterator>
#include <ostream>
#include <tuple>

#include "apps/atr.h"
#include "apps/layered.h"
#include "apps/mpeg.h"
#include "apps/synthetic.h"
#include "common/error.h"
#include "common/significance.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/independent.h"
#include "core/offline.h"
#include "core/oracle.h"
#include "harness/report.h"
#include "sim/engine.h"
#include "sim/sampler.h"

namespace paserta {
namespace {

constexpr std::uint64_t kPaperSeed = 20020818;  // ICPP 2002

FigureDef load_figure(const std::string& id, const LevelTable& table,
                      int cpus, int runs) {
  FigureDef f;
  f.id = id;
  f.caption = "Energy vs load, ATR, " + std::to_string(cpus) + " CPUs, " +
              table.name() + ", alpha=0.9, overhead=5us";
  f.x_name = "load";
  f.config = paper_config(table, cpus, runs);
  f.xs = sweep_range(0.1, 1.0, 0.05);
  return f;
}

FigureDef alpha_figure(const std::string& id, const LevelTable& table,
                       int runs) {
  FigureDef f;
  f.id = id;
  f.caption = "Energy vs alpha, synthetic Fig.3 app, 2 CPUs, " +
              table.name() + ", load=0.9, overhead=5us";
  f.x_name = "alpha";
  f.config = paper_config(table, 2, runs);
  f.xs = sweep_range(0.10, 1.0, 0.05);
  f.fixed_load = 0.9;
  return f;
}

// ------------------------------------------------------------- studies

/// The paper's two platforms, Table 1's then Table 2's.
std::vector<LevelTable> paper_platforms() {
  return {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()};
}

/// The point of `app` at `load` under `cfg`, labelled `x`: one canonical
/// analysis through sweep_load.
SweepPoint point_at(const Application& app, const ExperimentConfig& cfg,
                    double load, double x) {
  SweepPoint p = std::move(sweep_load(app, cfg, {load}).front());
  p.x = x;
  return p;
}

void print_levels(std::ostream& os, const char* title, const LevelTable& lt) {
  os << "# " << title << "\n";
  const PowerModel pm(lt);
  Table t({"level", "f_MHz", "V", "P_watts", "P/Pmax"});
  for (std::size_t i = 0; i < lt.size(); ++i) {
    const Level& l = lt.level(i);
    t.add_row({std::to_string(i),
               Table::num(static_cast<double>(l.freq) / 1e6, 1),
               Table::num(l.volts, 3), Table::num(pm.power(i), 4),
               Table::num(pm.power(i) / pm.max_power(), 4)});
  }
  t.write_csv(os);
  os << "\n";
}

// Reproduces paper Tables 1 and 2: the Transmeta TM5400 and Intel XScale
// voltage/frequency operating points used by every experiment, plus the
// derived power figures of the energy model.
void tables(std::ostream& os, int /*runs*/) {
  print_levels(os, "Table 1: Speed & Voltages of Transmeta TM5400",
               LevelTable::transmeta_tm5400());
  print_levels(os, "Table 2: Speed & Voltages of Intel XScale",
               LevelTable::intel_xscale());
}

/// Prints the registered figures `ids`, each as a "Fig.<n><x>" block.
void print_figures(std::ostream& os, std::initializer_list<const char*> ids,
                   int runs) {
  for (const char* id : ids) {
    const FigureDef f = paper_figure(id, runs);
    print_figure(os, "Fig." + f.id.substr(3),
                 f.caption + ", runs=" + std::to_string(runs), run_figure(f),
                 f.x_name);
  }
}

// Figure 4: normalized energy vs load for ATR on dual-processor systems,
// alpha = 0.9 (measured), overhead = 5 us, on (a) Transmeta TM5400 and
// (b) Intel XScale.
void fig4(std::ostream& os, int runs) {
  print_figures(os, {"fig4a", "fig4b"}, runs);
}

// Figure 5: normalized energy vs load for ATR on 6-processor systems,
// alpha = 0.9, overhead = 5 us. More processors force more synchronization
// idleness, so every dynamic scheme saves less than on 2 CPUs.
void fig5(std::ostream& os, int runs) {
  print_figures(os, {"fig5a", "fig5b"}, runs);
}

// Figure 6: normalized energy vs alpha (ACET/WCET ratio) for the synthetic
// Figure-3 application on dual-processor systems, load = 0.9,
// overhead = 5 us. With load 0.9 on the XScale model, SPM's 900 MHz desire
// rounds up to f_max = 1 GHz, so SPM matches NPM — the paper's §5.2 remark.
void fig6(std::ostream& os, int runs) {
  print_figures(os, {"fig6a", "fig6b"}, runs);
}

// Processor-count study (paper §5 text: 4-processor results are "similar"
// to 2 and 6): ATR at 2/4/6 CPUs on both models, a coarse load sweep.
void procs(std::ostream& os, int runs) {
  const Application atr = apps::build_atr();
  const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8, 1.0};
  for (const LevelTable& table : paper_platforms()) {
    for (int cpus : {2, 4, 6}) {
      print_figure(os, "Procs." + table.name() + "." + std::to_string(cpus),
                   "Energy vs load, ATR, " + std::to_string(cpus) + " CPUs, " +
                       table.name() + ", alpha=0.9, overhead=5us",
                   sweep_load(atr, paper_config(table, cpus, runs), loads),
                   "load");
    }
  }
}

// Parallelism study on layered (TGFF-style) graphs: the paper attributes
// the 6-CPU degradation to "limited parallelism and frequent idleness of
// the processors". Wide layered workloads supply abundant parallelism;
// this study shows the dynamic schemes holding their savings at higher CPU
// counts when the workload can actually feed the processors — isolating
// the paper's explanation.
void layered(std::ostream& os, int runs) {
  const std::tuple<const char*, int, int> shapes[] = {{"narrow", 1, 2},
                                                       {"wide", 6, 8}};
  for (const auto& [name, min_width, max_width] : shapes) {
    apps::LayeredConfig lc;
    lc.layers = 5;
    lc.min_width = min_width;
    lc.max_width = max_width;
    Rng rng(2718);
    const Application app = apps::layered_application(rng, lc, 3, 0.3, name);

    os << "# Layered '" << name << "' (" << app.graph.task_count()
       << " tasks): GSS energy vs CPUs at load 0.6, Transmeta\n";
    Table t({"cpus", "SPM", "GSS", "AS"});
    for (int cpus : {1, 2, 4, 8}) {
      auto cfg = paper_config(LevelTable::transmeta_tm5400(), cpus, runs);
      cfg.schemes = {Scheme::SPM, Scheme::GSS, Scheme::AS};
      const auto points = sweep_load(app, cfg, {0.6});
      t.add_row({std::to_string(cpus),
                 Table::num(points[0].of(Scheme::SPM).norm_energy.mean()),
                 Table::num(points[0].of(Scheme::GSS).norm_energy.mean()),
                 Table::num(points[0].of(Scheme::AS).norm_energy.mean())});
    }
    t.write_csv(os);
    os << "\n";
  }
}

// Ablation: voltage-transition overhead (paper §5 discusses 25-150 us for
// real hardware of the era and assumes 5 us). Sweeps the switch cost and
// shows how the dynamic schemes' savings erode — and why speculation
// (fewer switches) wins at high overhead.
void overhead(std::ostream& os, int runs) {
  const Application syn = apps::build_synthetic();
  for (const LevelTable& table : paper_platforms()) {
    std::vector<SweepPoint> points;
    for (double ovh_us : {0.0, 1.0, 5.0, 25.0, 100.0, 500.0}) {
      auto cfg = paper_config(table, 2, runs);
      cfg.overheads.speed_change_time = SimTime::from_us(ovh_us);
      points.push_back(point_at(syn, cfg, 0.7, ovh_us));
    }
    print_figure(os, "Ablation.overhead." + table.name(),
                 "Energy vs speed-change overhead (us), synthetic, "
                 "2 CPUs, load=0.7",
                 points, "overhead_us");
  }
}

// Ablation: the minimum-speed ratio f_min/f_max (the paper's §6 planned
// experiment). A higher f_min prevents greedy from burning all slack on
// early tasks, which is exactly why GSS stays competitive with the
// speculative schemes.
void minspeed(std::ostream& os, int runs) {
  const Application syn = apps::build_synthetic();
  constexpr Freq kFmax = 1000 * kMHz;
  std::vector<SweepPoint> points;
  for (double ratio : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    const auto fmin = static_cast<Freq>(ratio * static_cast<double>(kFmax));
    const LevelTable table = LevelTable::synthetic(
        "ratio" + std::to_string(ratio), 16, fmin, kFmax,
        0.8 + ratio * 1.0, 1.8);
    points.push_back(point_at(syn, paper_config(table, 2, runs), 0.5, ratio));
  }
  print_figure(os, "Ablation.minspeed",
               "Energy vs f_min/f_max ratio, synthetic, 2 CPUs, "
               "load=0.5, 16 levels",
               points, "fmin_ratio");
}

// Ablation: number of discrete speed levels between f_min and f_max (the
// paper's §6 planned experiment; Chandrakasan et al. showed a few levels
// suffice). Fewer levels also reduce greedy's switch count — the paper's
// second explanation for GSS's surprising competitiveness.
void levels(std::ostream& os, int runs) {
  const Application syn = apps::build_synthetic();
  std::vector<SweepPoint> points;
  for (std::size_t n_levels : {2u, 3u, 5u, 9u, 17u, 33u, 200u}) {
    const LevelTable table =
        LevelTable::synthetic("n" + std::to_string(n_levels), n_levels,
                              200 * kMHz, 1000 * kMHz, 0.9, 1.8);
    points.push_back(point_at(syn, paper_config(table, 2, runs), 0.5,
                              static_cast<double>(n_levels)));
  }
  print_figure(os, "Ablation.levels",
               "Energy vs number of speed levels, synthetic, 2 CPUs, "
               "load=0.5, 200MHz..1GHz",
               points, "n_levels");
}

/// The offline analysis of `app` on `cpus` processors of `table` with the
/// paper's overheads, at `load` of the canonical worst case.
OfflineResult analyze_at_load(const Application& app, int cpus,
                              const LevelTable& table, const Overheads& ovh,
                              double load) {
  OfflineOptions o;
  o.cpus = cpus;
  o.overhead_budget = ovh.worst_case_budget(table);
  o.deadline = deadline_at_load(
      canonical_worst_makespan(app, cpus, o.overhead_budget), load);
  return analyze_offline(app, o);
}

// Oracle-gap study (paper §3.3's clairvoyant intuition, quantified):
// how far each scheme sits above the clairvoyant single-speed optimum,
// per load, on both processor models. A gap of 1.0 means oracle-equal.
void oracle(std::ostream& os, int runs) {
  const Application app = apps::build_synthetic();
  // One sampler for the whole grid (stream-compatible with draw_scenario).
  const ScenarioSampler sampler(app.graph);
  const Scheme schemes[] = {Scheme::SPM, Scheme::GSS, Scheme::SS1,
                            Scheme::SS2, Scheme::AS};

  for (const LevelTable& table : paper_platforms()) {
    const PowerModel pm(table);
    const Overheads ovh = paper_config(table, 2, runs).overheads;

    os << "# Oracle gap (scheme energy / clairvoyant single-speed "
          "energy), synthetic, 2 CPUs, " << table.name() << ", runs="
       << runs << "\n";
    Table t({"load", "SPM", "GSS", "SS1", "SS2", "AS"});
    for (double load : {0.2, 0.4, 0.6, 0.8}) {
      const OfflineResult off = analyze_at_load(app, 2, table, ovh, load);
      Rng master(991);
      std::vector<RunningStat> gap(std::size(schemes));
      for (int r = 0; r < runs; ++r) {
        Rng rng = master.fork();
        const RunScenario sc = sampler.draw(rng);
        const OracleResult best = clairvoyant_oracle(app, off, pm, ovh, sc);
        for (std::size_t s = 0; s < std::size(schemes); ++s) {
          const SimResult res = simulate(app, off, pm, ovh, schemes[s], sc);
          gap[s].add(res.total_energy() / best.energy);
        }
      }
      std::vector<std::string> row{Table::num(load, 2)};
      for (auto& g : gap) row.push_back(Table::num(g.mean()));
      t.add_row(std::move(row));
    }
    t.write_csv(os);
    os << "\n";
  }
}

// Background experiment: the predecessor algorithm of [20] on independent
// task sets — slack sharing (GSS) vs per-processor greedy (GREEDY) vs SPM,
// normalized to NPM, across load. Quantifies what EET-swap sharing buys
// before the AND/OR extension enters the picture.
void independent(std::ostream& os, int runs) {
  constexpr int kCpus = 4;
  constexpr std::size_t kTasks = 24;

  for (const LevelTable& table : paper_platforms()) {
    const PowerModel pm(table);
    const Overheads ovh = paper_config(table, kCpus, runs).overheads;

    os << "# Independent tasks [20]: energy vs load, " << kTasks
       << " tasks, " << kCpus << " CPUs, " << table.name()
       << ", runs=" << runs << "\n";
    Table out({"load", "SPM", "GREEDY", "GSS"});
    for (double load : {0.2, 0.4, 0.6, 0.8, 1.0}) {
      Rng master(31337);
      RunningStat spm, greedy, share;
      for (int r = 0; r < runs; ++r) {
        Rng rng = master.fork();
        const auto set =
            random_independent_set(rng, kTasks, SimTime::from_ms(1),
                                   SimTime::from_ms(10), 0.3, 0.9);
        IndependentTaskSet inflated = set;
        for (auto& t : inflated.tasks) t.wcet += ovh.worst_case_budget(table);
        const auto canon = canonical_independent(inflated, kCpus);
        const SimTime d = deadline_at_load(canon.makespan, load);
        const auto actual = draw_independent_actuals(set, rng);
        const auto energy = [&](IndependentScheme s) {
          return simulate_independent(set, kCpus, d, pm, ovh, s, actual)
              .total_energy();
        };
        const double npm = energy(IndependentScheme::NPM);
        spm.add(energy(IndependentScheme::SPM) / npm);
        greedy.add(energy(IndependentScheme::GreedyNoShare) / npm);
        share.add(energy(IndependentScheme::GreedyShare) / npm);
      }
      out.add_row({Table::num(load, 2), Table::num(spm.mean()),
                   Table::num(greedy.mean()), Table::num(share.mean())});
    }
    out.write_csv(os);
    os << "\n";
  }
}

// Head-to-head scheme comparison with paired statistics: is AS's advantage
// over GSS (and over SS1) statistically real at the paper's run counts?
// Uses per-run energy differences on identical scenarios (paired design)
// and a one-sample t-test against zero.
void significance(std::ostream& os, int runs) {
  const Application app = apps::build_atr();
  // One sampler for all loads/tables: the graph never changes, and
  // draw() is stream-compatible with the per-run draw_scenario walk.
  const ScenarioSampler sampler(app.graph);

  for (const LevelTable& table : paper_platforms()) {
    const PowerModel pm(table);
    const Overheads ovh = paper_config(table, 2, runs).overheads;

    os << "# Paired per-run energy differences (normalized to NPM), "
       << "ATR, 2 CPUs, " << table.name() << ", runs=" << runs << "\n";
    Table t({"load", "pair", "mean_diff", "ci95", "t", "p", "verdict"});
    for (double load : {0.3, 0.5, 0.7, 0.9}) {
      const OfflineResult off = analyze_at_load(app, 2, table, ovh, load);
      RunningStat as_vs_gss, as_vs_ss1;
      for (int r = 0; r < runs; ++r) {
        Rng rng(Rng::stream_seed(1234, static_cast<std::uint64_t>(r)));
        const RunScenario sc = sampler.draw(rng);
        const auto energy = [&](Scheme s) {
          return simulate(app, off, pm, ovh, s, sc).total_energy();
        };
        const double npm = energy(Scheme::NPM);
        const double gss = energy(Scheme::GSS) / npm;
        const double ss1 = energy(Scheme::SS1) / npm;
        const double as = energy(Scheme::AS) / npm;
        as_vs_gss.add(as - gss);
        as_vs_ss1.add(as - ss1);
      }
      for (const auto& [name, stat] :
           {std::pair<const char*, const RunningStat*>{"AS-GSS", &as_vs_gss},
            {"AS-SS1", &as_vs_ss1}}) {
        const TTestResult tt = one_sample_t_test(*stat);
        t.add_row({Table::num(load, 2), name, Table::num(tt.mean_diff, 5),
                   Table::num(tt.ci95_halfwidth, 5), Table::num(tt.t, 2),
                   Table::num(tt.p_value, 6),
                   tt.significant()
                       ? (tt.mean_diff < 0 ? "AS significantly better"
                                           : "AS significantly worse")
                       : "no significant difference"});
      }
    }
    t.write_csv(os);
    os << "\n";
  }
}

// Ablation: idle-power fraction. The paper's §5.1 counter-intuitive shape
// — normalized energy *falling* as load rises at low load — is driven by
// idle consumption (5 % of P_max in the paper). Sweeping the fraction
// shows the dip appearing/disappearing.
void idle(std::ostream& os, int runs) {
  const Application atr = apps::build_atr();
  const std::vector<double> loads = sweep_range(0.1, 1.0, 0.1);
  for (double idle_fraction : {0.0, 0.01, 0.05, 0.10, 0.20}) {
    auto cfg = paper_config(LevelTable::transmeta_tm5400(), 2, runs);
    cfg.idle_fraction = idle_fraction;
    cfg.schemes = {Scheme::SPM, Scheme::GSS, Scheme::AS};
    print_figure(os, "Ablation.idle." + Table::num(idle_fraction, 2),
                 "Energy vs load, ATR, 2 CPUs, Transmeta, idle fraction = " +
                     Table::num(idle_fraction, 2),
                 sweep_load(atr, cfg, loads), "load");
  }
}

// Ablation: list-scheduling heuristic. The paper fixes longest-task-first
// but proves the framework for any priority rule (§3.2). Compares LTF,
// shortest-task-first and FIFO: canonical makespans (feasibility) and GSS
// energy. LTF's tighter canonical packing usually yields more static slack
// for the same deadline.
void heuristic(std::ostream& os, int runs) {
  const Application atr = apps::build_atr();
  for (auto rule :
       {ListHeuristic::LongestTaskFirst, ListHeuristic::ShortestTaskFirst,
        ListHeuristic::InsertionOrder}) {
    auto cfg = paper_config(LevelTable::transmeta_tm5400(), 2, runs);
    cfg.heuristic = rule;
    cfg.schemes = {Scheme::SPM, Scheme::GSS, Scheme::AS};
    const SimTime w = canonical_worst_makespan(
        atr, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table), rule);
    const std::string name = to_string(rule);
    os << "# heuristic " << name << ": canonical W = " << to_string(w) << "\n";
    print_figure(os, "Ablation.heuristic." + name,
                 "Energy vs load, ATR, 2 CPUs, Transmeta, heuristic = " + name,
                 sweep_load(atr, cfg, {0.3, 0.5, 0.7, 0.9}), "load");
  }
}

// Ablation: speculative-floor rounding. The paper's print is ambiguous on
// whether SS1/AS round a between-levels speculative speed to the higher or
// lower level; both are deadline-safe (GSS backstops). Rounding down runs
// slower up front but forces corrective switches when the greedy component
// catches up; rounding up wastes some speculation headroom. This study
// quantifies the difference on both platforms.
void rounding(std::ostream& os, int runs) {
  const Application syn = apps::build_synthetic();
  const std::vector<double> loads = {0.3, 0.5, 0.7, 0.9};
  for (const LevelTable& table : paper_platforms()) {
    for (auto mode : {PolicyOptions::SpecRounding::Up,
                      PolicyOptions::SpecRounding::Down}) {
      auto cfg = paper_config(table, 2, runs);
      cfg.schemes = {Scheme::SS1, Scheme::AS};
      cfg.policy_options.spec_rounding = mode;
      const std::string r =
          mode == PolicyOptions::SpecRounding::Up ? "up" : "down";
      print_figure(os, "Ablation.rounding." + table.name() + "." + r,
                   "Energy vs load, synthetic, 2 CPUs, "
                   "speculative rounding = " + r,
                   sweep_load(syn, cfg, loads), "load");
    }
  }
}

// Ablation: loop treatment (paper §2.1 offers both). Collapsing a loop to
// one aggregate task is simpler but pessimistic — the WCET covers the
// maximal iteration count even when the loop exits early, and no PMP
// exists inside the loop for AS to re-speculate at. Unrolling exposes the
// per-iteration OR exits. Quantifies the cost of the simpler treatment.
void loopmode(std::ostream& os, int runs) {
  const std::vector<double> loads = {0.3, 0.5, 0.7, 0.9};
  for (auto mode : {LoopMode::Unroll, LoopMode::Collapse}) {
    apps::SyntheticConfig sc;
    sc.loop_mode = mode;
    const Application app = apps::build_synthetic(sc);
    const std::string name = mode == LoopMode::Unroll ? "unroll" : "collapse";

    for (const LevelTable& table : paper_platforms()) {
      auto cfg = paper_config(table, 2, runs);
      cfg.schemes = {Scheme::GSS, Scheme::AS};
      const SimTime w = canonical_worst_makespan(
          app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table));
      os << "# loop mode " << name << " on " << table.name()
         << ": canonical W = " << to_string(w) << " ("
         << app.graph.task_count() << " tasks)\n";
      print_figure(os, "Ablation.loopmode." + name + "." + table.name(),
                   "Energy vs load, synthetic Fig.3, 2 CPUs, loops " + name +
                       "ed",
                   sweep_load(app, cfg, loads), "load");
    }
  }
}

}  // namespace

ExperimentConfig paper_config(const LevelTable& table, int cpus, int runs) {
  ExperimentConfig cfg;
  cfg.cpus = cpus;
  cfg.table = table;
  cfg.runs = runs;
  cfg.seed = kPaperSeed;
  cfg.overheads.speed_compute_cycles = 300;
  cfg.overheads.speed_change_time = SimTime::from_us(5.0);
  return cfg;
}

std::vector<FigureDef> paper_figures(int runs) {
  return {
      load_figure("fig4a", LevelTable::transmeta_tm5400(), 2, runs),
      load_figure("fig4b", LevelTable::intel_xscale(), 2, runs),
      load_figure("fig5a", LevelTable::transmeta_tm5400(), 6, runs),
      load_figure("fig5b", LevelTable::intel_xscale(), 6, runs),
      alpha_figure("fig6a", LevelTable::transmeta_tm5400(), runs),
      alpha_figure("fig6b", LevelTable::intel_xscale(), runs),
  };
}

FigureDef paper_figure(const std::string& id, int runs) {
  for (FigureDef& f : paper_figures(runs)) {
    if (f.id == id) return std::move(f);
  }
  PASERTA_REQUIRE(false, "unknown figure id '" << id << "'");
  return {};  // unreachable
}

Application figure_workload(const FigureDef& figure) {
  if (figure.is_alpha_sweep()) return apps::build_synthetic();
  return apps::build_atr();  // alpha = 0.9 measured, the paper's setting
}

std::vector<SweepPoint> run_figure(const FigureDef& figure) {
  const Application app = figure_workload(figure);
  if (figure.is_alpha_sweep())
    return sweep_alpha(app, figure.config, figure.fixed_load, figure.xs);
  return sweep_load(app, figure.config, figure.xs);
}

Application builtin_workload(const std::string& name) {
  if (name == "@atr") return apps::build_atr();
  if (name == "@synthetic") return apps::build_synthetic();
  if (name == "@mpeg") return apps::build_mpeg();
  PASERTA_REQUIRE(false, "unknown built-in workload "
                             << name << " (use @atr, @synthetic or @mpeg)");
  return {};  // unreachable
}

const std::vector<StudyDef>& paper_studies() {
  static const std::vector<StudyDef> studies = {
      {"tables", "Tables 1-2: TM5400 and XScale levels", 0, tables},
      {"fig4", "Fig. 4: energy vs load, ATR, 2 CPUs", 1000, fig4},
      {"fig5", "Fig. 5: energy vs load, ATR, 6 CPUs", 1000, fig5},
      {"fig6", "Fig. 6: energy vs alpha, synthetic app", 1000, fig6},
      {"procs", "ATR at 2, 4 and 6 CPUs", 500, procs},
      {"layered", "narrow vs wide layered graphs by CPUs", 400, layered},
      {"overhead", "ablation: speed-change overhead", 500, overhead},
      {"minspeed", "ablation: f_min/f_max ratio", 500, minspeed},
      {"levels", "ablation: number of speed levels", 500, levels},
      {"oracle", "gap to the single-speed oracle", 300, oracle},
      {"independent", "slack sharing on independent tasks", 500, independent},
      {"significance", "paired t-tests of AS vs GSS, SS1", 1000, significance},
      {"idle", "ablation: idle-power fraction", 500, idle},
      {"heuristic", "ablation: list-scheduling heuristic", 500, heuristic},
      {"rounding", "ablation: speculative-floor rounding", 500, rounding},
      {"loopmode", "ablation: loop unroll vs collapse", 500, loopmode},
  };
  return studies;
}

const StudyDef& study(const std::string& id) {
  for (const StudyDef& s : paper_studies()) {
    if (s.id == id) return s;
  }
  PASERTA_REQUIRE(false, "unknown study '" << id << "'");
  return paper_studies().front();  // unreachable
}

}  // namespace paserta
