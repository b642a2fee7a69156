// paserta_cli — command-line front end to the library.
//
//   paserta_cli analyze  <workload> [options]   offline analysis report
//   paserta_cli simulate <workload> [options]   one run + gantt + stats
//   paserta_cli sweep    <workload> [options]   load/alpha sweep (CSV/JSON)
//   paserta_cli profile  <workload> [options]   per-phase cycle profile
//   paserta_cli metrics  <workload>             structural metrics
//   paserta_cli dot      <workload>             Graphviz dump
//   paserta_cli reproduce <study>|all           a paper study's CSV blocks
//   paserta_cli serve                           resident simulation daemon
//   paserta_cli --version                       build provenance stamp
//
// <workload> is a text file (docs/WORKLOAD_FORMAT.md) or a built-in:
// @atr, @synthetic, @mpeg.
//
// The options of every command are listed once, in usage() below (printed
// when the CLI runs without arguments or with a bad one); a command accepts
// only the flags listed for it (kFlagCommands).
//
// Flags accept both "--flag value" and "--flag=value". A numeric value
// must parse as a whole token within the flag's range.
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ctime>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/version.h"
#include "core/offline.h"
#include "core/oracle.h"
#include "graph/dot.h"
#include "graph/metrics.h"
#include "graph/text_format.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "harness/json.h"
#include "harness/report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/gantt.h"
#include "sim/power_trace.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/svg.h"
#include "sim/trace_stats.h"

using namespace paserta;

namespace {

struct Options {
  std::string command;
  std::string workload;
  std::string study;  // reproduce
  int cpus = 2;
  std::string table = "transmeta";
  double load = 0.5;
  std::optional<SimTime> deadline;
  std::string heuristic = "ltf";
  std::string scheme = "gss";
  std::uint64_t seed = 1;
  bool power_csv = false;
  std::string svg_path;
  std::string x = "load";
  std::optional<int> runs;  // unset: the command's default
  double from = 0.1, to = 1.0, step = 0.1;
  bool json = false;
  std::optional<int> threads;  // unset: 1, or one group per core for serve
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";
  bool audit = false;
  bool progress = false;
  // profile
  bool sweep = false;
  // serve
  int port = 0;
  int queue_limit = 256;
  int timeout_ms = 0;
  int max_conn = 32;
  int stream_interval_ms = 250;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n";
  std::cerr <<
      "usage: paserta_cli <command> [workload] [options]\n"
      "\n"
      "commands:\n"
      "  analyze  <workload>   offline analysis report\n"
      "  simulate <workload>   one run + gantt + stats\n"
      "  sweep    <workload>   load/alpha sweep (CSV/JSON)\n"
      "  profile  <workload>   run a point (or --sweep) under the phase\n"
      "                        profiler and print the per-phase table\n"
      "  metrics  <workload>   structural graph metrics\n"
      "  dot      <workload>   Graphviz dump\n"
      "  reproduce <study>|all regenerate a paper table, figure or study\n"
      "                        (CSV); all prints every study in order\n"
      "  serve                 resident simulation daemon (NDJSON + HTTP\n"
      "                        /metrics; see docs/DESIGN.md §16)\n"
      "\n"
      "  --version             print the build provenance stamp and exit\n"
      "\n"
      "<workload> is a text file (docs/WORKLOAD_FORMAT.md) or a built-in:\n"
      "@atr, @synthetic, @mpeg.\n"
      "\n"
      "options (--flag value or --flag=value); each command accepts only\n"
      "the flags listed under it:\n"
      "analyze, simulate, sweep, profile:\n"
      "  --cpus N            processors (default 2)\n"
      "  --table NAME        transmeta | xscale (default transmeta)\n"
      "  --heuristic H       ltf | stf | fifo (default ltf)\n"
      "  --load L            deadline = W / L (default 0.5; sweep: the\n"
      "                      fixed load of --x alpha)\n"
      "analyze, simulate:\n"
      "  --deadline-ms D     absolute deadline (overrides --load)\n"
      "simulate, sweep, profile:\n"
      "  --seed N            RNG seed (default 1)\n"
      "simulate:\n"
      "  --scheme S          npm | spm | gss | ss1 | ss2 | as (default gss)\n"
      "  --power-csv         dump the power-vs-time curve as CSV\n"
      "  --svg FILE          write an SVG gantt + power chart to FILE\n"
      "sweep, profile, reproduce:\n"
      "  --runs N            Monte-Carlo runs per point (default 200; for\n"
      "                      reproduce, each study's own default)\n"
      "sweep, profile:\n"
      "  --from F --to T --step S   sweep range (default 0.1..1.0 step 0.1;\n"
      "                      profile: with --sweep)\n"
      "sweep, profile, serve:\n"
      "  --threads N         sweep, profile: worker threads per sweep\n"
      "                      (default 1; output identical for any value);\n"
      "                      serve: request groups simulated at once, each\n"
      "                      on one thread (default: one per hardware\n"
      "                      thread)\n"
      "sweep:\n"
      "  --x load|alpha      swept parameter (default load)\n"
      "  --json              emit JSON instead of CSV\n"
      "  --audit             self-audit every run: attribution counters\n"
      "                      must rebuild the engine's energies exactly and\n"
      "                      the power-trace integral must match (slower;\n"
      "                      output identical to a non-audited sweep)\n"
      "  --progress          live progress line on stderr\n"
      "sweep, serve:\n"
      "  --trace-out FILE    Chrome/Perfetto trace (open in\n"
      "                      ui.perfetto.dev): one span per profiler phase,\n"
      "                      engine calls named by scheme\n"
      "  --metrics-out DEST  engine + pool metrics; DEST is a file path or\n"
      "                      \"-\" for stdout\n"
      "  --metrics-format F  json | prometheus (default json)\n"
      "profile:\n"
      "  --sweep             profile the full --from/--to/--step load sweep\n"
      "                      instead of the single --load point\n"
      "serve (SIGINT or SIGTERM drains in-flight requests and flushes the\n"
      "sinks):\n"
      "  --port N            listen port on 127.0.0.1 (default 0 =\n"
      "                      ephemeral; the bound port is printed)\n"
      "  --queue-limit N     pending requests before submissions are\n"
      "                      rejected as overloaded (default 256)\n"
      "  --timeout-ms N      per-request response wait bound (default 0 =\n"
      "                      none)\n"
      "  --max-conn N        concurrent connections (default 32)\n"
      "  --stream-interval-ms N   spacing of {\"event\":\"progress\"} lines\n"
      "                      for NDJSON requests with \"stream\":true\n"
      "                      (default 250)\n";
  std::exit(2);
}

/// The value `v` of numeric flag `flag`, parsed as one whole token of type
/// T in [lo, hi]. Anything else — a suffix ("5k", "0.5x"), a fraction for
/// an integer flag ("3.9"), a sign the type cannot hold ("-1" for the
/// seed), an out-of-range or non-finite value — is a usage error, not the
/// prefix it starts with.
template <typename T>
T numeric_value(const char* flag, const std::string& v,
                T lo = std::numeric_limits<T>::lowest(),
                T hi = std::numeric_limits<T>::max()) {
  T x{};
  const char* const end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, x);
  // Negated comparisons also reject NaN; the default double range rejects
  // the infinities.
  if (ec != std::errc{} || stop != end || !(x >= lo) || !(x <= hi))
    usage(("bad " + std::string(flag) + " value \"" + v + "\"").c_str());
  return x;
}

/// The commands that read each flag, as usage() lists them; any other
/// command rejects the flag.
const std::map<std::string, std::string> kFlagCommands = {
    {"--cpus", "analyze simulate sweep profile"},
    {"--table", "analyze simulate sweep profile"},
    {"--heuristic", "analyze simulate sweep profile"},
    {"--load", "analyze simulate sweep profile"},
    {"--deadline-ms", "analyze simulate"},
    {"--seed", "simulate sweep profile"},
    {"--scheme", "simulate"},
    {"--power-csv", "simulate"},
    {"--svg", "simulate"},
    {"--runs", "sweep profile reproduce"},
    {"--from", "sweep profile"},
    {"--to", "sweep profile"},
    {"--step", "sweep profile"},
    {"--threads", "sweep profile serve"},
    {"--x", "sweep"},
    {"--json", "sweep"},
    {"--audit", "sweep"},
    {"--progress", "sweep"},
    {"--trace-out", "sweep serve"},
    {"--metrics-out", "sweep serve"},
    {"--metrics-format", "sweep serve"},
    {"--sweep", "profile"},
    {"--port", "serve"},
    {"--queue-limit", "serve"},
    {"--timeout-ms", "serve"},
    {"--max-conn", "serve"},
    {"--stream-interval-ms", "serve"},
};

/// Usage error unless `command` reads `flag` (kFlagCommands).
void require_flag_of(const std::string& command, const std::string& flag) {
  const auto it = kFlagCommands.find(flag);
  if (it == kFlagCommands.end()) usage(("unknown flag " + flag).c_str());
  std::istringstream commands(it->second);
  for (std::string c; commands >> c;)
    if (c == command) return;
  usage(("flag " + flag + " is not an option of " + command).c_str());
}

/// The value of a name flag through the library's parse, whose message
/// lists the valid names; a bad name is a usage error.
template <typename T, typename Parse>
T named(const std::string& name, Parse parse) {
  try {
    return parse(name);
  } catch (const Error& e) {
    usage(e.what());
  }
}

/// Usage error for a missing or unknown study: `msg`, then the ids.
[[noreturn]] void study_usage(const std::string& msg) {
  std::string ids;
  for (const StudyDef& s : paper_studies()) ids += s.id + ", ";
  usage((msg + " (use " + ids + "or all)").c_str());
}

Options parse_args(int argc, char** argv) {
  Options o;
  if (argc < 2) usage();
  o.command = argv[1];
  int i = 2;
  if (o.command == "reproduce") {
    if (i >= argc || argv[i][0] == '-') study_usage("missing study");
    o.study = argv[i++];
  } else if (o.command != "serve") {
    if (i >= argc || argv[i][0] == '-') usage("missing workload file");
    o.workload = argv[i++];
  }
  // Inline "--flag=value" payload of the current flag, when present.
  std::optional<std::string> inline_value;
  auto need_value = [&](const char* flag) -> std::string {
    if (inline_value) {
      std::string v = std::move(*inline_value);
      inline_value.reset();
      return v;
    }
    if (i >= argc) usage((std::string(flag) + " needs a value").c_str());
    return argv[i++];
  };
  auto int_value = [&](const char* flag, int lo,
                       int hi = std::numeric_limits<int>::max()) {
    return numeric_value<int>(flag, need_value(flag), lo, hi);
  };
  auto double_value = [&](const char* flag) {
    return numeric_value<double>(flag, need_value(flag));
  };
  for (; i < argc;) {
    std::string flag = argv[i++];
    inline_value.reset();
    if (const std::size_t eq = flag.find('=');
        flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.erase(eq);
    }
    require_flag_of(o.command, flag);
    if (flag == "--cpus") o.cpus = int_value("--cpus", 1);
    else if (flag == "--table") o.table = need_value("--table");
    else if (flag == "--load") o.load = double_value("--load");
    else if (flag == "--deadline-ms") {
      const std::string v = need_value("--deadline-ms");
      o.deadline =
          SimTime::try_from_ms(numeric_value<double>("--deadline-ms", v));
      if (!o.deadline)
        usage(("bad --deadline-ms value \"" + v + "\"").c_str());
    }
    else if (flag == "--heuristic") o.heuristic = need_value("--heuristic");
    else if (flag == "--scheme") o.scheme = need_value("--scheme");
    else if (flag == "--seed")
      o.seed = numeric_value<std::uint64_t>("--seed", need_value("--seed"));
    else if (flag == "--power-csv") o.power_csv = true;
    else if (flag == "--svg") o.svg_path = need_value("--svg");
    else if (flag == "--x") o.x = need_value("--x");
    else if (flag == "--runs") o.runs = int_value("--runs", 1);
    else if (flag == "--from") o.from = double_value("--from");
    else if (flag == "--to") o.to = double_value("--to");
    else if (flag == "--step") o.step = double_value("--step");
    else if (flag == "--json") o.json = true;
    else if (flag == "--threads") o.threads = int_value("--threads", 1);
    else if (flag == "--trace-out") o.trace_out = need_value("--trace-out");
    else if (flag == "--metrics-out")
      o.metrics_out = need_value("--metrics-out");
    else if (flag == "--metrics-format") {
      o.metrics_format = need_value("--metrics-format");
      if (o.metrics_format != "json" && o.metrics_format != "prometheus")
        usage(("--metrics-format must be json or prometheus, got \"" +
               o.metrics_format + "\"").c_str());
    }
    else if (flag == "--audit") o.audit = true;
    else if (flag == "--progress") o.progress = true;
    else if (flag == "--sweep") o.sweep = true;
    else if (flag == "--port") o.port = int_value("--port", 0, 65535);
    else if (flag == "--queue-limit")
      o.queue_limit = int_value("--queue-limit", 0);
    else if (flag == "--timeout-ms") o.timeout_ms = int_value("--timeout-ms", 0);
    else if (flag == "--max-conn") o.max_conn = int_value("--max-conn", 1);
    else if (flag == "--stream-interval-ms")
      o.stream_interval_ms = int_value("--stream-interval-ms", 0);
    if (inline_value) usage(("flag " + flag + " takes no value").c_str());
  }
  return o;
}

LevelTable table_of(const Options& o) {
  return named<LevelTable>(o.table, LevelTable::from_name);
}

ListHeuristic heuristic_of(const Options& o) {
  return named<ListHeuristic>(o.heuristic, heuristic_from_name);
}

Scheme scheme_of(const Options& o) {
  return named<Scheme>(o.scheme, scheme_from_name);
}

Application load(const Options& o) {
  if (!o.workload.empty() && o.workload[0] == '@') {
    try {
      return builtin_workload(o.workload);
    } catch (const Error& e) {
      usage(e.what());
    }
  }
  std::ifstream in(o.workload);
  if (!in) {
    std::cerr << "cannot open workload '" << o.workload << "'\n";
    std::exit(1);
  }
  return load_application(in);
}

OfflineResult analyze_with(const Application& app, const Options& o,
                           const PowerModel& pm, const Overheads& ovh) {
  OfflineOptions opt;
  opt.cpus = o.cpus;
  opt.heuristic = heuristic_of(o);
  opt.overhead_budget = ovh.worst_case_budget(pm.table());
  if (o.deadline) {
    opt.deadline = *o.deadline;
  } else {
    opt.deadline = deadline_at_load(
        canonical_worst_makespan(app, o.cpus, opt.overhead_budget,
                                 opt.heuristic),
        o.load);
  }
  return analyze_offline(app, opt);
}

int cmd_analyze(const Options& o) {
  const Application app = load(o);
  const PowerModel pm(table_of(o));
  Overheads ovh;
  const OfflineResult off = analyze_with(app, o, pm, ovh);

  std::cout << "application : " << app.name << "\n"
            << "nodes       : " << app.graph.size() << " ("
            << app.graph.task_count() << " tasks, " << app.or_fork_count()
            << " OR forks)\n"
            << "cpus        : " << off.cpus() << "\n"
            << "heuristic   : " << o.heuristic << "\n"
            << "W (worst)   : " << to_string(off.worst_makespan()) << "\n"
            << "A (average) : " << to_string(off.average_makespan()) << "\n"
            << "deadline    : " << to_string(off.deadline()) << "\n"
            << "feasible    : " << (off.feasible() ? "yes" : "NO") << "\n\n";

  Table t({"node", "kind", "eo", "wcet_ms", "acet_ms", "lst_ms", "eet_ms"});
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    t.add_row({n.name, to_string(n.kind), std::to_string(off.eo(id)),
               Table::num(n.wcet.ms(), 3), Table::num(n.acet.ms(), 3),
               Table::num(off.lst(id).ms(), 3),
               Table::num(off.eet(id).ms(), 3)});
  }
  t.write_pretty(std::cout);

  for (NodeId id : app.graph.all_nodes()) {
    if (!app.graph.node(id).is_or_fork()) continue;
    const OrForkProfile& p = off.fork_profile(id);
    std::cout << "\nPMP at fork '" << app.graph.node(id).name << "':";
    for (std::size_t a = 0; a < p.rem_w_alt.size(); ++a)
      std::cout << "  path" << a << " w=" << to_string(p.rem_w_alt[a])
                << " a=" << to_string(p.rem_a_alt[a]);
    std::cout << "\n";
  }
  return off.feasible() ? 0 : 1;
}

int cmd_simulate(const Options& o) {
  const Application app = load(o);
  const PowerModel pm(table_of(o));
  Overheads ovh;
  const OfflineResult off = analyze_with(app, o, pm, ovh);
  if (!off.feasible())
    std::cerr << "warning: infeasible deadline, guarantee void\n";

  Rng rng(o.seed);
  const RunScenario sc = draw_scenario(app.graph, rng);
  const SimResult r = simulate(app, off, pm, ovh, scheme_of(o), sc);
  const TraceStats st = analyze_trace(app, off, pm, r);
  const OracleResult oracle = clairvoyant_oracle(app, off, pm, ovh, sc);

  std::cout << "scheme        : " << o.scheme << "\n"
            << "energy        : " << r.total_energy() * 1e3 << " mJ  (busy "
            << r.busy_energy * 1e3 << ", overhead " << r.overhead_energy * 1e3
            << ", idle " << r.idle_energy * 1e3 << ")\n"
            << "oracle bound  : " << oracle.energy * 1e3 << " mJ @ "
            << pm.table().level(oracle.level).freq / kMHz << " MHz\n"
            << "finish        : " << to_string(r.finish_time) << " of "
            << to_string(off.deadline())
            << (r.deadline_met ? "  (met)" : "  (MISS)") << "\n"
            << "speed changes : " << r.speed_changes << "\n"
            << "utilization   : " << static_cast<int>(st.utilization * 100)
            << "%\n\n";
  render_gantt(std::cout, app, off, pm, r);

  if (o.power_csv) {
    std::cout << "\n";
    write_power_trace_csv(std::cout,
                          build_power_trace(app, off, pm, ovh, r));
  }
  if (!o.svg_path.empty()) {
    std::ofstream svg(o.svg_path);
    if (!svg) {
      std::cerr << "cannot write '" << o.svg_path << "'\n";
      return 1;
    }
    write_svg_gantt(svg, app, off, pm, ovh, r);
    std::cout << "wrote " << o.svg_path << "\n";
  }
  return r.deadline_met ? 0 : 1;
}

/// One rewritten stderr line of the sweep's progress view since `t0`,
/// "sweep: 12/80 (15%) 41.3/s" (chunks, chunks per second), newline-ended
/// when `final`.
void print_progress(const ProfProgress& p,
                    std::chrono::steady_clock::time_point t0, bool final) {
  const std::chrono::duration<double> s = std::chrono::steady_clock::now() - t0;
  std::cerr << "\rsweep: " << p.done << "/" << p.total << " ("
            << (p.total > 0 ? 100 * p.done / p.total : 0) << "%) "
            << Table::num(static_cast<double>(p.done) / s.count(), 1) << "/s"
            << (final ? "\n" : "") << std::flush;
}

/// The Monte-Carlo config sweep and profile share, from the common flags.
ExperimentConfig experiment_config(const Options& o) {
  ExperimentConfig cfg;
  cfg.cpus = o.cpus;
  cfg.table = table_of(o);
  cfg.runs = o.runs.value_or(200);
  cfg.seed = o.seed;
  cfg.threads = o.threads.value_or(1);
  cfg.heuristic = heuristic_of(o);
  return cfg;
}

/// Writes the Chrome trace of `tracer`, with `prof`'s counter tracks, to
/// `path` and reports its span counts on stderr; false, after a message,
/// when the file cannot be opened.
bool write_trace(const std::string& path, const Tracer& tracer,
                 const Profiler* prof) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot write '" << path << "'\n";
    return false;
  }
  write_chrome_trace(file, tracer, prof);
  std::cerr << "wrote " << path << " (" << tracer.event_count() << " events, "
            << tracer.dropped_count()
            << " dropped; open in ui.perfetto.dev)\n";
  return true;
}

/// Writes rendered metrics to `dest`, a file or "-" for stdout; false,
/// after a message, when the file cannot be opened.
bool write_metrics(const std::string& dest, const std::string& rendered) {
  if (dest == "-") {
    std::cout << rendered;
    return true;
  }
  std::ofstream file(dest);
  if (!file) {
    std::cerr << "cannot write '" << dest << "'\n";
    return false;
  }
  file << rendered;
  std::cerr << "wrote " << dest << "\n";
  return true;
}

int cmd_sweep(const Options& o) {
  if (o.x != "load" && o.x != "alpha") usage("--x must be load or alpha");
  const Application app = load(o);
  ExperimentConfig cfg = experiment_config(o);
  cfg.audit = o.audit;

  // Observability sinks (all optional; none of them changes the sweep
  // output — see the determinism contract in obs/metrics.h). The profiler
  // is the one instrumentation point: the trace is its charges as spans
  // (plus its counter tracks), the progress line its chunk counts.
  std::unique_ptr<Tracer> tracer;
  if (!o.trace_out.empty()) tracer = std::make_unique<Tracer>();
  std::unique_ptr<Profiler> prof;
  if (tracer || o.progress) {
    prof = std::make_unique<Profiler>(Profiler::Mode::kAuto, tracer.get());
    cfg.prof = prof.get();
  }
  MetricsRegistry registry;  // scoped: one sweep's metrics, nothing else
  if (!o.metrics_out.empty()) {
    cfg.collect_metrics = true;
    cfg.registry = &registry;
  }
  const std::vector<double> xs = sweep_range(o.from, o.to, o.step);
  const auto run = [&] {
    return o.x == "load" ? sweep_load(app, cfg, xs)
                         : sweep_alpha(app, cfg, o.load, xs);
  };
  std::vector<SweepPoint> points;
  if (o.progress) {
    // The sweep runs on a helper thread while this one polls the view.
    const auto t0 = std::chrono::steady_clock::now();
    auto sweep = std::async(std::launch::async, run);
    while (sweep.wait_for(std::chrono::milliseconds(200)) !=
           std::future_status::ready)
      print_progress(prof->progress(), t0, false);
    points = sweep.get();
    print_progress(prof->progress(), t0, true);
  } else {
    points = run();
  }

  if (tracer && !write_trace(o.trace_out, *tracer, prof.get())) return 1;
  if (!o.metrics_out.empty()) {
    if (prof) prof->export_delta_to(registry);
    const MetricsSnapshot snap = registry.snapshot();
    if (!write_metrics(o.metrics_out, o.metrics_format == "prometheus"
                                          ? metrics_to_prometheus(snap)
                                          : metrics_to_json(snap)))
      return 1;
  }

  if (o.json) {
    JsonExportOptions jopt;
    jopt.experiment_id = app.name + "-" + o.x;
    jopt.caption = "paserta_cli sweep";
    jopt.x_name = o.x;
    write_sweep_json(std::cout, points, jopt);
    std::cout << "\n";
  } else {
    sweep_table(points, o.x).write_csv(std::cout);
  }
  return 0;
}

int cmd_profile(const Options& o) {
  const Application app = load(o);
  ExperimentConfig cfg = experiment_config(o);

  Profiler prof;  // PASERTA_NO_PERF=1 forces the monotonic-clock fallback
  cfg.prof = &prof;

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SweepPoint> points = sweep_load(
      app, cfg,
      o.sweep ? sweep_range(o.from, o.to, o.step)
              : std::vector<double>{o.load});
  const double wall_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const std::vector<ProfPhaseTotals> phases = prof.snapshot();
  std::uint64_t top_ns = 0;
  for (const ProfPhaseTotals& p : phases)
    if (p.top_level) top_ns += p.ns;
  // Monte-Carlo draws across the whole command — the same denominator the
  // bench's runs/sec uses, so cycles/run here and cycles_per_run there
  // line up (EXPERIMENTS.md).
  const double total_runs =
      static_cast<double>(points.size()) * static_cast<double>(cfg.runs);
  const bool hw = prof.hardware();

  std::cout << "workload    : " << app.name << "  (" << points.size()
            << (points.size() == 1 ? " point, " : " points, ") << cfg.runs
            << " runs/point, " << cfg.threads << " thread"
            << (cfg.threads == 1 ? "" : "s") << ")\n"
            << "clock       : "
            << (hw ? "hardware counters" : "monotonic fallback") << "\n"
            << "wall        : " << Table::num(wall_ns / 1e6, 2) << " ms\n"
            << "attributed  : "
            << Table::num(100.0 * static_cast<double>(top_ns) / wall_ns, 1)
            << "% of wall in top-level phases\n\n";

  Table t({"phase", "count", "ms", "%wall", "cyc/run", "ipc", "L$miss%",
           "brm/kI"});
  for (const ProfPhaseTotals& p : phases) {
    if (p.count == 0) continue;
    // Nested phases (indented) break their top-level parent down and are
    // excluded from the attribution sum above.
    const std::string name = p.top_level ? p.name : "  " + p.name;
    const bool cols = hw && p.cycles > 0;
    t.add_row(
        {name, std::to_string(p.count),
         Table::num(static_cast<double>(p.ns) / 1e6, 2),
         Table::num(100.0 * static_cast<double>(p.ns) / wall_ns, 1),
         cols ? Table::num(static_cast<double>(p.cycles) / total_runs, 0)
              : "-",
         cols ? Table::num(static_cast<double>(p.instructions) /
                               static_cast<double>(p.cycles), 2)
              : "-",
         cols && p.cache_refs > 0
             ? Table::num(100.0 * static_cast<double>(p.cache_misses) /
                              static_cast<double>(p.cache_refs), 1)
             : "-",
         cols && p.instructions > 0
             ? Table::num(1000.0 * static_cast<double>(p.branch_misses) /
                              static_cast<double>(p.instructions), 2)
             : "-"});
  }
  t.write_pretty(std::cout);
  return 0;
}

int cmd_metrics(const Options& o) {
  const Application app = load(o);
  const GraphMetrics m = compute_metrics(app);
  std::cout << "application   : " << app.name << "\n"
            << "nodes         : " << m.nodes << " (" << m.tasks
            << " tasks, " << m.and_nodes << " AND, " << m.or_nodes
            << " OR of which " << m.or_forks << " forks)\n"
            << "edges         : " << m.edges << "\n"
            << "paths         : " << m.path_count << "\n"
            << "critical path : " << to_string(m.critical_path) << "\n"
            << "max work      : " << to_string(m.max_work) << "\n"
            << "expected work : " << to_string(m.expected_work) << "\n"
            << "parallelism   : " << m.parallelism << "\n";
  return 0;
}

int cmd_dot(const Options& o) {
  const Application app = load(o);
  write_dot(std::cout, app.graph, app.name);
  return 0;
}

int cmd_reproduce(const Options& o) {
  std::vector<StudyDef> chosen = paper_studies();
  if (o.study != "all") {
    try {
      chosen = {study(o.study)};
    } catch (const Error&) {
      study_usage("unknown study \"" + o.study + "\"");
    }
  }
  for (const StudyDef& s : chosen)
    s.write(std::cout, o.runs.value_or(s.default_runs));
  return 0;
}

// SIGINT/SIGTERM flag for cmd_serve's wait loop. sig_atomic_t write is
// all the handler does — the drain happens on the main thread.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(const Options& o) {
  std::unique_ptr<Tracer> tracer;
  if (!o.trace_out.empty()) tracer = std::make_unique<Tracer>();

  ServeSettings settings;
  settings.threads = o.threads.value_or(0);  // 0: one group per core
  settings.queue_limit = o.queue_limit;
  settings.tracer = tracer.get();
  SimService service(settings);

  ServerSettings net;
  net.port = static_cast<std::uint16_t>(o.port);
  net.max_connections = o.max_conn;
  net.request_timeout_ms = o.timeout_ms;
  net.stream_interval_ms = o.stream_interval_ms;
  SimServer server(service, net);

  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // The port line is machine-read by the smoke tests; keep it first and
  // flushed before any request arrives.
  std::cout << "listening on 127.0.0.1:" << server.port() << "\n"
            << build_version_string() << "\n" << std::flush;

  while (g_stop_requested == 0) {
    timespec ts{0, 200 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
  std::cerr << "draining...\n";
  server.stop();  // drains the service, then joins the connections

  if (tracer && !write_trace(o.trace_out, *tracer, &service.profiler()))
    return 1;
  if (!o.metrics_out.empty() &&
      !write_metrics(o.metrics_out,
                     o.metrics_format == "prometheus"
                         ? service.metrics_text()
                         : metrics_to_json(service.registry().snapshot())))
    return 1;
  std::cerr << "bye\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                    std::strcmp(argv[1], "-V") == 0)) {
    std::cout << build_version_string() << "\n";
    return 0;
  }
  try {
    const Options o = parse_args(argc, argv);
    if (o.command == "analyze") return cmd_analyze(o);
    if (o.command == "simulate") return cmd_simulate(o);
    if (o.command == "sweep") return cmd_sweep(o);
    if (o.command == "profile") return cmd_profile(o);
    if (o.command == "metrics") return cmd_metrics(o);
    if (o.command == "dot") return cmd_dot(o);
    if (o.command == "reproduce") return cmd_reproduce(o);
    if (o.command == "serve") return cmd_serve(o);
    usage(("unknown command " + o.command).c_str());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
