// Background experiment: the predecessor algorithm of [20] on independent
// task sets — slack sharing (GSS) vs per-processor greedy (GREEDY) vs SPM,
// normalized to NPM, across load. Quantifies what EET-swap sharing buys
// before the AND/OR extension enters the picture.
#include "bench_util.h"
#include "common/stats.h"
#include "core/independent.h"

using namespace paserta;

int main(int argc, char** argv) {
  const int runs = benchutil::runs_from_args(argc, argv, 500);
  constexpr int kCpus = 4;
  constexpr std::size_t kTasks = 24;

  for (const LevelTable& table :
       {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()}) {
    const PowerModel pm(table);
    Overheads ovh;
    ovh.speed_change_time = SimTime::from_us(5.0);

    std::cout << "# Independent tasks [20]: energy vs load, " << kTasks
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
        for (auto& t : inflated.tasks)
          t.wcet += ovh.worst_case_budget(table);
        const auto canon = canonical_independent(inflated, kCpus);
        const SimTime d = deadline_at_load(canon.makespan, load);
        const auto actual = draw_independent_actuals(set, rng);

        const double npm =
            simulate_independent(set, kCpus, d, pm, ovh,
                                 IndependentScheme::NPM, actual)
                .total_energy();
        spm.add(simulate_independent(set, kCpus, d, pm, ovh,
                                     IndependentScheme::SPM, actual)
                    .total_energy() /
                npm);
        greedy.add(simulate_independent(set, kCpus, d, pm, ovh,
                                        IndependentScheme::GreedyNoShare,
                                        actual)
                       .total_energy() /
                   npm);
        share.add(simulate_independent(set, kCpus, d, pm, ovh,
                                       IndependentScheme::GreedyShare, actual)
                      .total_energy() /
                  npm);
      }
      out.add_row({Table::num(load, 2), Table::num(spm.mean()),
                   Table::num(greedy.mean()), Table::num(share.mean())});
    }
    out.write_csv(std::cout);
    std::cout << "\n";
  }
  return 0;
}
