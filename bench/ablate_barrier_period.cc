// Ablation B — where does the G-line barrier stop mattering?
//
// Sweeps the inter-barrier compute (the "barrier period") of a
// synthetic workload and reports GL's execution-time reduction over
// DSW. This explains the paper's Figure-6 spread: Kernel3 (period
// ~2.9k cycles) gains 88% while OCEAN (period ~205k) gains 5%.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace glb;
  Flags flags(argc, argv);
  const bench::CommonFlags common = bench::ParseCommonFlags(flags);
  const auto cfg = common.Config();
  const auto barriers = static_cast<std::uint32_t>(flags.GetInt("barriers", 100));
  const int jobs = common.jobs();

  std::cout << "Ablation B: GL benefit vs barrier period (" << cfg.num_cores()
            << " cores, " << barriers << " barriers)\n\n";

  const std::vector<Cycle> works = {0,    100,   500,    2000,
                                    10000, 50000, 200000};
  bench::SweepClock clock(flags, "ablate_barrier_period", jobs);
  std::vector<harness::ExperimentSpec> specs;
  for (Cycle work : works) {
    auto factory = [barriers, work]() {
      return std::make_unique<bench::PeriodicBarriers>(barriers, work);
    };
    specs.push_back(
        harness::FactoryExperiment(factory, harness::BarrierKind::kDSW, cfg));
    specs.push_back(
        harness::FactoryExperiment(factory, harness::BarrierKind::kGL, cfg));
  }
  bench::RejectUnreadFlagsOrExit(flags);
  const auto results = harness::RunExperimentsParallel(specs, jobs);
  clock.Report(results.size());

  harness::Table t({"Busy cycles", "DSW period", "DSW cycles", "GL cycles",
                    "GL reduction"});
  for (std::size_t i = 0; i < works.size(); ++i) {
    const auto& dsw = results[2 * i];
    const auto& gl = results[2 * i + 1];
    const double red =
        1.0 - static_cast<double>(gl.cycles) / static_cast<double>(dsw.cycles);
    t.AddRow({std::to_string(works[i]), harness::Table::Num(dsw.barrier_period),
              harness::Table::Num(dsw.cycles), harness::Table::Num(gl.cycles),
              harness::Table::Pct(red)});
  }
  t.Print(std::cout);
  std::cout << "\nShape: the reduction collapses as the period grows — exactly why"
               " OCEAN/UNSTRUCTURED\n(periods 205k/67k) gain only 5%/3% in the"
               " paper while the kernels gain 47-88%.\n";
  return 0;
}
