// noc_load: run_noc_sweep on an 8x8 mesh — {uniform, transpose, hotspot}
// traffic x injection rate {0.05, 0.15, 0.25, 0.35} flits/node/cycle,
// 2 worker threads.
//
// Why: it is the NoC latency/throughput characterisation, and it keeps
// the fabric busy up to saturation — the opposite of period_stream's
// mostly idle fabric — so a NoC change that taxes busy cycles shows here.
//
// Set-up builds the scenario grid and one 8x8 fabric, the fixed cost every
// scenario pays before its first cycle. The seed drives every scenario's
// traffic stream.
#include "bench.hpp"
#include "noc/sweep_harness.hpp"
#include "util/sweep.hpp"

namespace perfbench {
namespace {

using renoc::TrafficPattern;

class NocLoad final : public Workload {
 public:
  explicit NocLoad(const WorkloadOptions& opt) {
    cfg_.patterns = {TrafficPattern::kUniformRandom,
                     TrafficPattern::kTranspose, TrafficPattern::kHotspot};
    if (opt.smoke) {
      cfg_.mesh_sides = {4};
      cfg_.injection_rates = {0.05, 0.25};
      cfg_.measure_cycles = 300;
    } else {
      cfg_.mesh_sides = {8};
      cfg_.injection_rates = {0.05, 0.15, 0.25, 0.35};
    }
    cfg_.threads = kSweepThreads;
    cfg_.seed = opt.seed;
  }

  void setup() override {
    grid_ = cfg_.scenarios();
    renoc::NocConfig ncfg;
    ncfg.dim = grid_.front().dim;
    ncfg.buffer_depth = cfg_.buffer_depth;
    fabric_ = std::make_unique<renoc::Fabric>(ncfg);
  }

  int setup_repeats() const override { return 250; }

  PassResult pass() override {
    points_ = renoc::run_noc_sweep(cfg_);
    renoc::sweep::DigestBuilder digest;
    PassResult out;
    for (const renoc::SweepPoint& p : points_) {
      digest.fold(p.messages_sent)
          .fold(p.messages_received)
          .fold(p.messages_skipped)
          .fold(p.packets_delivered)
          .fold(p.flits_delivered)
          .fold(p.cycles);
      out.reals.push_back(p.avg_latency_cycles);
      out.reals.push_back(p.accepted_flit_rate);
      out.work += static_cast<double>(p.cycles + cfg_.warmup_cycles);
    }
    out.digest = digest.digest();
    return out;
  }

  void verify(Checks& checks) override {
    for (const renoc::SweepPoint& p : points_) {
      // After the drain every message sent in the window has arrived (plus
      // the warm-up backlog), and every arrival is a delivered packet.
      checks.expect(p.messages_received >= p.messages_sent &&
                        p.messages_received == p.packets_delivered,
                    "NoC delivered everything it sent after the drain");
      checks.expect(p.packets_dropped == 0 && p.packets_unreachable == 0,
                    "pristine NoC dropped nothing");
    }
  }

  PassResult traced(Tracer& tracer, Checks& checks, double untraced_wall_s,
                    Metrics& out) override {
    PassResult result;
    {
      Span root(tracer, "bench.pass");
      result = pass();
    }
    verify(checks);

    // The split: every scenario replayed single-threaded through the
    // public replay.
    Span split(tracer, "bench.split");
    double cycles = 0.0, flits = 0.0, accepted = 0.0, offered = 0.0;
    double latency_sum = 0.0, packets = 0.0;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      renoc::SweepPoint replay;
      {
        Span s(tracer, "noc.scenario");
        replay = renoc::run_noc_scenario(grid_[i], cfg_, static_cast<int>(i));
      }
      const renoc::SweepPoint& p = points_[i];
      checks.expect(replay.cycles == p.cycles &&
                        replay.flits_delivered == p.flits_delivered &&
                        replay.avg_latency_cycles == p.avg_latency_cycles,
                    "scenario replay reproduces the sweep point");
      cycles += static_cast<double>(p.cycles + cfg_.warmup_cycles);
      flits += static_cast<double>(p.flits_delivered);
      accepted += p.accepted_flit_rate;
      offered += p.offered_flit_rate;
      latency_sum += p.avg_latency_cycles * static_cast<double>(p.packets_delivered);
      packets += static_cast<double>(p.packets_delivered);
    }
    split.close();
    const double scenario_s = tracer.total_s("noc.scenario");
    out.push_back({"noc.scenario_ms",
                   ms(scenario_s) / static_cast<double>(grid_.size()), "ms"});
    out.push_back({"noc.ns_per_cycle", scenario_s * 1e9 / cycles, "ns"});
    out.push_back({"noc.ns_per_flit", scenario_s * 1e9 / flits, "ns"});
    out.push_back({"noc.accepted_over_offered", accepted / offered, "ratio"});
    out.push_back({"noc.avg_latency_cycles", latency_sum / packets, "cycles"});
    out.push_back({"util.sweep.parallel_eff",
                   scenario_s / (kSweepThreads * untraced_wall_s), "ratio"});
    return result;
  }

 private:
  renoc::SweepConfig cfg_;
  std::vector<renoc::SweepScenario> grid_;
  std::unique_ptr<renoc::Fabric> fabric_;
  std::vector<renoc::SweepPoint> points_;
};

}  // namespace

std::unique_ptr<Workload> make_noc_load(const WorkloadOptions& opt) {
  return std::make_unique<NocLoad>(opt);
}

}  // namespace perfbench
