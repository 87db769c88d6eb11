// Ablation: non-stall block access (§3.1.1) vs the phase-aligned
// synchronous memories of the Monarch and the OMP (§2.1.2/§2.1.3).
// Sweep the arrival phase: the CFM's block tour starts anywhere; the
// phase-aligned machine stalls to the next aligned slot.
#include <cstdio>

#include "cfm/cfm_memory.hpp"
#include "mem/phase_aligned.hpp"
#include "report_main.hpp"

int main(int argc, char** argv) {
  using namespace cfm;
  const auto opts = bench::parse_options(argc, argv);
  const std::uint32_t b = 8;
  core::CfmMemory cfm_mem(core::CfmConfig::make(b, 1));
  const auto beta = cfm_mem.config().block_access_time();
  mem::PhaseAlignedMemory monarch(b, 0, beta);
  sim::Report report("ablation_stall");
  report.set_param("banks", b);
  report.set_param("beta", beta);

  std::printf("Non-stall start (§3.1.1) vs phase-aligned access "
              "(Monarch/OMP style), b = %u\n\n",
              b);
  std::printf("%-16s %-22s %-26s\n", "arrival phase", "CFM latency",
              "phase-aligned latency (stall+access)");
  sim::Cycle t = 0;
  double cfm_sum = 0;
  double monarch_sum = 0;
  for (sim::Cycle phase = 0; phase < b; ++phase) {
    // Issue at the current slot once the clock reaches the next slot of
    // this phase of the b-slot schedule period.
    while (t % b != phase) cfm_mem.tick(t++);
    const auto op = cfm_mem.issue(t, 0, core::BlockOpKind::Read, phase);
    while (cfm_mem.result(op) == nullptr) cfm_mem.tick(t++);
    const auto r = cfm_mem.take_result(op);
    const auto cfm_lat = r->completed - r->issued;
    const auto stall = monarch.stall_for(phase);
    std::printf("%-16llu %-22llu %llu + %u = %-18llu\n",
                static_cast<unsigned long long>(phase),
                static_cast<unsigned long long>(cfm_lat),
                static_cast<unsigned long long>(stall), beta,
                static_cast<unsigned long long>(stall + beta));
    cfm_sum += static_cast<double>(cfm_lat);
    monarch_sum += static_cast<double>(stall + beta);
    auto row = sim::Json::object();
    row["arrival_phase"] = phase;
    row["cfm_latency"] = cfm_lat;
    row["stall"] = stall;
    row["phase_aligned_latency"] = stall + beta;
    report.add_row("phase_sweep", std::move(row));
  }
  std::printf("\nmean over phases: CFM %.2f cycles, phase-aligned %.2f "
              "(expected stall (b-1)/2 = %.1f)\n",
              cfm_sum / b, monarch_sum / b, monarch.expected_stall());
  report.add_scalar("cfm_mean_latency", cfm_sum / b);
  report.add_scalar("phase_aligned_mean_latency", monarch_sum / b);
  report.add_scalar("expected_stall", monarch.expected_stall());
  std::printf("\n\"This avoids unnecessary stalls, which occur in the\n"
              "Monarch and the OMP when a memory access arrives at a memory\n"
              "bank in a wrong time phase.\" (§3.1.1)\n");
  return bench::finish(opts, report);
}
