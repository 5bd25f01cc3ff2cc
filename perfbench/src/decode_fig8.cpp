// decode_fig8: Fig. 8's threshold point. The SurfNet Decoder runs code
// trials at d in {9, 11, 13, 15}, cycled op by op, with Pauli 7.25% and
// erasure 15% on Support qubits and both rates halved on the Core. One op
// is one code trial: sample an error, decode both graphs, check the
// logical result. Trials run on decoder::run_trials (one thread) with
// counter-based per-trial seeds, so a pass replays bitwise.

#include <array>
#include <cstdio>

#include "decoder/code_trial.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/trial_runner.h"
#include "harness.h"
#include "qec/core_support.h"
#include "qec/lattice.h"
#include "timed_decoder.h"

namespace perfbench {

namespace {

using namespace surfnet;

constexpr std::array<int, 4> kDistances{9, 11, 13, 15};
constexpr double kPauli = 0.0725;
constexpr double kErasure = 0.15;
constexpr auto kChannel = qec::PauliChannel::IndependentXZ;
/// Code trials per pass.
constexpr std::int64_t kOpsPerPass = 16000;
/// Nominal pass time (a pass takes 1.2-1.5 s on one core of a 4-vCPU
/// x86-64 host): 13 passes at --seconds 20.
constexpr double kPassSeconds = 1.5;

struct Code {
  std::unique_ptr<qec::SurfaceCodeLattice> lattice;
  qec::NoiseProfile profile;
  std::vector<double> prior;
  decoder::CodeTrialWorkspace ws;
};

/// Per-pass tallies that must replay bitwise.
struct Tally {
  std::array<std::int64_t, kDistances.size()> failures{};
  std::int64_t invalid = 0;
  bool operator==(const Tally&) const = default;
};

class DecodeFig8 final : public Workload {
 public:
  explicit DecodeFig8(const Options& options)
      : seed_(options.seed), timed_(decoder_) {}

  std::string describe() const override {
    return "decode_fig8[surfnet_decoder_d9-15_pauli0.0725_erasure0.15_ops" +
           std::to_string(kOpsPerPass) + "]";
  }
  double pass_seconds() const override { return kPassSeconds; }

  void setup(Tracer*) override {
    codes_.clear();
    for (const int d : kDistances) {
      auto code = std::make_unique<Code>();
      code->lattice = std::make_unique<qec::SurfaceCodeLattice>(d);
      const auto partition = qec::make_core_support(*code->lattice);
      code->profile =
          qec::NoiseProfile::core_support(partition, kPauli, kErasure);
      code->prior = code->profile.component_error_prob(kChannel);
      // One untimed trial sizes the workspace, so ops run allocation-free.
      util::Rng rng(seed_);
      qec::sample_errors(code->profile, kChannel, rng, code->ws.sample);
      decoder::decode_sample(*code->lattice, code->ws.sample, code->prior,
                             decoder_, code->ws);
      codes_.push_back(std::move(code));
    }
  }

  PassStats run_pass(Tracer* tracer, HostSpeed* host) override {
    PassStats stats;
    stats.op_begin_ns.reserve(static_cast<std::size_t>(kOpsPerPass));
    stats.op_end_ns.reserve(static_cast<std::size_t>(kOpsPerPass));
    Tally tally;
    timed_.attach(tracer);
    decoder::TrialRunnerOptions options;
    options.threads = 1;
    options.seed = seed_;
    const auto report = decoder::run_trials(
        kOpsPerPass, options, [&]() -> decoder::TrialFn {
          return [&](std::int64_t trial, util::Rng& rng) {
            const auto d = static_cast<std::size_t>(trial) % codes_.size();
            Code& code = *codes_[d];
            tick(host);
            if (tracer) tracer->next_op();
            const std::int64_t begin = now_ns();
            decoder::TrialOutcome outcome;
            {
              ScopedSpan op(tracer, "op");
              ScopedSpan span(tracer, "qec.sample_eval");
              qec::sample_errors(code.profile, kChannel, rng, code.ws.sample);
              outcome = decoder::TrialOutcome::from(decoder::decode_sample(
                  *code.lattice, code.ws.sample, code.prior, timed_, code.ws));
            }
            stats.add_op(begin, now_ns());
            if (outcome.failure) ++tally.failures[d];
            return outcome;
          };
        });
    timed_.attach(nullptr);
    stats.ops = report.trials;
    tally.invalid = report.invalid;

    // Output checks: every correction reproduces its syndrome, and later
    // passes replay pass 0's per-distance failures.
    stats.failed += report.invalid;
    if (!reference_) {
      reference_ = tally;
    } else if (!(*reference_ == tally)) {
      std::fprintf(stderr, "code trials do not replay pass 0\n");
      stats.failed = stats.ops;
    }
    return stats;
  }

  Quality quality() const override {
    std::int64_t failures = 0;
    for (std::size_t d = 0; d < kDistances.size(); ++d) {
      failures += reference_->failures[d];
      std::printf("d=%d logical_error_rate %.6f\n", kDistances[d],
                  static_cast<double>(reference_->failures[d]) /
                      (kOpsPerPass / static_cast<double>(kDistances.size())));
    }
    const double rate = static_cast<double>(failures) / kOpsPerPass;
    Quality q;
    q.logical_error_rate = rate;
    q.fidelity = 1.0 - rate;
    return q;
  }

  LayerCounters counters() const override { return {}; }

 private:
  std::uint64_t seed_;
  decoder::SurfNetDecoder decoder_;
  TimedDecoder timed_;
  std::vector<std::unique_ptr<Code>> codes_;
  std::optional<Tally> reference_;  ///< pass 0, replayed by later passes
};

}  // namespace

std::unique_ptr<Workload> make_decode_fig8(const Options& options) {
  return std::make_unique<DecodeFig8>(options);
}

}  // namespace perfbench
