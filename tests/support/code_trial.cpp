#include "support/code_trial.h"

namespace surfnet::decoder {

CodeTrialResult run_code_trial(const qec::CodeLattice& lattice,
                               const qec::NoiseProfile& profile,
                               qec::PauliChannel channel,
                               const Decoder& decoder, util::Rng& rng) {
  const auto sample = qec::sample_errors(profile, channel, rng);
  const auto prior = profile.component_error_prob(channel);
  return decode_sample(lattice, sample, prior, decoder);
}

}  // namespace surfnet::decoder
