#pragma once

// Sample-and-decode in one call, for tests that draw one code trial at a
// time: sample an error from the profile, then decode_sample it. The
// shipped paths (the trial runner, the network simulator, the benches)
// sample and decode as separate steps over reused workspaces.

#include "decoder/code_trial.h"

namespace surfnet::decoder {

CodeTrialResult run_code_trial(const qec::CodeLattice& lattice,
                               const qec::NoiseProfile& profile,
                               qec::PauliChannel channel,
                               const Decoder& decoder, util::Rng& rng);

}  // namespace surfnet::decoder
