#pragma once

// The ArgParser owns the only wall-clock entropy escape hatch.
#include <random>

namespace fx {
inline unsigned entropy() { return std::random_device{}(); }
}  // namespace fx
