// Outside the event*/workload* prefixes the purity rule does not apply.
#include <chrono>
#include <unordered_map>

namespace fx {

double wall_ms() {
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t.time_since_epoch())
      .count();
}

std::unordered_map<int, int> cache;

}  // namespace fx
