#include <chrono>
#include <ctime>
#include <unordered_map>

namespace fx {

struct Queue {
  std::unordered_map<int, int> pending;
};

long stamp() {
  const auto a = std::chrono::steady_clock::now();
  const auto b = std::chrono::high_resolution_clock::now();
  long c = clock();
  long d = time(nullptr);
  long e = std::clock() + std::time(nullptr);
  (void)a, (void)b;
  return c + d + e;
}

}  // namespace fx
