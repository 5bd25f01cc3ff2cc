#include <chrono>

long ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
