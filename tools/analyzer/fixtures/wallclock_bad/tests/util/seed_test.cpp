#include <random>

int seed() {
  std::random_device rd;
  return static_cast<int>(rd());
}
