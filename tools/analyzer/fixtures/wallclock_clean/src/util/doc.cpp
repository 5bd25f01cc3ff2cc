// std::rand() and srand(0) in a comment are inert.
#include <chrono>

#define DOC "std::rand() // not a comment, still a literal"

namespace fx {

constexpr const char* kDoc = R"(
std::rand() here
)";
const char* s = "srand(0); time(nullptr)";

double elapsed_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Clock {
  long time(int slot) const { return slot; }
  long slot_time() const { return 0; }
};

long now(const Clock& c) { return c.time(3) + c.slot_time() + util::time(); }
unsigned draw(unsigned long long state) { return my_rand(state) + mysrand(1); }

}  // namespace fx
