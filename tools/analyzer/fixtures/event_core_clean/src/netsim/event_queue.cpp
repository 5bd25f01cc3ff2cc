// std::chrono, steady_clock and unordered_map are banned here; naming them
// in a comment or a literal is not.
#include <map>
#include <vector>

namespace fx {

const char* kWhy = "no std::chrono, no clock(), no time(), no unordered_set";

struct Queue {
  std::map<long, int> pending;
  std::vector<int> order;
  long slot_time(int s) const { return s; }
};

long advance(const Queue& q) { return q.slot_time(1) + util::clock(2); }

}  // namespace fx
