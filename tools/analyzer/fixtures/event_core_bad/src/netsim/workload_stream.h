#pragma once

#include <unordered_set>

namespace fx {

struct Stream {
  std::unordered_multimap<int, int> by_slot;
  std::unordered_multiset<int> live;
};

}  // namespace fx
