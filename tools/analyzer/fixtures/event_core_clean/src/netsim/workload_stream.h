#pragma once

namespace fx {

// Member calls and member declarations named `time` or `clock` are not
// the C library functions the purity and seeding rules look for.
struct Stream {
  long now() const { return clock.time() + source->time(); }
  struct { long time() const { return 0; } } clock;
  const Stream* source = this;
  long time() const { return now(); }
  long ticks() const { return source->clock.time(); }
};

}  // namespace fx
