// std::cout, printf("x") and puts() in a comment are inert.
#include <cstdio>
#include <string>

namespace fx {

std::string format(int n) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%d", n);
  const char* doc = "use std::cout or printf(\"%d\") only in tools";
  (void)doc;
  return buf;
}

void to_file(std::FILE* out, int n) { std::fprintf(out, "%d\n", n); }

}  // namespace fx
