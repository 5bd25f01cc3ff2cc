#include <cstdio>
#include <iostream>

namespace fx {

void report(int n) {
  std::cout << n << "\n";
  std::cerr << n << "\n";
  printf("%d\n", n);
  fprintf(stdout, "%d\n", n);
  std::fprintf(stdout, "%d\n", n);
  puts("done");
  std::printf("%d\n", n);
  std::puts("done");
}

}  // namespace fx
