#include <cstdio>
#include <iostream>

int main() {
  std::cout << "benches print\n";
  printf("%d\n", 1);
  return 0;
}
