#include <cstdlib>

int main() { return std::rand() % 2; }
