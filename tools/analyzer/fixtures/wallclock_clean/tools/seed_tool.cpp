// Outside src/bench/tests/examples the rule does not apply.
#include <random>

int main() { return static_cast<int>(std::random_device{}() % 2); }
