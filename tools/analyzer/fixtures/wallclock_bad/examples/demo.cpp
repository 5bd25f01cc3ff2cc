#include <ctime>

int main() { return static_cast<int>(time(nullptr) % 2); }
