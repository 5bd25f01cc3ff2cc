#include <iostream>

void dump() { std::cerr << "tests print\n"; }
