namespace fx {
const char* s = R"(never closed
int x = std::rand();
