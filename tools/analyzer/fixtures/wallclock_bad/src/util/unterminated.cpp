namespace fx {
const char* s = "oops;
int x = std::rand();
}  // namespace fx
