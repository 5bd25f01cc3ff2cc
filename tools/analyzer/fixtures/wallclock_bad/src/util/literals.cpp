// Names inside literals and comments never fire; the real call after each
// one does, on the line the expected.txt pins.
namespace fx {

void call(const char*);
void f(const char*);

void literals() {
  call("std::rand()"); srand(1);
  f("a\"b std::rand()"); srand(2);
  auto q = R"(
std::rand()
)"; srand(3);
  auto r = R"x( std::rand() )" std::rand() )x"; srand(4);
  auto FOOR = 0; auto s = FOOR"(x)"; srand(5);
  int a;  // don't call std::rand() here
  srand(6);
  /* one
  std::rand()
  */ srand(7);
  auto u = "//"; srand(8); auto v = "/*";
  int y = std::rand();
  int n = 1'000'000; srand(9);
}

}  // namespace fx
