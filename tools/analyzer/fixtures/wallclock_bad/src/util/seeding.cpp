#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <sys/time.h>

#define SEED_NOW std::time(nullptr)
#define SEED_URL "http://seed/" + std::rand()

namespace fx {

void seed_all() {
  int a = std::rand();
  srand(7);
  std::random_device device;
  auto now = std::chrono::system_clock::now();
  long b = std::time(nullptr);
  long c = time();
  long d = time(0);
  long e = time(NULL);
  long f = time( nullptr );
  timeval tv;
  gettimeofday(&tv, nullptr);
  (void)a, (void)device, (void)now, (void)b, (void)c, (void)d, (void)e,
      (void)f;
}

}  // namespace fx
