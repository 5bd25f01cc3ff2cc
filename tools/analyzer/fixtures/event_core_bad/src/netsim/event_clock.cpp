#include <ctime>

namespace fx {

long global_now() { return ::time(NULL) + ::clock(); }

}  // namespace fx
