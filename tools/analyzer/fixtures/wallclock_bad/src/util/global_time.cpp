#include <ctime>

#define SEED_LATER time(NULL)

long global_now() { return ::time(NULL) + SEED_LATER; }
