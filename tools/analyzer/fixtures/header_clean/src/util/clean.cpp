// Sources need no pragma.
#include "util/clean.h"

int clean() { return 0; }
