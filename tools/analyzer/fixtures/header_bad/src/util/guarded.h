// An include guard instead of the pragma.
#ifndef SURFNET_UTIL_GUARDED_H
#define SURFNET_UTIL_GUARDED_H

int guarded();

#endif  // SURFNET_UTIL_GUARDED_H
