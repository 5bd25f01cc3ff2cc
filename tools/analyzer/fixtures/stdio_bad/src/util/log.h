#pragma once

#include <cstdio>

#define SURFNET_LOG(msg) printf("%s\n", msg)
