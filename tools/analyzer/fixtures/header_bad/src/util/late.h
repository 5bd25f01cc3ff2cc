#include <vector>
#pragma once

std::vector<int> late();
