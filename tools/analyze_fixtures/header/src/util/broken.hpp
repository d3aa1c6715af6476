// True positive: includes a header that does not exist.
#pragma once

#include "util/does_not_exist.hpp"
