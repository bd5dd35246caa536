#pragma once

#include "util/types.hpp"

namespace graph {
util::id_t num_vertices();
}
