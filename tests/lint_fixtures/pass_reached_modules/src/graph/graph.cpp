#include "graph/graph.hpp"

#include "util/detail.hpp"

namespace graph {
util::id_t num_vertices() { return util::zero(); }
}
