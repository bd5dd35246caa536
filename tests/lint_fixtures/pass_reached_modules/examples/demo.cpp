#include "graph/graph.hpp"

int main() { return graph::num_vertices(); }
