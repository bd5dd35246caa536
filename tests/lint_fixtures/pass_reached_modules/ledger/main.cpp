#include "workload.hpp"

int main() { return util::one() - 1; }
